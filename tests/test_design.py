"""Design guards: a game is described by its `GameConfig` alone.

Count-space code reads the strengths from the config; `geometry` is only the
vertex construction, which the oracle (its cross-check and `reward_vector`)
and `run --dump-simplex` build from a config's strengths, so no public
signature outside `geometry` can take a `Simplex`.  Importing the command
line loads no process-pool machinery, which only a multi-worker sweep uses.
Play has one driver: `run` plays every round, and only `run_lockstep` stops a
game, whose record its `window` alone sizes.  Every public name is used by the package itself or kept for a stated reason.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import simplexgame
from simplexgame import analytics, errors, game, geometry, harness, learning, oracle

PACKAGE = Path(simplexgame.__file__).parent


def _public(module):
    """(qualified name, function) of every public function, class, method
    (class and static ones too) and property (as its getter) defined in the
    module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, method in vars(obj).items():
                if isinstance(method, property):
                    method = method.fget
                elif isinstance(method, (classmethod, staticmethod)):
                    method = method.__func__
                if not attr.startswith("_") and inspect.isfunction(method):
                    yield f"{module.__name__}.{name}.{attr}", method


def _takes_a_simplex(obj) -> bool:
    parameters = inspect.signature(obj).parameters.values()
    return any("Simplex" in str(p.annotation) or p.name == "simplex" for p in parameters)


def _imports_geometry(path: Path) -> bool:
    """Whether an import statement of the file names a `geometry` module or name."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            named.add((node.module or "").split(".")[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(a.name.split(".")[-1] for a in node.names)
    return "geometry" in named


def test_only_the_oracle_and_cli_use_the_vertices():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    importers = [m for m in modules if _imports_geometry(PACKAGE / f"{m}.py")]
    assert importers == ["cli", "oracle"]
    takers = [name for module in (game, harness, learning, analytics, oracle)
              for name, obj in _public(module) if _takes_a_simplex(obj)]
    assert takers == []
    assert not hasattr(game, "check_simplex")
    # the strengths are a count-space type, with no alias left in geometry
    assert not hasattr(geometry, "StrengthDistribution")
    for name in ("properness", "PropernessReport"):
        assert not any(hasattr(module, name) for module in (geometry, game, simplexgame))
    assert "threshold" not in inspect.signature(game.StrengthDistribution.random_proper).parameters


@pytest.mark.parametrize("source, expected", [
    ("from .geometry import build_simplex", True),
    ("from . import geometry", True),
    ("from simplexgame.geometry import Simplex", True),
    ("import simplexgame.geometry", True),
    ("from .game import GameConfig", False),
    ("from . import game, oracle", False),
])
def test_the_import_guard_sees_every_form(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source + "\n")
    assert _imports_geometry(path) == expected


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: this one has imported more than the cli alone
    probe = ("import sys, simplexgame.cli; print(sorted(m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process', 'socket', 'selectors', "
             "'subprocess')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_errors_holds_the_one_count_rule():
    """`errors.check_count` is the one check of a count or an index: no other
    module spells its messages, as a hand-written copy of the rule would."""
    rule = re.compile(r"must be an integer|must be >= \d")
    copies = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "errors" for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and rule.search(node.value)]
    assert copies == []
    assert not hasattr(errors, "check_index")


def _plain_signature(function) -> str:
    """The function's signature without annotations: names, kinds and defaults."""
    signature = inspect.signature(function)
    return str(signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty))


def test_window_alone_sizes_a_record_and_only_run_lockstep_stops_a_game():
    assert _plain_signature(learning.run) == "(config, seed, *, gamma, iterations, matrix=None)"
    assert _plain_signature(learning.run_lockstep) == \
        "(games, gamma, iterations, check_every=None, window=None)"


# public names that no code of the package reads, each with the reason it stays
KEPT_UNREFERENCED = {
    "oracle.reward_vector": "acceptance c02: the vertex form of the round reward",
    "oracle.potential_defect": "acceptance c02: the exact potential identity",
    "geometry.weighted_moments": "acceptance c01: the simplex's weighted moments",
    "learning.random_baseline": "acceptance c04: the unsophisticated-play baseline",
    "game.save_strategy_matrix": "README: strategy tables written for auditing",
    "game.load_strategy_matrix": "README: strategy tables read back for auditing",
    "game.GameConfig.training_parameter": "README's quick start reads lambda from it",
    "game.MixedProfile.pure": "a value type's constructor",
    "game.MixedProfile.uniform": "a value type's constructor",
}


def _reads(node, classes, inside=()):
    """(identifier, whether an attribute, owner, definitions enclosing the
    read) of every ast Name and Attribute node under node: owner is the class
    of a read written `Class.member` where Class is one of `classes`, else
    None, and the definitions are a tuple of their nodes."""
    if isinstance(node, ast.Name):
        yield node.id, False, None, inside
    elif isinstance(node, ast.Attribute):
        value = node.value
        owner = value.id if isinstance(value, ast.Name) and value.id in classes else None
        yield node.attr, True, owner, inside
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, classes, inside)


def _definition(tree, path: list):
    """The def or class node at the dotted path of names in a module's tree."""
    node = tree
    for name in path:
        node = next(child for child in node.body if getattr(child, "name", None) == name)
    return node


def test_every_public_name_is_read_or_kept():
    """A name read only in its own definition (a recursion) counts as unread,
    and a class member counts as read only through an attribute (`x.pure`),
    not a bare name (`pure = ...`).  A read written `Class.member`, where
    Class names a class of the package, counts for that class's member only:
    `StrengthDistribution.uniform(nodes)` reads no `MixedProfile.uniform`.
    Any other attribute read (`x.node_count`) matches every member of that
    name, since the guard does not infer what type x has."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.stem != "__init__"}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    reads = [read for tree in trees.values() for read in _reads(tree, classes)]
    unread = set()
    for stem in trees.keys() - {"__main__"}:
        for qualified, _ in _public(importlib.import_module(f"simplexgame.{stem}")):
            path = qualified.split(".")[2:]
            own = _definition(trees[stem], path)
            member = len(path) > 1
            if not any(name == path[-1] and own not in inside
                       and (path[:-1] == [owner] if owner else attribute or not member)
                       for name, attribute, owner, inside in reads):
                unread.add(".".join([stem, *path]))
    assert unread == set(KEPT_UNREFERENCED)
