"""Design guards: a game is described by its `GameConfig` alone.

Count-space code reads the strengths from the config; a `Simplex` is built
only where vertices are read, so no other public signature can take one.
"""
import inspect

from simplexgame import game, harness, learning


def _public(module):
    """(qualified name, callable) of every public function, class and method
    defined in the module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, method in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(method):
                    yield f"{module.__name__}.{name}.{attr}", method


def _takes_a_simplex(obj) -> bool:
    parameters = inspect.signature(obj).parameters.values()
    return any("Simplex" in str(p.annotation) or p.name == "simplex" for p in parameters)


def test_only_reward_vector_takes_a_simplex():
    takers = [name for module in (game, harness, learning)
              for name, obj in _public(module) if _takes_a_simplex(obj)]
    assert takers == ["simplexgame.learning.reward_vector"]
    assert not hasattr(game, "check_simplex")
