import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgame import (GameConfig, StrengthDistribution, build_simplex,
                         draw_strategy_matrix, harness)
from simplexgame import cli
from simplexgame.cli import main
from simplexgame.oracle import oracle_report

RUN_CFG = """\
players = 20
nodes = 3
signals = 2
strategies = 2
gamma = 20
iterations = 300
"""

SWEEP_CFG = """\
players = 10
nodes = 2
strategies = 2
lambda_grid = 0.5,1
realizations = 2
t_max = 400
window = 100
check_every = 50
"""


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "traj.csv"
    dump = tmp_path / "simplex.json"
    code = main(["run", "--config", str(cfg), "--seed", "7",
                 "--out", str(out), "--dump-simplex", str(dump)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,m,R_t,purity"
    assert len(lines) == 301
    simplex = json.loads(dump.read_text())
    assert simplex["gram_defect"] <= 1e-10


def test_sweep_subcommand_csv_and_json(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "sweep_summary.csv").exists()
    jout = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg), "--seed", "3",
                 "--out", str(jout), "--format", "json"]) == 0
    payload = json.loads(jout.read_text())
    assert len(payload["rows"]) == 4


def test_predict_subcommand(tmp_path):
    out = tmp_path / "pred.csv"
    code = main(["predict", "--S", "2", "--B", "5",
                 "--lambda-grid", "0.01:2:50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,predicted_R"
    assert len(lines) == 51
    values = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert values[0][1] == 0.0
    assert values[-1][1] > 0.5


def test_oracle_subcommand_matches_library(tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())

    y = StrengthDistribution.uniform(2)
    config = GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                        strengths=y)
    matrix = draw_strategy_matrix(config, np.random.default_rng(1))
    expect = oracle_report(matrix, build_simplex(y), config)
    assert got["equilibrium_count"] == expect["equilibrium_count"]
    assert got["min_r"] == pytest.approx(expect["min_r"])
    assert got["seed"] == 1


def test_zeta_subcommand(capsys):
    assert main(["zeta", "--S", "2"]) == 0
    printed = capsys.readouterr().out
    assert "-0.564" in printed
    assert main(["zeta", "--S", "3", "--method", "monte-carlo",
                 "--samples", "20000", "--seed", "5"]) == 0
    assert "+/-" in capsys.readouterr().out


def test_compare_strengths_subcommand(tmp_path):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(SWEEP_CFG + "strengths = uniform\nstrengths_b = 0.7,0.3\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare-strengths", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,mean_A,mean_B,gap,pooled_se"
    assert len(lines) == 3


def test_verify_reduction_subcommand(tmp_path):
    cfg = tmp_path / "red.cfg"
    cfg.write_text(SWEEP_CFG.replace("nodes = 2", "nodes = 3"))
    out = tmp_path / "red.csv"
    assert main(["verify-reduction", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_one(capsys):
    assert main(["zeta", "--S", "2", "--bogus"]) == 1


def test_validation_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("players = 5\nnodes = 2\nstrategies = 2\nwhoops = 3\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "whoops" in capsys.readouterr().err


def test_zero_check_interval_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SWEEP_CFG.replace("check_every = 50", "check_every = 0"))
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "check_every" in capsys.readouterr().err


@pytest.mark.parametrize("line,lineno", [("players = abc", 1),
                                          ("lambda_grid = a:b:3", 4),
                                          ("lambda_grid = 0.5,x", 4),
                                          ("strengths = 0.5,abc", 4)])
def test_bad_config_value_exits_one_with_location(tmp_path, capsys, line, lineno):
    bad = tmp_path / "bad.cfg"
    key = line.split(" = ")[0]
    rest = [text for text in SWEEP_CFG.splitlines() if not text.startswith(key + " ")]
    rest.insert(lineno - 1, line)
    bad.write_text("\n".join(rest) + "\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert f"{bad}:{lineno}:" in capsys.readouterr().err


def test_non_utf8_config_exits_one_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"players = 5\nnodes = 2\nstrategies = \xff2\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err and "UTF-8" in err and "Traceback" not in err


def test_removed_payoff_mode_key_exits_one_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SWEEP_CFG + "payoff_mode = linear\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:9:" in err and "unknown config key 'payoff_mode'" in err


@pytest.mark.parametrize("strengths", ["0.5,abc", "random", "abc", "0.5,0.6"])
def test_bad_oracle_strengths_exit_one(capsys, strengths):
    code = main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "2",
                 "--strengths", strengths])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_oracle_strengths_list_matches_library(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "3", "--seed", "4",
                 "--strengths", "0.5,0.3,0.2", "--out", str(out)]) == 0
    y = StrengthDistribution(np.array([0.5, 0.3, 0.2]))
    config = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                        strengths=y)
    matrix = draw_strategy_matrix(config, np.random.default_rng(4))
    expect = oracle_report(matrix, build_simplex(y), config)
    assert json.loads(out.read_text()) == dict(expect, seed=4)


def test_bad_lambda_grid_flag_exits_one(capsys):
    assert main(["predict", "--S", "2", "--B", "2", "--lambda-grid", "a:b:3"]) == 1
    assert "a:b:3" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_bad_worker_count_exits_one(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("SIMPLEXGAME_WORKERS", workers)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "SIMPLEXGAME_WORKERS" in capsys.readouterr().err


def test_io_error_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "no_such_dir" / "traj.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2


def test_determinism_across_invocations(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(cfg), "--seed", "9", "--out", str(out1)])
    main(["sweep", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_removed_snapshot_stride_key_exits_one_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(RUN_CFG + "snapshot_stride = 25\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:7:" in err and "unknown config key 'snapshot_stride'" in err


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(harness.CONFIG_KEYS)


def test_fresh_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, simplexgame.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# -- arguments rejected before any work ----------------------------------------

HUGE = str(10**12)
SWEEP_ONE = "players = 2\nnodes = 2\nstrategies = 2\nlambda_grid = 1\nrealizations = 1\n"
REJECTED = {
    # seeds numpy cannot take
    "oracle-negative-seed":
        (["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "2", "--seed", "-1"], None),
    "zeta-negative-seed":
        (["zeta", "--S", "2", "--method", "monte-carlo", "--seed", "-1"], None),
    "sweep-negative-seed":
        (["sweep", "--config", "{cfg}", "--seed", "-1", "--out", "{out}"], SWEEP_ONE),
    "run-negative-seed":
        (["run", "--config", "{cfg}", "--seed", "-5", "--out", "{out}"], RUN_CFG),
    "verify-reduction-negative-seed":
        (["verify-reduction", "--config", "{cfg}", "--seed", "-1", "--out", "{out}"],
         SWEEP_ONE),
    "oracle-non-integer-seed":
        (["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "2", "--seed", "x"], None),
    # fewer than two nodes, no strategies
    "predict-one-node": (["predict", "--S", "2", "--B", "1", "--lambda-grid", "0.5"], None),
    "predict-no-nodes": (["predict", "--S", "2", "--B", "0", "--lambda-grid", "0.5"], None),
    "predict-no-strategies":
        (["predict", "--S", "0", "--B", "2", "--lambda-grid", "0.5"], None),
    "oracle-no-strategies":
        (["oracle", "--N", "3", "--S", "0", "--M", "2", "--B", "2"], None),
    "zeta-no-strategies": (["zeta", "--S", "0"], None),
    # 10^12 sizes: refused by a budget, not by a failed allocation
    "sweep-huge-t_max":
        (["sweep", "--config", "{cfg}", "--out", "{out}"], SWEEP_ONE + f"t_max = {HUGE}\n"),
    "run-huge-iterations":
        (["run", "--config", "{cfg}", "--out", "{out}"],
         RUN_CFG.replace("iterations = 300", f"iterations = {HUGE}")),
    "oracle-huge-table-and-profiles":
        (["oracle", "--N", "30", "--S", "2", "--M", HUGE, "--B", "3"], None),
    "oracle-huge-players": (["oracle", "--N", HUGE, "--S", "2", "--M", "1", "--B", "2"], None),
    "oracle-huge-table": (["oracle", "--N", "2", "--S", "2", "--M", HUGE, "--B", "3"], None),
    "oracle-huge-nodes": (["oracle", "--N", "2", "--S", "2", "--M", "2", "--B", HUGE], None),
    "sweep-huge-nodes":
        (["sweep", "--config", "{cfg}", "--out", "{out}"],
         SWEEP_ONE.replace("nodes = 2", f"nodes = {HUGE}")),
    "zeta-huge-chunk":
        (["zeta", "--S", str(2 * 10**12), "--method", "monte-carlo", "--samples", "2"], None),
}


def _invoke(tmp, call):
    """main() on argv whose {cfg} and {out} point into the directory tmp."""
    argv, text = call
    cfg, out = tmp / "call.cfg", tmp / "out.csv"
    if text is not None:
        cfg.write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SIMPLEXGAME_WORKERS", "1")
        with contextlib.redirect_stdout(io.StringIO()):
            return main([a.format(cfg=cfg, out=out) for a in argv])


@pytest.mark.parametrize("call", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_before_any_work(tmp_path, capsys, call):
    assert _invoke(tmp_path, call) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


_TINY = st.integers(1, 4)


@st.composite
def cli_calls(draw):
    """(argv, config text or None) for any subcommand, with values from tiny ranges."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    seed = str(draw(st.integers(0, 2**64 - 1)))
    if command == "predict":
        grid = draw(st.lists(st.sampled_from(["0.05", "0.5", "1", "3"]), min_size=1,
                             max_size=3))
        return [command, "--S", str(draw(_TINY)), "--B", str(draw(st.integers(2, 3))),
                "--lambda-grid", ",".join(grid)], None
    if command == "zeta":
        argv = [command, "--S", str(draw(_TINY))]
        if draw(st.booleans()):
            argv += ["--method", "monte-carlo", "--samples",
                     str(draw(st.integers(2, 100))), "--seed", seed]
        return argv, None
    if command == "oracle":
        return [command, "--N", str(draw(_TINY)), "--S", str(draw(_TINY)),
                "--M", str(draw(_TINY)), "--B", str(draw(st.integers(2, 3))),
                "--seed", seed, "--out", "{out}"], None
    window = draw(st.integers(1, 25))
    lines = [f"players = {draw(_TINY)}", f"nodes = {draw(st.integers(2, 3))}",
             f"strategies = {draw(_TINY)}", f"gamma = {draw(st.sampled_from([0, 1, 20]))}",
             f"strengths = {draw(st.sampled_from(['uniform', 'random']))}",
             f"window = {window}", f"check_every = {draw(st.integers(1, 25))}"]
    if command == "run":
        lines += [f"signals = {draw(_TINY)}", f"iterations = {draw(st.integers(0, 50))}"]
    else:
        grid = draw(st.lists(st.sampled_from(["0.25", "0.5", "1"]), min_size=1, max_size=2))
        lines += [f"lambda_grid = {','.join(grid)}",
                  f"t_max = {draw(st.integers(window, 50))}",
                  f"realizations = {draw(st.integers(1, 2))}",
                  f"measurement = {draw(st.sampled_from(harness.MEASUREMENT_MODES))}"]
        if command == "compare-strengths":
            lines.append(f"strengths_b = {draw(st.sampled_from(['uniform', 'random']))}")
    return [command, "--config", "{cfg}", "--seed", seed, "--out", "{out}"], "\n".join(lines)


@given(cli_calls())
@settings(max_examples=150, deadline=None)
def test_main_returns_an_exit_code_and_never_raises(tmp_path_factory, call):
    assert _invoke(tmp_path_factory.mktemp("cli"), call) in (0, 1, 2)


for _call in REJECTED.values():   # each rejected call is also an explicit example
    test_main_returns_an_exit_code_and_never_raises = example(_call)(
        test_main_returns_an_exit_code_and_never_raises)
