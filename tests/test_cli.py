import contextlib
import dataclasses
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

from simplexgame import (GameConfig, StrengthDistribution, ValidationError, build_simplex,
                         draw_strategy_matrix, harness)
from simplexgame import cli
from simplexgame.cli import main
from simplexgame.geometry import debug_dict
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
    out = tmp_path / "traj.csv"
    dump = tmp_path / "simplex.json"
    for text in (RUN_CFG, RUN_CFG + "strengths = random\n"):
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--seed", "7",
                     "--out", str(out), "--dump-simplex", str(dump)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,m,R_t,purity"
        assert len(lines) == 301
        simplex = json.loads(dump.read_text())
        assert simplex["gram_defect"] <= 1e-10
        # the dump is the simplex of the strengths the run played with
        played = harness.single_run(harness.experiment_from_file(str(cfg), seed=7))
        want = debug_dict(build_simplex(played.config.strengths))
        assert simplex["strengths"] == want["strengths"]
        assert simplex["vertices"] == want["vertices"]


def test_run_plays_strengths_that_have_no_vertices(tmp_path, capsys):
    # count space needs no vertices; only the dump builds them, before any write
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG + "strengths = 1e-12,0.5,0.499999999999\n")
    out, dump = tmp_path / "traj.csv", tmp_path / "simplex.json"
    argv = ["run", "--config", str(cfg), "--out", str(out)]
    assert main(argv + ["--dump-simplex", str(dump)]) == 1
    assert f"error: {cfg}: expected exactly one zero Gram" in capsys.readouterr().err
    assert not out.exists() and not dump.exists()
    assert main(argv) == 0 and len(out.read_text().splitlines()) == 301


def test_a_bad_dump_path_is_reported_as_every_output_is(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    dump = tmp_path / "missing" / "simplex.json"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "traj.csv"),
                 "--dump-simplex", str(dump)]) == 2
    assert capsys.readouterr().err.startswith(f"I/O error: cannot write {dump}: ")


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


# (command, config, seed) of the outputs recorded in tests/data: a
# windowed-trace sweep with window > check_every and rows capped at t_max, and
# a final-profile one with S = 3, window < check_every and random strengths
RECORDED_SWEEPS = {
    "sweep_trace_n30_s2_b4_seed2": ("sweep", """\
players = 30
nodes = 4
strategies = 2
strengths = random
lambda_grid = 0.2,1,3
realizations = 3
t_max = 1000
window = 150
check_every = 50
measurement = windowed-trace
""", 2),
    "sweep_final_n20_s3_b3_seed1": ("sweep", """\
players = 20
nodes = 3
strategies = 3
strengths = random
lambda_grid = 0.1,0.5,2
realizations = 3
t_max = 900
window = 30
check_every = 100
measurement = final-profile
""", 1),
    # fixed strengths at S = 1 (no sampling, no max fold) and S = 4 (three cdf planes)
    "sweep_trace_n12_s1_b3_seed3": ("sweep", """\
players = 12
nodes = 3
strategies = 1
strengths = 0.5,0.3,0.2
lambda_grid = 0.1,0.5,1,3
realizations = 3
t_max = 600
window = 50
check_every = 50
measurement = windowed-trace
""", 3),
    "sweep_final_n12_s4_b3_seed4": ("sweep", """\
players = 12
nodes = 3
strategies = 4
strengths = uniform
lambda_grid = 0.2,0.8,1.5,4
realizations = 3
t_max = 800
window = 40
check_every = 100
measurement = final-profile
""", 4),
    # a paired sweep under fixed and uniform strengths, a 2-node reduction, and
    # a run of 300 rounds
    "compare_n12_s2_b3_seed5": ("compare-strengths", """\
players = 12
nodes = 3
strategies = 2
strengths = 0.5,0.3,0.2
strengths_b = uniform
lambda_grid = 0.1,0.5,1,3
realizations = 3
t_max = 600
window = 50
check_every = 50
measurement = windowed-trace
""", 5),
    "reduce_n12_s3_b3_seed6": ("verify-reduction", """\
players = 12
nodes = 3
strategies = 3
strengths = 0.5,0.3,0.2
lambda_grid = 0.2,0.8,1.5,4
realizations = 3
t_max = 800
window = 40
check_every = 100
measurement = final-profile
""", 6),
    "run_n12_s2_b3_seed7": ("run", """\
players = 12
nodes = 3
signals = 4
strategies = 2
strengths = 0.5,0.3,0.2
gamma = 20
iterations = 300
""", 7),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("recorded", list(RECORDED_SWEEPS))
def test_sweep_matches_recorded_output(tmp_path, monkeypatch, recorded, workers):
    """Every row and summary line, text for text; the JSON without its wall clock.

    Each file in tests/data was written by the command line from the entry's
    config file and seed, as `python tests/record_golden.py NAME` replays it:

        simplexgame sweep --config CFG --seed SEED --out NAME.csv
        simplexgame sweep --config CFG --seed SEED --out NAME.json --format json
        simplexgame compare-strengths --config CFG --seed SEED --out NAME.csv
        simplexgame verify-reduction --config CFG --seed SEED --out NAME.csv
        simplexgame run --config CFG --seed SEED --out NAME.csv

    A run's CSV is written a second time in chunks of 128 rounds, so that its
    text crosses chunk boundaries.
    """
    monkeypatch.setenv("SIMPLEXGAME_WORKERS", workers)
    command, text, seed = RECORDED_SWEEPS[recorded]
    cfg, data = tmp_path / "sweep.cfg", Path(__file__).parent / "data"
    cfg.write_text(text)
    if command != "sweep":
        out = tmp_path / f"{recorded}.csv"
        argv = [command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
        for chunk in [harness._CSV_ROUNDS] + [128] * (command == "run"):
            monkeypatch.setattr(harness, "_CSV_ROUNDS", chunk)
            assert main(argv) == 0
            assert out.read_text() == (data / out.name).read_text()
        return
    for name in (f"{recorded}.csv", f"{recorded}.json"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--seed", str(seed), "--out", str(out),
                     "--format", out.suffix[1:]]) == 0
        if out.suffix == ".json":
            payload = json.loads(out.read_text())
            payload["metadata"].pop("wall_clock_seconds")
            out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            summary = Path(harness.summary_path_for(name))
            assert (tmp_path / summary).read_text() == (data / summary).read_text()
        assert out.read_text() == (data / name).read_text()


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


# the flags of the predict output recorded in tests/data
RECORDED_PREDICT = {"predict_s2_b5_grid4000.csv": "--S 2 --B 5 --lambda-grid 0.001:20:4000"}


def test_predict_matches_recorded_output(tmp_path, capsys):
    # 4,000 lambdas across the onset pin every predicted_R bit, text for text,
    # in the file and, without --out, on stdout; tests/record_golden.py wrote it
    out, name = tmp_path / "pred.csv", "predict_s2_b5_grid4000.csv"
    argv = ["predict", *RECORDED_PREDICT[name].split()]
    assert main(argv + ["--out", str(out)]) == 0
    want = (Path(__file__).parent / "data" / name).read_text()
    assert out.read_text() == want
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_record_golden_writes_every_recorded_file(tmp_path, capsys):
    # into an empty directory: every file of tests/data, byte for byte; then a
    # changed file is named and kept without --force, and rewritten with it
    import record_golden
    data = Path(__file__).parent / "data"
    assert record_golden.record([], data=tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in data.iterdir())
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (data / path.name).read_bytes()
    stale = tmp_path / "run_n12_s2_b3_seed7.csv"
    stale.write_text("stale\n")
    capsys.readouterr()
    assert record_golden.record(["run_n12_s2_b3_seed7"], data=tmp_path) == 1
    assert f"{stale} would change" in capsys.readouterr().err
    assert stale.read_text() == "stale\n"
    assert record_golden.record([stale.name], force=True, data=tmp_path) == 0
    assert stale.read_bytes() == (data / stale.name).read_bytes()
    assert record_golden.record(["nonesuch.csv"], data=tmp_path) == 1


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
    expect = oracle_report(matrix, config)
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


def test_strengths_that_overflow_count_space_exit_one(tmp_path, capsys):
    # found when the experiment is built, named by the line that set them
    cfg = tmp_path / "sweep.cfg"
    text = SWEEP_CFG.replace("players = 10\nnodes = 2\n", "players = 3\nnodes = 3\n")
    cfg.write_text(text + "efficiencies = 1,2,1e308\n")
    line = text.count("\n") + 1
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{line}: strengths down to 1e-308 ")
    # the second arm of a comparison too, at the line of its own key
    cfg.write_text(text + "efficiencies = 1,2,3\nefficiencies_b = 1,2,1e308\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(cfg))}:{line + 1}: strengths"):
        harness.experiment_from_file(str(cfg))


def test_overflowing_learning_rate_exits_one_before_play(tmp_path, capsys, monkeypatch):
    # every round warned of an overflow before the run failed on NaN
    # probabilities; found when the experiment is built, before any pool
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "gamma = 1e308\n")
    line = SWEEP_CFG.count("\n") + 1
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (f"error: {cfg}:{line}: learning rate gamma up to "
                                       "1e+308 overflows the scores of 400 rounds\n")
    # random strengths are drawn per realization: the batch still finds it
    cfg.write_text(SWEEP_CFG + "gamma = 1e308\nstrengths = random\n")
    harness.experiment_from_file(str(cfg))
    monkeypatch.setenv(harness.WORKERS_ENV, "1")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (f"error: {cfg}: learning rate gamma up to "
                                       "1e+308 overflows the scores of 400 rounds\n")
    # a t_max beyond any float overflows the default gamma, without a traceback
    for strengths in ("uniform", "random"):
        cfg.write_text(SWEEP_CFG.replace("t_max = 400", "t_max = 1" + "0" * 400)
                       + f"strengths = {strengths}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: learning rate gamma up to 20.0 overflows the scores of 1000")


def test_a_size_beyond_any_float_exits_one_with_the_budget_text(tmp_path, capsys):
    # the records of 10^400 rounds: the budget's message once overflowed a float
    # (gamma = 0: any other rate overflows the scores of that many rounds first)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("players = 2\nnodes = 2\nstrategies = 1\nsignals = 1\ngamma = 0\n"
                   f"iterations = {10**400}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: 1 records of the last {10**400} rounds would need "
                          f"at least 2^{(24 * 10**400).bit_length() - 31} GiB, above the 4 GiB")
    assert "Traceback" not in err and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("line,lineno", [("players = abc", 1),
                                          ("players 10", 1),   # no '='
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


def _set(line: str) -> tuple:
    """SWEEP_CFG with `line` in place of its key's line, or after the last
    line, and ":<number of that line>"."""
    lines = SWEEP_CFG.splitlines()
    at = next((i for i, text in enumerate(lines) if text.split(" = ")[0] == line.split(" = ")[0]),
              len(lines))
    lines[at:at + 1] = [line]
    return "\n".join(lines) + "\n", f":{at + 1}"


# one case per check of an experiment: each names the line that set the value
@pytest.mark.parametrize("text,where", [
    _set("measurement = median"),
    _set("strengths = 0.5,0.3,0.2"),    # three weights, two nodes
    _set("t_max = 50"),                 # below window
    # one of t_max and window left at its default: the line of the other
    (SWEEP_CFG.replace("t_max = 400\n", "").replace("window = 100", "window = 6000"), ":6"),
    (SWEEP_CFG.replace("window = 100\n", "").replace("t_max = 400", "t_max = 150"), ":6"),
    (SWEEP_CFG + "strengths = uniform\nefficiencies = 1,2\n", ":10"),
    _set("players = 0"),
    _set("nodes = 1"),
    _set("nodes = 256"),
    _set("strategies = 0"),
    _set("signals = 0"),
    _set("realizations = 0"),
    _set("window = 0"),
    _set("check_every = 0"),
    _set("gamma = nan"),
    _set("gamma = -1"),
    _set("iterations = -5"),
    _set("lambda_grid = 0,1"),
    _set("lambda_grid = 1e308"),        # lambda * players overflows
    (SWEEP_CFG.replace("lambda_grid = 0.5,1", "lambda_grid = 1e308") + "strengths = random\n",
     ":4"),
    _set("seed = -1"),
    _set("efficiencies = 1,2,3"),
    _set("strengths_b = 0.2,0.2"),
    _set("efficiencies_b = 1,2,3"),
], ids=["measurement", "strengths-count", "t_max-below-window", "window-only-above-t_max",
        "t_max-only-below-window", "strengths-and-efficiencies",
        "players", "nodes-below-2", "nodes-above-255", "strategies", "signals", "realizations",
        "window", "check_every", "gamma-nan", "gamma-negative", "iterations", "lambda_grid",
        "lambda_grid-overflow", "lambda_grid-overflow-random-strengths", "seed",
        "efficiencies-count", "strengths_b", "efficiencies_b-count"])
def test_bad_experiment_exits_one_naming_the_file(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{where}: ") and "Traceback" not in err


NO_GRID = SWEEP_CFG.replace("lambda_grid = 0.5,1\n", "")


@pytest.mark.parametrize("command,text,message", [
    ("sweep", NO_GRID, ": sweep needs a lambda_grid"),
    ("verify-reduction", NO_GRID, ": verify_reduction needs a lambda_grid"),
    ("run", RUN_CFG.replace("signals = 2\n", ""), ": single runs need an explicit signal count"),
    ("compare-strengths", SWEEP_CFG, ": compare_strengths needs a second strength distribution"),
    ("run", RUN_CFG.replace("iterations = 300", "iterations = -5"),
     ":6: iterations must be >= 0"),
    # the game a run plays at `signals`, checked when the experiment is built
    ("run", RUN_CFG + "strengths = 1e-308,0.5,0.5\n",
     ":7: strengths down to 1e-308 overflow the count-space terms of 20 players and 2 signals"),
    ("run", RUN_CFG.replace("gamma = 20", "gamma = 1e306").replace("= 300", "= 1000"),
     ":5: learning rate gamma up to 1e+306 overflows the scores of 1000 rounds"),
], ids=["sweep-no-grid", "reduction-no-grid", "run-no-signals", "compare-no-second-arm",
        "negative-iterations", "run-strengths-overflow", "run-gamma-overflow"])
def test_error_after_reading_the_config_names_it_once(tmp_path, capsys, command, text,
                                                      message):
    # a command's own needs name the file; a bad value names its line too
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}{message}\n"


def test_bad_second_arm_exits_one_before_any_play(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(SWEEP_CFG + "strengths_b = 0.2,0.2\n")

    def no_play(*args):
        raise AssertionError("a sweep was played before the second arm was checked")
    monkeypatch.setattr(harness, "_execute", no_play)
    assert main(["compare-strengths", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == \
        f"error: {cfg}:9: strengths_b: strengths must sum to 1 (got 0.4)\n"


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


@pytest.mark.parametrize("strengths,nodes", [("0.5,abc", "2"), ("random", "2"), ("abc", "2"),
                                             ("0.5,0.6", "2"), ("0.5,0.5", "3")],
                         ids=["0.5,abc", "random", "abc", "0.5,0.6", "two-weights-three-nodes"])
def test_bad_oracle_strengths_exit_one(capsys, strengths, nodes):
    code = main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", nodes,
                 "--strengths", strengths])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --strengths") and "Traceback" not in err


@pytest.mark.parametrize("flag,value,message", [
    ("--N", "0", "players must be >= 1"),
    ("--S", "0", "strategies must be >= 1"),
    ("--M", "0", "signals must be >= 1"),
    ("--B", "1", "nodes must be >= 2"),
    ("--B", "300", "node indices are stored as bytes; nodes must be <= 255"),
    ("--strengths", "1e-308,1",
     "strengths down to 1e-308 overflow the count-space terms of 3 players and 2 signals"),
], ids=["N", "S", "M", "B-below-2", "B-above-255", "strengths-overflow"])
def test_bad_oracle_size_names_its_flag(capsys, flag, value, message):
    sizes = {"--N": "3", "--S": "2", "--M": "2", "--B": "2", flag: value}
    assert main(["oracle", *(arg for pair in sizes.items() for arg in pair)]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"


def test_oracle_checks_no_learning_rate(capsys):
    # strengths whose scores the default gamma would overflow over a run's
    # default rounds: the oracle plays no rounds, so it solves the game
    assert main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "2",
                 "--strengths", "1e-305,1"]) == 0
    assert json.loads(capsys.readouterr().out)["players"] == 3


def test_oracle_strengths_list_matches_library(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "3", "--seed", "4",
                 "--strengths", "0.5,0.3,0.2", "--out", str(out)]) == 0
    y = StrengthDistribution(np.array([0.5, 0.3, 0.2]))
    config = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                        strengths=y)
    matrix = draw_strategy_matrix(config, np.random.default_rng(4))
    expect = oracle_report(matrix, config)
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


def _die(job):
    """A sweep batch whose worker process dies at once, as a killed one does."""
    os._exit(3)


def test_a_dead_sweep_worker_exits_two_in_one_line(tmp_path, capsys, monkeypatch):
    # the pool's fork start carries the patched batch into both workers
    monkeypatch.setenv("SIMPLEXGAME_WORKERS", "2")
    monkeypatch.setattr(harness, "_run_batch", _die)
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "x.csv"
    cfg.write_text(SWEEP_CFG)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error: a sweep worker, one of 2 processes, died: ")
    assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_lists_exactly_the_config_keys():
    section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|[^|]*\| (.*?) *\|$", section, flags=re.MULTILINE)
    assert sorted(key for key, _ in rows) == sorted(harness.CONFIG_KEYS)
    defaults = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}
    for key, cell in rows:   # the default column shows the dataclass default
        field, parse = harness.CONFIG_KEYS[key]
        if key != field and field in harness.CONFIG_KEYS:
            assert cell == "-", key   # another spelling of a field: no default of its own
        elif defaults[field] is dataclasses.MISSING:
            assert cell == "required", key
        elif defaults[field] is None:
            assert cell == "-", key
        else:
            assert parse(cell.strip("`")) == defaults[field], key


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(np.isfinite(float(value)) for value in printed)


def _fresh_interpreter(*args):
    """Run the interpreter on `args` with this package first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_fresh_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency
    code = ("import sys, simplexgame.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _fresh_interpreter("-c", code)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    # `python -m simplexgame` exits 0 when done, 1 on a validation error and
    # 2 on an I/O error; none of these commands starts a process pool
    out = tmp_path / "no_such_dir" / "x.csv"
    for args, code in ((["zeta", "--S", "2"], 0), (["zeta", "--S", "0"], 1),
                       (["predict", "--S", "2", "--B", "5", "--lambda-grid", "0.5:1:2",
                         "--out", str(out)], 2)):
        proc = _fresh_interpreter("-m", "simplexgame", *args)
        assert proc.returncode == code, proc.stderr
        assert bool(proc.stdout) == (code == 0) and bool(proc.stderr) == (code != 0)


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
    "oracle-negative-budget":
        (["oracle", "--N", "3", "--S", "2", "--M", "2", "--B", "3", "--budget", "-5"], None),
    "zeta-no-strategies": (["zeta", "--S", "0"], None),
    # lambda that is not positive and finite
    "predict-nan-lambda": (["predict", "--S", "2", "--B", "5", "--lambda-grid", "nan,0.5"],
                           None),
    "predict-inf-lambda": (["predict", "--S", "2", "--B", "5", "--lambda-grid", "0.5,inf"],
                           None),
    "predict-negative-inf-lambda":
        (["predict", "--S", "2", "--B", "5", "--lambda-grid=-inf"], None),
    # 10^12 sizes: refused by a budget, not by a failed allocation
    "sweep-huge-window":
        (["sweep", "--config", "{cfg}", "--out", "{out}"],
         SWEEP_ONE + f"t_max = {HUGE}\nwindow = {HUGE}\n"),
    "run-huge-iterations":
        (["run", "--config", "{cfg}", "--out", "{out}"],
         RUN_CFG.replace("iterations = 300", f"iterations = {HUGE}")),
    "oracle-huge-table-and-profiles":
        (["oracle", "--N", "30", "--S", "2", "--M", HUGE, "--B", "3"], None),
    "oracle-huge-players": (["oracle", "--N", HUGE, "--S", "2", "--M", "1", "--B", "2"], None),
    "oracle-huge-players-and-budget":
        (["oracle", "--N", HUGE, "--S", "3", "--M", "1", "--B", "2", "--budget", str(10**30)],
         None),
    "oracle-huge-table": (["oracle", "--N", "2", "--S", "2", "--M", HUGE, "--B", "3"], None),
    "oracle-huge-nodes": (["oracle", "--N", "2", "--S", "2", "--M", "2", "--B", HUGE], None),
    "sweep-huge-nodes":
        (["sweep", "--config", "{cfg}", "--out", "{out}"],
         SWEEP_ONE.replace("nodes = 2", f"nodes = {HUGE}")),
    "zeta-huge-chunk":
        (["zeta", "--S", str(2 * 10**12), "--method", "monte-carlo", "--samples", "2"], None),
}


# S = 1: purity is 1, so every realization stops at its first check, round 2 * window
SETTLES_AT_FIRST_CHECK = """\
players = 20
nodes = 3
strategies = 1
lambda_grid = 1
realizations = 2
window = 100
check_every = 50
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_t_max_only_caps_play(tmp_path, monkeypatch, workers):
    # a sweep holds its last `window` rounds per realization, so a t_max far
    # beyond where play stops sizes nothing, for any worker count
    monkeypatch.setenv("SIMPLEXGAME_WORKERS", workers)

    def outputs(t_max):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / f"t{t_max}.csv"
        cfg.write_text(SETTLES_AT_FIRST_CHECK + f"t_max = {t_max}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        return out.read_text(), Path(harness.summary_path_for(str(out))).read_text()

    want = outputs(1000)
    assert [line.split(",")[-2:] for line in want[0].splitlines()[1:]] == [["true", "200"]] * 2
    for t_max in (10**8, HUGE):
        assert outputs(t_max) == want


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
