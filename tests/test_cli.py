import json

import numpy as np
import pytest

from simplexgame import (GameConfig, StrengthDistribution, build_simplex,
                         draw_strategy_matrix)
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
