import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexgame import (ExperimentConfig, GameConfig, LearningConfig,
                         MixedProfile, StrengthDistribution, ValidationError,
                         build_simplex, child_seed, compare_strengths,
                         expected_frustration,
                         experiment_from_file, export_sweep, export_trajectory,
                         measure_steady_state, run, single_run, sweep,
                         verify_reduction)
from simplexgame.harness import (CONFIG_KEYS, config_hash, parse_config_file,
                                 parse_lambda_grid, semantic_config, signals_for,
                                 sweep_data_csv, sweep_summary_csv)


def tiny_sweep_config(**overrides):
    base = dict(players=10, nodes=2, strategies=2, lambda_grid=(0.5, 1.0),
                realizations=3, t_max=600, window=100, check_every=50,
                master_seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- seeding -----------------------------------------------------------------

def test_child_seeds_distinct():
    seeds = {child_seed(7, li, k) for li in range(40) for k in range(50)}
    assert len(seeds) == 2000


def test_child_seed_reproducible():
    assert child_seed(123, 4, 5) == child_seed(123, 4, 5)
    assert child_seed(123, 4, 5) != child_seed(124, 4, 5)


def test_signals_for_rounding():
    assert signals_for(0.32, 50) == 16
    assert signals_for(0.25, 50) == 13   # half rounds away from zero
    assert signals_for(0.001, 50) == 1   # clamped to >= 1


# -- measurement -------------------------------------------------------------

def test_measure_steady_state_zero_at_balanced_pure():
    from simplexgame import StrategyMatrix
    cfg = GameConfig(players=2, nodes=2, signals=3, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    s = build_simplex(cfg.strengths)
    entries = np.zeros((2, 1, 3), dtype=np.uint8)
    entries[1, :, :] = 1
    c = StrategyMatrix(entries)
    result = run(cfg, LearningConfig(iterations=300), seed=0, matrix=c, simplex=s)
    final = measure_steady_state(result.state, c, s, cfg, "final-profile")
    assert final == pytest.approx(0.0, abs=1e-12)
    windowed = measure_steady_state(result.state, c, s, cfg, "windowed-trace",
                                    result.trajectory, window=100)
    assert windowed == pytest.approx(0.0, abs=1e-12)


def test_measure_steady_state_gamma_zero_modes():
    y = StrengthDistribution.uniform(5)
    cfg = GameConfig(players=50, nodes=5, signals=2, strategies_per_player=2,
                     strengths=y)
    result = run(cfg, LearningConfig(gamma=0.0, iterations=3000), seed=8)
    final = measure_steady_state(result.state, result.matrix, result.simplex,
                                 cfg, "final-profile")
    # exact evaluation of the uniform profile on the drawn matrix
    expect = expected_frustration(result.matrix,
                                  MixedProfile.uniform(50, 2),
                                  result.simplex, cfg)
    assert final == pytest.approx(expect, abs=1e-12)
    windowed = measure_steady_state(result.state, result.matrix, result.simplex,
                                    cfg, "windowed-trace", result.trajectory, 1000)
    # the trace realizes the same expectation through sampled play
    assert windowed == pytest.approx(final, abs=0.25)


def test_measure_modes_agree_after_convergence():
    rng = np.random.default_rng(14)
    y = StrengthDistribution.random_proper(5, rng)
    cfg = GameConfig(players=50, nodes=5, signals=2, strategies_per_player=2,
                     strengths=y)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=2000), seed=14)
    final = measure_steady_state(result.state, result.matrix, result.simplex,
                                 cfg, "final-profile")
    windowed = measure_steady_state(result.state, result.matrix, result.simplex,
                                    cfg, "windowed-trace", result.trajectory, 200)
    assert abs(final - windowed) <= 0.05


def test_measure_mode_validation():
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution.uniform(2))
    result = run(cfg, LearningConfig(iterations=10), seed=0)
    with pytest.raises(ValidationError):
        measure_steady_state(result.state, result.matrix, result.simplex, cfg,
                             "bogus")
    with pytest.raises(ValidationError):
        measure_steady_state(result.state, result.matrix, result.simplex, cfg,
                             "windowed-trace", None)


# -- sweep -------------------------------------------------------------------

def test_sweep_rows_and_summary_shape():
    exp = tiny_sweep_config()
    result = sweep(exp)
    assert len(result.rows) == 6
    assert len(result.summary) == 2
    assert [r.realization for r in result.rows] == [0, 1, 2, 0, 1, 2]
    for s in result.summary:
        group = [r.steady_r for r in result.rows
                 if r.realized_lambda == s.realized_lambda]
        assert s.mean_r == pytest.approx(np.mean(group), abs=0)
        assert s.std_r == pytest.approx(np.std(group, ddof=1), abs=0)


def test_sweep_realized_lambda_uses_rounded_signals():
    exp = tiny_sweep_config(lambda_grid=(0.26,))
    result = sweep(exp)
    assert result.rows[0].realized_lambda == signals_for(0.26, 10) / 10


def test_sweep_requires_grid():
    with pytest.raises(ValidationError):
        sweep(tiny_sweep_config(lambda_grid=None, signals=5))


def test_sweep_deterministic_and_worker_independent(monkeypatch):
    exp = tiny_sweep_config()
    a = sweep(exp)
    monkeypatch.setenv("SIMPLEXGAME_WORKERS", "1")
    b = sweep(tiny_sweep_config())
    assert [r.steady_r for r in a.rows] == [r.steady_r for r in b.rows]
    assert a.config_hash == b.config_hash


def test_converged_means_a_purity_stop():
    # with M = 1, a player whose two strategies pick the same node never turns
    # pure, so those runs play to t_max; a flat trace there is not convergence
    exp = tiny_sweep_config(lambda_grid=(0.1, 1.0), t_max=1000, realizations=4)
    rows = sweep(exp).rows
    for r in rows:
        if r.lambda_index == 0:
            assert r.iterations == exp.t_max and not r.converged
        elif r.iterations < exp.t_max:
            assert r.converged


def test_sweep_random_strengths_redrawn_per_realization():
    exp = tiny_sweep_config(nodes=3, strengths="random", realizations=2,
                            lambda_grid=(0.5,))
    result = sweep(exp)
    # distinct child seeds draw distinct strengths; rows must differ
    assert result.rows[0].steady_r != result.rows[1].steady_r


# -- export ------------------------------------------------------------------

def test_export_csv_and_json_roundtrip(tmp_path):
    exp = tiny_sweep_config(realizations=1, lambda_grid=(0.8,))
    result = sweep(exp)
    data = tmp_path / "out.csv"
    written = export_sweep(result, str(data), "csv")
    assert [str(data), str(tmp_path / "out_summary.csv")] == written
    lines = data.read_text().strip().split("\n")
    assert lines[0] == "lambda,realization,seed,steady_R,converged,iterations"
    assert len(lines) == 2
    summary_lines = (tmp_path / "out_summary.csv").read_text().strip().split("\n")
    assert summary_lines[0] == "lambda,mean_R,std_R,predicted_R"
    assert len(summary_lines) == 2

    jpath = tmp_path / "out.json"
    export_sweep(result, str(jpath), "json")
    payload = json.loads(jpath.read_text())
    back_mean = float(np.mean([r["steady_R"] for r in payload["rows"]]))
    assert back_mean == result.summary[0].mean_r  # lossless round-trip
    assert payload["config_hash"] == result.config_hash


def test_export_unwritable_path_raises_oserror(tmp_path):
    exp = tiny_sweep_config(realizations=1, lambda_grid=(0.8,))
    result = sweep(exp)
    with pytest.raises(OSError) as err:
        export_sweep(result, str(tmp_path / "missing_dir" / "x.csv"), "csv")
    assert "missing_dir" in str(err.value)


def test_export_byte_stable(tmp_path):
    a = sweep(tiny_sweep_config())
    b = sweep(tiny_sweep_config())
    assert sweep_data_csv(a) == sweep_data_csv(b)
    assert sweep_summary_csv(a) == sweep_summary_csv(b)


def test_export_cells_are_plain_numbers():
    result = sweep(tiny_sweep_config())
    for text in (sweep_data_csv(result), sweep_summary_csv(result)):
        for line in text.strip().split("\n")[1:]:
            for cell in line.split(","):
                if cell not in ("true", "false"):
                    float(cell)  # every cell parses; no numpy repr wrappers


def test_config_hash_changes_iff_semantic_field_changes():
    a = semantic_config(tiny_sweep_config())
    b = semantic_config(tiny_sweep_config())
    assert config_hash(a) == config_hash(b)
    c = semantic_config(tiny_sweep_config(gamma=19.0))
    assert config_hash(a) != config_hash(c)
    d = semantic_config(tiny_sweep_config(master_seed=43))
    assert config_hash(a) != config_hash(d)


def test_trajectory_export(tmp_path):
    cfg = GameConfig(players=5, nodes=2, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(2))
    result = run(cfg, LearningConfig(iterations=20), seed=0)
    path = tmp_path / "traj.csv"
    export_trajectory(result.trajectory, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,m,R_t,purity"
    assert len(lines) == 21


# -- comparisons -------------------------------------------------------------

def test_compare_strengths_identical_arms_match_exactly():
    exp = tiny_sweep_config(strengths="uniform", strengths_b="uniform")
    result = compare_strengths(exp)
    for row in result.per_lambda:
        assert row.gap == 0.0
    assert [r.steady_r for r in result.result_a.rows] == \
        [r.steady_r for r in result.result_b.rows]


def test_compare_strengths_requires_second_arm():
    with pytest.raises(ValidationError):
        compare_strengths(tiny_sweep_config())


def test_verify_reduction_binary_input_is_identity():
    exp = tiny_sweep_config(nodes=2)
    result = verify_reduction(exp)
    assert [r.steady_r for r in result.result_a.rows] == \
        [r.steady_r for r in result.result_b.rows]
    for sa, sb in zip(result.result_a.summary, result.result_b.summary):
        assert sa.predicted_r == sb.predicted_r


def test_verify_reduction_scales_signals():
    exp = tiny_sweep_config(nodes=3, lambda_grid=(0.5,), realizations=1)
    result = verify_reduction(exp)
    assert result.result_b.rows[0].realized_lambda == pytest.approx(
        2 * result.result_a.rows[0].realized_lambda)
    # analytic overlays coincide
    assert result.result_a.summary[0].predicted_r == pytest.approx(
        result.result_b.summary[0].predicted_r, abs=1e-12)


# -- self-averaging ----------------------------------------------------------

def test_realization_spread_shrinks_with_players():
    stds = {}
    for players in (10, 25, 100):
        exp = ExperimentConfig(players=players, nodes=2, strategies=2,
                               lambda_grid=(1.0,), realizations=12,
                               t_max=3000, window=200, check_every=100,
                               master_seed=5)
        stds[players] = sweep(exp).summary[0].std_r
    assert stds[10] > stds[100]
    assert stds[25] > stds[100]


# -- config files ------------------------------------------------------------

CONFIG_TEXT = """\
# trace-style experiment
players = 50
nodes = 5          # node count
signals = 2
strategies = 2
gamma = 20
iterations = 1500
strengths = random
seed = 7
"""


def test_parse_config_file(tmp_path):
    path = tmp_path / "fig.cfg"
    path.write_text(CONFIG_TEXT)
    values = parse_config_file(str(path))
    assert values["players"] == 50
    assert values["strengths"] == "random"
    exp = experiment_from_file(str(path))
    assert exp.master_seed == 7
    assert exp.iterations == 1500


def test_parse_config_rejects_unknown_and_duplicate_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("players = 5\nnodes = 2\nstrategies = 1\nplayerz = 5\n")
    with pytest.raises(ValidationError):
        parse_config_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("players = 5\nplayers = 6\n")
    with pytest.raises(ValidationError):
        parse_config_file(str(dup))


def test_config_efficiencies_normalized(tmp_path):
    path = tmp_path / "rates.cfg"
    path.write_text("players = 10\nnodes = 4\nstrategies = 2\nsignals = 2\n"
                    "efficiencies = 1.06,3.91,11,14.1\n")
    exp = experiment_from_file(str(path))
    assert exp.strengths == pytest.approx(
        (1.06 / 30.07, 3.91 / 30.07, 11.0 / 30.07, 14.1 / 30.07), abs=1e-15)


def test_parse_lambda_grid_forms():
    assert parse_lambda_grid("0.1,0.5,2") == (0.1, 0.5, 2.0)
    grid = parse_lambda_grid("0.01:2:50")
    assert len(grid) == 50
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        parse_lambda_grid("0.1:2")


@pytest.mark.parametrize("raw", ["0.1:inf:3", "-inf:1:3", "nan:1:3", "0.1:nan:1"])
@pytest.mark.filterwarnings("error")
def test_parse_lambda_grid_rejects_non_finite_bounds_without_warning(raw):
    # rejected before np.linspace could warn about an invalid value
    with pytest.raises(ValidationError, match="finite"):
        parse_lambda_grid(raw)


def test_single_run_uses_seeded_strengths(tmp_path):
    path = tmp_path / "fig.cfg"
    path.write_text(CONFIG_TEXT)
    a = single_run(experiment_from_file(str(path)))
    b = single_run(experiment_from_file(str(path)))
    assert a.trajectory.frustrations.tobytes() == b.trajectory.frustrations.tobytes()
    assert np.allclose(a.simplex.strengths.weights, b.simplex.strengths.weights)


def test_experiment_validation():
    with pytest.raises(ValidationError):
        tiny_sweep_config(realizations=0)
    with pytest.raises(ValidationError):
        tiny_sweep_config(t_max=50, window=100)
    with pytest.raises(ValidationError):
        tiny_sweep_config(lambda_grid=(0.0, 1.0))
    for grid in ((float("nan"),), (0.5, float("inf"))):
        with pytest.raises(ValidationError):
            tiny_sweep_config(lambda_grid=grid)
    with pytest.raises(ValidationError):
        tiny_sweep_config(measurement="median")
    for bad in (dict(check_every=0), dict(window=0), dict(gamma=float("nan")),
                dict(gamma=float("inf")), dict(gamma=-1.0)):
        with pytest.raises(ValidationError):
            tiny_sweep_config(**bad)


_NUMBER = st.one_of(st.integers().map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_VALUE = st.one_of(
    st.text(max_size=20), _NUMBER,
    st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
    st.lists(_NUMBER, min_size=3, max_size=3).map(":".join),
    st.sampled_from(["uniform", "random", "final-profile", "windowed-trace", "linear"]),
)


@given(st.lists(st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), _VALUE), max_size=10),
       st.booleans())
@example([("lambda_grid", "nan")], True)
@example([("lambda_grid", "0.5,inf")], True)
@example([("lambda_grid", "0.1:inf:3")], True)
@example([("lambda_grid", "0:1:1000000000000")], True)
@settings(max_examples=300, deadline=None)
def test_config_text_gives_experiment_or_validation_error(tmp_path_factory, entries,
                                                         with_required):
    lines = [f"{key} = {value}" for key, value in entries]
    if with_required:
        lines = ["players = 10", "nodes = 3", "strategies = 2"] + lines
    path = tmp_path_factory.mktemp("cfg") / "random.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        experiment_from_file(str(path))
    except ValidationError:
        pass
