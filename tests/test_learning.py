import numpy as np
import pytest
from scipy.stats import spearmanr

from simplexgame import (ConvergenceSettings, GameConfig, LearnerState,
                         LearningConfig, MixedProfile, PureInstance,
                         StrategyMatrix, StrengthDistribution, ValidationError,
                         build_simplex, detect_convergence,
                         draw_strategy_matrix, expected_frustration,
                         integrate_replicator, iterate, random_baseline,
                         replicator_flow, resolve_bets, reward_vector, run,
                         softmax_probabilities, strategy_payoffs)

from conftest import random_profile, small_instance

FIG1_STYLE = dict(players=50, nodes=5, signals=2, strategies_per_player=2)


def fig1_config(rng=None, uniform=False):
    if uniform or rng is None:
        y = StrengthDistribution.uniform(5)
    else:
        y = StrengthDistribution.random_proper(5, rng)
    return GameConfig(strengths=y, **FIG1_STYLE)


# -- rewards -----------------------------------------------------------------

def test_reward_at_played_strategy_is_scaled_payoff(rng):
    for _ in range(10):
        cfg, s, c = small_instance(rng)
        choices = rng.integers(0, cfg.strategies_per_player, cfg.players)
        m = int(rng.integers(cfg.signals))
        inst = PureInstance(m, choices)
        nodes, alloc = resolve_bets(c, inst, cfg.nodes)
        b = alloc.counts @ s.vertices
        payoffs = 1.0 - alloc.counts[nodes] / (
            cfg.strengths.weights[nodes] * cfg.players)
        for i in range(cfg.players):
            w = reward_vector(c, inst, b, i, s, cfg)
            assert w[choices[i]] == pytest.approx(payoffs[i] / cfg.signals, abs=1e-12)


def test_reward_dual_form_agreement(rng):
    # bracket formula vs full re-resolution of the swapped instance
    for _ in range(50):
        cfg, s, c = small_instance(rng)
        choices = rng.integers(0, cfg.strategies_per_player, cfg.players)
        m = int(rng.integers(cfg.signals))
        inst = PureInstance(m, choices)
        _, alloc = resolve_bets(c, inst, cfg.nodes)
        b = alloc.counts @ s.vertices
        i = int(rng.integers(cfg.players))
        w = reward_vector(c, inst, b, i, s, cfg)
        for strat in range(cfg.strategies_per_player):
            swapped = choices.copy()
            swapped[i] = strat
            nodes2, alloc2 = resolve_bets(c, PureInstance(m, swapped), cfg.nodes)
            node = nodes2[i]
            u = 1.0 - alloc2.counts[node] / (cfg.strengths.weights[node] * cfg.players)
            assert w[strat] == pytest.approx(u / cfg.signals, abs=1e-12)


def test_reward_single_player_example():
    cfg = GameConfig(players=1, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    s = build_simplex(cfg.strengths)
    c = StrategyMatrix(np.array([[[0]]], dtype=np.uint8))
    inst = PureInstance(0, np.array([0]))
    _, alloc = resolve_bets(c, inst, cfg.nodes)
    b = alloc.counts @ s.vertices
    w = reward_vector(c, inst, b, 0, s, cfg)
    assert w[0] == pytest.approx(-1.0)


# -- softmax -----------------------------------------------------------------

def test_softmax_uniform_cases():
    assert np.allclose(softmax_probabilities(np.array([3.0, 3.0, 3.0]), 5.0), 1 / 3)
    assert np.allclose(softmax_probabilities(np.array([9.0, -4.0]), 0.0), 0.5)


def test_softmax_example_values():
    p = softmax_probabilities(np.array([1.0, 0.0]), 1.0)
    e = np.e
    assert p[0] == pytest.approx(e / (1 + e), abs=1e-12)
    assert p[1] == pytest.approx(1 / (1 + e), abs=1e-12)


def test_softmax_no_overflow():
    p = softmax_probabilities(np.array([1e5, 0.0]), 20.0)
    assert p[0] == pytest.approx(1.0)
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# -- iterate / run -----------------------------------------------------------

def test_iterate_updates_are_consistent(rng):
    cfg, s, c = small_instance(rng, players=6, strategies=3)
    state = LearnerState.initial(cfg, gamma=7.0)
    for _ in range(30):
        iterate(state, c, s, cfg, rng)
        # probabilities always softmax-consistent with scores
        for i in range(cfg.players):
            expect = softmax_probabilities(state.scores[i], 7.0)
            assert np.max(np.abs(state.probabilities[i] - expect)) <= 1e-12


def test_iterate_single_strategy_is_repeated_play(rng):
    cfg, s, c = small_instance(rng, strategies=1)
    state = LearnerState.initial(cfg)
    for _ in range(5):
        rec = iterate(state, c, s, cfg, rng)
    assert np.allclose(state.probabilities, 1.0)
    assert rec.purity == 1.0


def test_zero_learning_rate_stays_uniform():
    # M=50 keeps the quenched per-matrix mean of R_t concentrated near 1
    y = StrengthDistribution.uniform(5)
    cfg = GameConfig(players=50, nodes=5, signals=50, strategies_per_player=2,
                     strengths=y)
    means = []
    for seed in range(3):
        result = run(cfg, LearningConfig(gamma=0.0, iterations=2000), seed=seed)
        assert np.allclose(result.state.probabilities, 0.5)
        means.append(np.mean(result.trajectory.frustrations))
    assert np.mean(means) == pytest.approx(1.0, abs=0.1)


def test_run_deterministic_trajectories():
    cfg = fig1_config(uniform=True)
    a = run(cfg, LearningConfig(iterations=400), seed=123)
    b = run(cfg, LearningConfig(iterations=400), seed=123)
    assert a.trajectory.frustrations.tobytes() == b.trajectory.frustrations.tobytes()
    assert a.trajectory.signals.tobytes() == b.trajectory.signals.tobytes()
    assert a.matrix.entries.tobytes() == b.matrix.entries.tobytes()


def test_learning_settings_validation():
    cfg = fig1_config(uniform=True)
    for bad in (dict(check_every=0), dict(window=0), dict(check_every=-5)):
        with pytest.raises(ValidationError):
            ConvergenceSettings(**bad)
    per_player = np.full(cfg.players, 20.0)
    per_player[3] = np.nan
    for gamma in (np.nan, np.inf, -1.0, per_player):
        with pytest.raises(ValidationError):
            LearningConfig(gamma=gamma)
        with pytest.raises(ValidationError):
            LearnerState.initial(cfg, gamma)
    with pytest.raises(ValidationError):
        softmax_probabilities(np.array([1.0, 0.0]), np.nan)


def test_run_rejects_mismatched_matrix():
    cfg = fig1_config(uniform=True)
    learn = LearningConfig(iterations=5)
    wrong_shape = StrategyMatrix(np.zeros((cfg.players, 2, cfg.signals + 1), dtype=np.uint8))
    with pytest.raises(ValidationError):
        run(cfg, learn, seed=1, matrix=wrong_shape)
    entries = np.zeros((cfg.players, 2, cfg.signals), dtype=np.uint8)
    entries[3, 1, 0] = cfg.nodes  # one past the last node
    with pytest.raises(ValidationError):
        run(cfg, learn, seed=1, matrix=StrategyMatrix(entries))
    entries[3, 1, 0] = cfg.nodes - 1
    assert len(run(cfg, learn, seed=1, matrix=StrategyMatrix(entries)).trajectory) == 5


def test_run_zero_iterations():
    cfg = fig1_config(uniform=True)
    result = run(cfg, LearningConfig(iterations=0), seed=1)
    assert len(result.trajectory) == 0
    assert np.all(result.state.scores == 0.0)


def test_run_converges_to_low_frustration():
    # trace starts near 1 and finds a low plateau within 2000 iterations
    rng = np.random.default_rng(77)
    cfg = fig1_config(rng)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=2000), seed=77)
    r = result.trajectory.frustrations
    assert r[:10].mean() >= 0.5
    assert r[-200:].mean() <= 0.3


def test_payoff_mode_does_not_change_dynamics():
    # rewards always use the linear form; the throughput mode is reporting-only
    y = StrengthDistribution.uniform(5)
    lin = GameConfig(payoff_mode="linear", strengths=y, **FIG1_STYLE)
    non = GameConfig(payoff_mode="nonlinear", strengths=y, **FIG1_STYLE)
    a = run(lin, LearningConfig(iterations=500), seed=3)
    b = run(non, LearningConfig(iterations=500), seed=3)
    assert a.trajectory.frustrations.tobytes() == b.trajectory.frustrations.tobytes()


def test_snapshot_stride_records_profiles():
    cfg = fig1_config(uniform=True)
    result = run(cfg, LearningConfig(iterations=100, snapshot_stride=25), seed=9)
    assert len(result.trajectory.snapshots) == 4
    t, counts, rows = result.trajectory.snapshots[0]
    assert counts.sum() == cfg.players
    assert rows.shape == (cfg.players, cfg.strategies_per_player)


def test_score_drift_matches_strategy_payoffs(rng):
    # during the transient the expected score change over a signal cycle is the
    # per-strategy mixed payoff: averaging short windows over play streams, the
    # rank correlation across all strategy slots clears 0.5
    cfg = fig1_config(rng)
    s = build_simplex(cfg.strengths)
    c = draw_strategy_matrix(cfg, rng)
    uniform = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    predicted = strategy_payoffs(c, uniform, s, cfg)
    window = 2 * cfg.signals
    drift = np.zeros_like(predicted)
    repeats = 20
    for k in range(repeats):
        state = LearnerState.initial(cfg, gamma=20.0)
        stream = np.random.default_rng(1000 + k)
        for _ in range(window):
            iterate(state, c, s, cfg, stream)
        drift += state.scores
    corr = spearmanr(drift.reshape(-1), predicted.reshape(-1)).statistic
    assert corr > 0.5


# -- replicator --------------------------------------------------------------

def test_replicator_pure_equilibrium_is_stationary(rng):
    # anti-coordinated binary pair: a strict equilibrium, exactly stationary
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    s = build_simplex(cfg.strengths)
    entries = np.zeros((2, 2, 1), dtype=np.uint8)
    entries[:, 1, :] = 1  # strategy 0 -> node 0, strategy 1 -> node 1 for both
    c = StrategyMatrix(entries)
    p = MixedProfile.pure(np.array([0, 1]), 2)
    flow = replicator_flow(c, p, s, cfg, 20.0)
    assert np.max(np.abs(flow)) <= 1e-12
    profiles = integrate_replicator(c, p, s, cfg, 20.0, tau_end=1.0, step=0.05)
    assert np.max(np.abs(profiles[-1].rows - p.rows)) <= 1e-12


def test_replicator_rows_sum_to_zero(rng):
    for _ in range(10):
        cfg, s, c = small_instance(rng)
        p = random_profile(rng, cfg.players, cfg.strategies_per_player)
        flow = replicator_flow(c, p, s, cfg, 20.0)
        assert np.max(np.abs(flow.sum(axis=1))) <= 1e-12


def test_replicator_frustration_is_nonincreasing(rng):
    cfg = fig1_config(rng)
    s = build_simplex(cfg.strengths)
    c = draw_strategy_matrix(cfg, rng)
    p0 = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    profiles = integrate_replicator(c, p0, s, cfg, gamma=20.0, tau_end=2.0, step=0.01)
    values = [expected_frustration(c, p, s, cfg) for p in profiles[::10]]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-6)


def test_replicator_step_halving(rng):
    cfg = fig1_config(rng)
    s = build_simplex(cfg.strengths)
    c = draw_strategy_matrix(cfg, rng)
    p0 = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    coarse = integrate_replicator(c, p0, s, cfg, 20.0, tau_end=1.0, step=0.02)
    fine = integrate_replicator(c, p0, s, cfg, 20.0, tau_end=1.0, step=0.01)
    r_coarse = expected_frustration(c, coarse[-1], s, cfg)
    r_fine = expected_frustration(c, fine[-1], s, cfg)
    assert abs(r_coarse - r_fine) < 1e-4


def test_replicator_step_validation(rng):
    cfg, s, c = small_instance(rng)
    p = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    with pytest.raises(ValidationError):
        integrate_replicator(c, p, s, cfg, 20.0, tau_end=1.0, step=0.0)


# -- baseline ----------------------------------------------------------------

def test_random_baseline_mean_near_one():
    cfg = fig1_config(uniform=True)
    traj = random_baseline(cfg, seed=11, iterations=10**4)
    assert np.mean(traj.frustrations) == pytest.approx(1.0, abs=0.05)


def test_random_baseline_two_player_binary():
    # outcomes: split (R=0, prob 1/2) or pile-up (R=2, prob 1/2)
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    traj = random_baseline(cfg, seed=2, iterations=4000)
    values = set(np.round(traj.frustrations, 12))
    assert values <= {0.0, 2.0}
    frac_zero = np.mean(traj.frustrations == 0.0)
    assert frac_zero == pytest.approx(0.5, abs=4 * 0.5 / np.sqrt(4000))


def test_random_baseline_mean_one_even_for_skewed_strengths():
    # strength-weighted picks balance the weighted simplex for any strengths
    cfg = GameConfig(players=50, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.9, 0.1])))
    traj = random_baseline(cfg, seed=3, iterations=10**4)
    assert np.mean(traj.frustrations) == pytest.approx(1.0, abs=0.06)


# -- convergence -------------------------------------------------------------

def test_detect_convergence_one_hot_rows(rng):
    cfg, s, c = small_instance(rng, players=4, strategies=2)
    state = LearnerState.initial(cfg, gamma=20.0)
    state.scores = np.zeros_like(state.scores)
    state.scores[:, 0] = 100.0
    state.probabilities = np.zeros_like(state.probabilities)
    state.probabilities[:, 0] = 1.0
    traj = run(cfg, LearningConfig(iterations=50), seed=1).trajectory
    report = detect_convergence(state, traj, window=50)
    assert report.converged and report.purity == 1.0 and report.reason == "purity"


def test_detect_convergence_gamma_zero_plateaus():
    cfg = fig1_config(uniform=True)
    result = run(cfg, LearningConfig(gamma=0.0, iterations=3000), seed=4)
    report = detect_convergence(result.state, result.trajectory, window=500)
    assert report.purity == pytest.approx(0.5)     # 1/S, never pure
    assert report.plateau_r == pytest.approx(1.0, abs=0.15)


def test_detect_convergence_fig1_style():
    # checked every 100 iterations the run reports convergence within 2000,
    # with a low final plateau
    rng = np.random.default_rng(20)
    cfg = fig1_config(rng)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=2000), seed=20,
                 convergence=ConvergenceSettings(window=200, check_every=100))
    assert result.converged
    assert result.report.plateau_r < 0.3


def test_detect_convergence_requires_window():
    cfg = fig1_config(uniform=True)
    result = run(cfg, LearningConfig(iterations=10), seed=1)
    with pytest.raises(ValidationError):
        detect_convergence(result.state, result.trajectory, window=50)


def test_early_stop_on_purity():
    rng = np.random.default_rng(31)
    cfg = fig1_config(rng)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=8000), seed=31,
                 convergence=ConvergenceSettings(window=200, check_every=100,
                                                 stop_reasons=("purity",)))
    if result.converged:
        assert result.state.iteration < 8000
        assert result.report.reason == "purity"
