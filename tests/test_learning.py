import numpy as np
import pytest

from simplexgame import (ConvergenceSettings, GameConfig,
                         LearningConfig, MixedProfile, PureInstance,
                         StrategyMatrix, StrengthDistribution, ValidationError,
                         build_simplex, draw_strategy_matrix, expected_frustration,
                         integrate_replicator, learning, random_baseline,
                         replicator_flow, resolve_bets, reward_vector, run,
                         strategy_payoffs)
from simplexgame.learning import PURITY_THRESHOLD, Lockstep

from conftest import play_round, random_profile, small_instance
from references import softmax_probabilities

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


def test_reward_vector_rejects_a_simplex_or_table_of_another_game():
    y = StrengthDistribution(np.array([0.5, 0.3, 0.2]))
    cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2, strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    inst = PureInstance(0, np.zeros(cfg.players, dtype=np.int64))
    _, alloc = resolve_bets(c, inst, cfg.nodes)
    s = build_simplex(y)
    w = reward_vector(c, inst, alloc.counts @ s.vertices, 0, s, cfg)
    assert w == pytest.approx([-1 / 3, 0.25], abs=1e-12)
    # the mirrored strengths' simplex read [-1/3, -0.125] without an error
    mirrored = build_simplex(StrengthDistribution(np.array([0.2, 0.3, 0.5])))
    with pytest.raises(ValidationError, match="other strengths"):
        reward_vector(c, inst, alloc.counts @ mirrored.vertices, 0, mirrored, cfg)
    entries = c.entries.copy()
    entries[0, 1, 0] = 3   # one past the last node
    for table in (StrategyMatrix(entries), StrategyMatrix(c.entries[:, :, :1])):
        with pytest.raises(ValidationError):
            reward_vector(table, inst, alloc.counts @ s.vertices, 0, s, cfg)


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
    batch = Lockstep([(cfg, c, rng)], gamma=7.0)
    for _ in range(30):
        play_round(batch, cfg)
        # probabilities always softmax-consistent with scores
        for i in range(cfg.players):
            expect = softmax_probabilities(batch.scores[:, 0, i], 7.0)
            assert np.max(np.abs(batch.probabilities[:, 0, i] - expect)) <= 1e-12


def test_iterate_single_strategy_is_repeated_play(rng):
    cfg, s, c = small_instance(rng, strategies=1)
    batch = Lockstep([(cfg, c, rng)])
    for _ in range(5):
        _, _, purity, _ = play_round(batch, cfg)
    assert np.allclose(batch.probabilities, 1.0)
    assert purity == 1.0


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
    rng = np.random.default_rng(0)
    game = (cfg, draw_strategy_matrix(cfg, rng), rng)
    for gamma in (np.nan, np.inf, -1.0, per_player):
        with pytest.raises(ValidationError):
            LearningConfig(gamma=gamma)
        with pytest.raises(ValidationError):
            Lockstep([game], gamma)
    with pytest.raises(ValidationError, match="iterations must be >= 0"):
        LearningConfig(iterations=-1)
    for gamma in (np.nan, [1.0, 5.0, 9.0], np.ones((2, 1))):
        with pytest.raises(ValidationError):
            softmax_probabilities(np.array([1.0, 0.0]), gamma)
    assert softmax_probabilities(np.array([1.0, 0.0]), [1.0]).tobytes() == \
        softmax_probabilities(np.array([1.0, 0.0]), 1.0).tobytes()


def test_gamma_needs_one_rate_or_one_per_player():
    cfg = GameConfig(players=5, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    for gamma, message in ((np.ones(3), r"3 learning rates in shape \(3,\) for 5 players"),
                           (np.ones((5, 2)), r"10 learning rates in shape \(5, 2\) for 5")):
        with pytest.raises(ValidationError, match=message):
            run(cfg, LearningConfig(gamma=gamma, iterations=5), seed=1)
    for gamma in (np.full(5, 3.0), np.full((1, 1), 3.0)):
        result = run(cfg, LearningConfig(gamma=gamma, iterations=5), seed=1)
        assert len(result.trajectory) == 5


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


def test_run_lockstep_rejects_a_matrix_that_does_not_fit_its_game():
    cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.3, 0.2])))
    learn = LearningConfig(iterations=5)
    good = draw_strategy_matrix(cfg, np.random.default_rng(0))
    entries = np.array(good.entries)
    entries[0] = 4   # player 0 always plays a node of no 3-node game
    # unchecked, the bad first table rewrote the second realization's trace:
    # node 4 of row 0 is node 1 of row 1 in the batch's (K, B) counts
    games = [(cfg, StrategyMatrix(entries), np.random.default_rng(1)),
             (cfg, good, np.random.default_rng(2))]
    with pytest.raises(ValidationError, match="holds node 4 of a 3-node game"):
        learning.run_lockstep(games, learn)
    one_signal = StrategyMatrix(np.zeros((4, 2, 1), dtype=np.uint8))   # M = 1, config says 2
    with pytest.raises(ValidationError, match="does not fit"):
        learning.run_lockstep([(cfg, one_signal, np.random.default_rng(1))], learn)
    alone = run(cfg, learn, 2, matrix=good)
    both = learning.run_lockstep([(cfg, good, np.random.default_rng(1)),
                                  (cfg, good, np.random.default_rng(2))], learn)
    assert both[1].trajectory.frustrations.tobytes() == alone.trajectory.frustrations.tobytes()


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


def spearman(x, y) -> float:
    """Spearman's rank correlation: Pearson's correlation of tie-averaged ranks."""
    def ranks(v):
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]   # mean rank of each tie run
    return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def test_score_drift_matches_strategy_payoffs(rng):
    # during the transient the expected score change over a signal cycle is the
    # per-strategy mixed payoff: averaging short windows over play streams, the
    # rank correlation across all strategy slots clears 0.5
    cfg = fig1_config(rng)
    c = draw_strategy_matrix(cfg, rng)
    uniform = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    predicted = strategy_payoffs(c, uniform, cfg)
    window = 2 * cfg.signals
    drift = np.zeros_like(predicted)
    repeats = 20
    for k in range(repeats):
        stream = np.random.default_rng(1000 + k)
        batch = Lockstep([(cfg, c, stream)], gamma=20.0)
        for _ in range(window):
            play_round(batch, cfg)
        drift += batch.scores[:, 0].T
    corr = spearman(drift.reshape(-1), predicted.reshape(-1))
    assert corr > 0.5


# -- replicator --------------------------------------------------------------

def test_replicator_pure_equilibrium_is_stationary(rng):
    # anti-coordinated binary pair: a strict equilibrium, exactly stationary
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    entries = np.zeros((2, 2, 1), dtype=np.uint8)
    entries[:, 1, :] = 1  # strategy 0 -> node 0, strategy 1 -> node 1 for both
    c = StrategyMatrix(entries)
    p = MixedProfile.pure(np.array([0, 1]), 2)
    flow = replicator_flow(c, p, cfg, 20.0)
    assert np.max(np.abs(flow)) <= 1e-12
    profiles = integrate_replicator(c, p, cfg, 20.0, tau_end=1.0, step=0.05)
    assert np.max(np.abs(profiles[-1].rows - p.rows)) <= 1e-12


def test_replicator_rows_sum_to_zero(rng):
    for _ in range(10):
        cfg, s, c = small_instance(rng)
        p = random_profile(rng, cfg.players, cfg.strategies_per_player)
        flow = replicator_flow(c, p, cfg, 20.0)
        assert np.max(np.abs(flow.sum(axis=1))) <= 1e-12


def test_replicator_frustration_is_nonincreasing(rng):
    cfg = fig1_config(rng)
    c = draw_strategy_matrix(cfg, rng)
    p0 = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    profiles = integrate_replicator(c, p0, cfg, gamma=20.0, tau_end=2.0, step=0.01)
    values = [expected_frustration(c, p, cfg) for p in profiles[::10]]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-6)


def test_replicator_step_halving(rng):
    cfg = fig1_config(rng)
    c = draw_strategy_matrix(cfg, rng)
    p0 = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    coarse = integrate_replicator(c, p0, cfg, 20.0, tau_end=1.0, step=0.02)
    fine = integrate_replicator(c, p0, cfg, 20.0, tau_end=1.0, step=0.01)
    r_coarse = expected_frustration(c, coarse[-1], cfg)
    r_fine = expected_frustration(c, fine[-1], cfg)
    assert abs(r_coarse - r_fine) < 1e-4


def test_replicator_step_validation(rng):
    cfg, s, c = small_instance(rng)
    p = MixedProfile.uniform(cfg.players, cfg.strategies_per_player)
    with pytest.raises(ValidationError):
        integrate_replicator(c, p, cfg, 20.0, tau_end=1.0, step=0.0)


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


# -- block draws -------------------------------------------------------------

def test_bulk_decode_self_check_passes_on_installed_numpy(monkeypatch):
    # a numpy whose PCG64 internals no longer match the decode fails here,
    # instead of every run quietly drawing per call: the self-check only logs
    # its failure, which the warnings filter does not see
    assert learning._decode_checked()

    def per_call(*args):
        raise AssertionError("a PCG64 block was drawn per call")

    monkeypatch.setattr(learning, "_replay", per_call)
    for signal_count in (1, 2, 3, 50):
        for buffered in (0, 1):
            rng = np.random.default_rng(signal_count)
            if buffered:
                rng.integers(2)
            learning._draw_block(rng, signal_count, np.empty((7, 5)))


@pytest.mark.parametrize("signal_count", [1, 2, 3, 50, 2000, 3 * 10**9])
@pytest.mark.parametrize("buffered", [0, 1])
@pytest.mark.parametrize("rounds", [0, 1, 7, 10])
def test_block_draws_equal_per_call_draws(signal_count, buffered, rounds):
    fast, slow = np.random.default_rng(17), np.random.default_rng(17)
    for rng in (fast, slow)[:2 * buffered]:
        rng.integers(2)   # leaves the high half of a word buffered
    assert fast.bit_generator.state["has_uint32"] == buffered
    got, want = np.empty((rounds, 6)), np.empty((rounds, 6))
    signals = learning._draw_block(fast, signal_count, got)
    expected = []
    for t in range(rounds):
        expected.append(int(slow.integers(signal_count)))
        slow.random(out=want[t])
    assert signals.tolist() == expected
    assert got.tobytes() == want.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def test_lemire_rejection_replays_the_block():
    # at M = 3e9 about 30% of 32-bit draws land in the rejection zone
    rng = np.random.default_rng(17)
    before = rng.bit_generator.state
    assert learning._decode(rng.bit_generator, 3 * 10**9, np.empty((10, 6))) is None
    assert rng.bit_generator.state == before


# -- convergence -------------------------------------------------------------

def test_detect_convergence_one_hot_rows(rng):
    # one strategy each: every row is one-hot from the first round, so the run
    # stops at the first check, after 2 * window rounds
    cfg, s, c = small_instance(rng, players=4, strategies=1)
    result = run(cfg, LearningConfig(iterations=500), seed=1, matrix=c,
                 convergence=ConvergenceSettings(window=50, check_every=50))
    assert result.converged and result.state.iteration == 100
    assert len(result.trajectory) == 100
    assert np.all(result.trajectory.purities == 1.0)


def test_detect_convergence_gamma_zero_plateaus():
    # a flat trace is not convergence: at gamma = 0 purity stays 1/S, so the
    # run plays every round although its trace plateaus near 1
    cfg = fig1_config(uniform=True)
    result = run(cfg, LearningConfig(gamma=0.0, iterations=3000), seed=4,
                 convergence=ConvergenceSettings(window=500, check_every=100))
    assert not result.converged and result.state.iteration == 3000
    assert result.trajectory.purities[-1] == pytest.approx(0.5)     # 1/S, never pure
    assert result.trajectory.frustrations[-500:].mean() == pytest.approx(1.0, abs=0.15)


def test_detect_convergence_fig1_style():
    # checked every 100 iterations one player stays at purity 0.5, so the run
    # plays all 2000 rounds unconverged, with a low final plateau
    rng = np.random.default_rng(20)
    cfg = fig1_config(rng)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=2000), seed=20,
                 convergence=ConvergenceSettings(window=200, check_every=100))
    assert not result.converged and result.state.iteration == 2000
    assert result.trajectory.frustrations[-200:].mean() < 0.3


def test_detect_convergence_requires_window(rng):
    # no check before 2 * window rounds: pure rows play on until then
    cfg, s, c = small_instance(rng, players=4, strategies=1)
    result = run(cfg, LearningConfig(iterations=99), seed=1, matrix=c,
                 convergence=ConvergenceSettings(window=50, check_every=10))
    assert not result.converged and result.state.iteration == 99


def test_early_stop_on_purity():
    # at this seed no player holds two identical strategies, so play can purify
    rng = np.random.default_rng(45)
    cfg = fig1_config(rng)
    result = run(cfg, LearningConfig(gamma=20.0, iterations=8000), seed=45,
                 convergence=ConvergenceSettings(window=200, check_every=100))
    assert result.converged
    assert result.state.iteration < 8000
    assert result.trajectory.purities[-1] >= PURITY_THRESHOLD


def _staggered_game(seed):
    """(config, simplex, matrix) of a 30-player game; over seeds 0-7 the purity
    stops under window 100 and check_every 50 fall at five different checks."""
    return small_instance(np.random.default_rng(seed), players=30, nodes=5,
                          signals=1 + 3 * (seed % 4), strategies=2)


def test_stops_at_the_first_pure_check():
    # the stop read off a full-length run: the first check round t (a multiple
    # of check_every, t >= 2 * window) whose recorded purity reaches the threshold
    window, every, t_max = 100, 50, 1500
    games, expected = [], []
    for seed in range(8):
        cfg, s, c = _staggered_game(seed)
        purities = run(cfg, LearningConfig(iterations=t_max), seed, matrix=c).trajectory.purities
        checks = [t for t in range(2 * window, t_max + 1, every)
                  if purities[t - 1] >= PURITY_THRESHOLD]
        expected.append(checks[0] if checks else t_max)
        games.append((cfg, c, np.random.default_rng(seed)))
    results = learning.run_lockstep(games, LearningConfig(iterations=t_max),
                                    ConvergenceSettings(window=window, check_every=every))
    assert [r.state.iteration for r in results] == expected
    assert [r.converged for r in results] == [t < t_max for t in expected]
    assert len(set(expected)) >= 3    # rows leave the batch at different checks


def test_compacted_batch_keeps_every_rows_record():
    # rows leave the batch at different checks, one plays to t_max; each row's
    # record is the one its lone run writes, bit for bit
    learn = LearningConfig(iterations=1500)
    convergence = ConvergenceSettings(window=100, check_every=50)
    instances = [_staggered_game(seed) for seed in range(8)]
    batch = learning.run_lockstep([(cfg, c, np.random.default_rng(seed))
                                   for seed, (cfg, _, c) in enumerate(instances)],
                                  learn, convergence)
    stops = [r.state.iteration for r in batch]
    assert len(set(stops) - {learn.iterations}) >= 3 and learn.iterations in stops
    for seed, ((cfg, s, c), got) in enumerate(zip(instances, batch)):
        alone = run(cfg, learn, seed, matrix=c, convergence=convergence)
        assert (got.state.iteration, got.converged) == (alone.state.iteration, alone.converged)
        for name in ("signals", "frustrations", "purities"):
            assert getattr(got.trajectory, name).tobytes() == \
                getattr(alone.trajectory, name).tobytes()
        assert got.state.scores.tobytes() == alone.state.scores.tobytes()
        assert got.state.probabilities.tobytes() == alone.state.probabilities.tobytes()
