import numpy as np
import pytest

from simplexgame import (BudgetError, ExperimentConfig, GameConfig, MixedProfile,
                         StrategyMatrix, StrengthDistribution, ValidationError,
                         build_simplex, draw_strategy_matrix, expected_frustration,
                         learning, random_baseline, resolve_bets, reward_vector, run,
                         strategy_payoffs)
from simplexgame.learning import PURITY_THRESHOLD, Lockstep

from conftest import play_round, random_profile, small_instance
from references import integrate_replicator, replicator_flow, softmax_probabilities

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
        nodes, counts = resolve_bets(c, m, choices, cfg)
        b = counts @ s.vertices
        payoffs = 1.0 - counts[nodes] / (
            cfg.strengths.weights[nodes] * cfg.players)
        for i in range(cfg.players):
            w = reward_vector(c, m, choices, b, i, cfg)
            assert w[choices[i]] == pytest.approx(payoffs[i] / cfg.signals, abs=1e-12)


def test_reward_dual_form_agreement(rng):
    # bracket formula vs full re-resolution of the swapped round
    for _ in range(50):
        cfg, s, c = small_instance(rng)
        choices = rng.integers(0, cfg.strategies_per_player, cfg.players)
        m = int(rng.integers(cfg.signals))
        _, counts = resolve_bets(c, m, choices, cfg)
        b = counts @ s.vertices
        i = int(rng.integers(cfg.players))
        w = reward_vector(c, m, choices, b, i, cfg)
        for strat in range(cfg.strategies_per_player):
            swapped = choices.copy()
            swapped[i] = strat
            nodes2, counts2 = resolve_bets(c, m, swapped, cfg)
            node = nodes2[i]
            u = 1.0 - counts2[node] / (cfg.strengths.weights[node] * cfg.players)
            assert w[strat] == pytest.approx(u / cfg.signals, abs=1e-12)


def test_reward_single_player_example():
    cfg = GameConfig(players=1, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    s = build_simplex(cfg.strengths)
    c = StrategyMatrix(np.array([[[0]]], dtype=np.uint8))
    choices = np.array([0])
    _, counts = resolve_bets(c, 0, choices, cfg)
    w = reward_vector(c, 0, choices, counts @ s.vertices, 0, cfg)
    assert w[0] == pytest.approx(-1.0)


def test_reward_vector_rejects_a_table_of_another_game():
    y = StrengthDistribution(np.array([0.5, 0.3, 0.2]))
    cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2, strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    choices = np.zeros(cfg.players, dtype=np.int64)
    _, counts = resolve_bets(c, 0, choices, cfg)
    b = counts @ build_simplex(y).vertices
    w = reward_vector(c, 0, choices, b, 0, cfg)
    assert w == pytest.approx([-1 / 3, 0.25], abs=1e-12)
    entries = c.entries.copy()
    entries[0, 1, 0] = 3   # one past the last node
    for table in (StrategyMatrix(entries), StrategyMatrix(c.entries[:, :, :1])):
        with pytest.raises(ValidationError):
            reward_vector(table, 0, choices, b, 0, cfg)
    # the player and the round are checked, not wrapped or truncated
    for signal, round_choices, i, message in (
            (0, choices, -1, "player -1 out of range"),
            (0, choices, 4, "player 4 out of range"),
            (0, choices, 1.0, "player must be an integer"),
            (0, choices, True, "player must be an integer"),
            (0.5, choices, 0, "signal must be an integer"),
            (2, choices, 0, "signal 2 out of range"),
            (0, choices.astype(float), 0, "choices must be integers")):
        with pytest.raises(ValidationError, match=message):
            reward_vector(c, signal, round_choices, b, i, cfg)


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
    batch = Lockstep([(cfg, c, rng)], 20.0)
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
        result = run(cfg, seed, gamma=0.0, iterations=2000)
        assert np.allclose(result.probabilities, 0.5)
        means.append(np.mean(result.frustrations))
    assert np.mean(means) == pytest.approx(1.0, abs=0.1)


def test_run_deterministic_trajectories():
    cfg = fig1_config(uniform=True)
    a = run(cfg, 123, gamma=20.0, iterations=400)
    b = run(cfg, 123, gamma=20.0, iterations=400)
    assert a.frustrations.tobytes() == b.frustrations.tobytes()
    assert a.signals.tobytes() == b.signals.tobytes()
    assert a.matrix.entries.tobytes() == b.matrix.entries.tobytes()


def _rate_checks(game):
    """Every place a learning rate is taken: play, its state, an experiment."""
    return (lambda gamma: learning.run_lockstep([game], gamma, 10),
            lambda gamma: Lockstep([game], gamma),
            lambda gamma: ExperimentConfig(players=5, nodes=3, strategies=2, gamma=gamma))


def test_learning_settings_validation():
    cfg = fig1_config(uniform=True)
    rng = np.random.default_rng(0)
    game = (cfg, draw_strategy_matrix(cfg, rng), rng)
    for bad in (dict(check_every=0), dict(window=0), dict(check_every=-5)):
        with pytest.raises(ValidationError, match="must be >= "):
            learning.run_lockstep([game], 20.0, 10, **(dict(check_every=10, window=1) | bad))
    with pytest.raises(ValidationError, match="check_every needs a window"):
        learning.run_lockstep([game], 20.0, 10, check_every=10)
    for gamma in (np.nan, np.inf, -1.0):
        for check in _rate_checks(game):
            with pytest.raises(ValidationError, match="learning rates must be finite and >= 0"):
                check(gamma)
    with pytest.raises(ValidationError, match="iterations must be >= 0"):
        learning.run_lockstep([game], 20.0, -1)
    for gamma in (np.nan, [1.0, 5.0, 9.0], np.ones((2, 1))):
        with pytest.raises(ValidationError):
            softmax_probabilities(np.array([1.0, 0.0]), gamma)


def test_gamma_is_one_rate():
    # every player learns at one rate: an array, even of one element or of
    # one rate per player, is refused wherever a rate is taken
    cfg = GameConfig(players=5, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    rng = np.random.default_rng(0)
    game = (cfg, draw_strategy_matrix(cfg, rng), rng)
    for gamma in (np.full(5, 3.0), np.full((1, 1), 3.0), np.array(3.0), [3.0], "3", True):
        for check in (*_rate_checks(game),
                      lambda gamma: softmax_probabilities(np.array([1.0, 0.0]), gamma)):
            with pytest.raises(ValidationError, match="gamma must be one learning rate"):
                check(gamma)
    for gamma in (3, 3.0, np.float32(3.0), np.int64(3)):
        assert Lockstep([game], gamma).rate == 3.0
        result = run(cfg, 1, gamma=gamma, iterations=5)
        assert len(result.frustrations) == 5


def test_run_rejects_mismatched_matrix():
    cfg = fig1_config(uniform=True)
    learn = dict(gamma=20.0, iterations=5)
    wrong_shape = StrategyMatrix(np.zeros((cfg.players, 2, cfg.signals + 1), dtype=np.uint8))
    with pytest.raises(ValidationError):
        run(cfg, 1, matrix=wrong_shape, **learn)
    entries = np.zeros((cfg.players, 2, cfg.signals), dtype=np.uint8)
    entries[3, 1, 0] = cfg.nodes  # one past the last node
    with pytest.raises(ValidationError):
        run(cfg, 1, matrix=StrategyMatrix(entries), **learn)
    entries[3, 1, 0] = cfg.nodes - 1
    assert len(run(cfg, 1, matrix=StrategyMatrix(entries), **learn).frustrations) == 5


def test_run_lockstep_rejects_a_matrix_that_does_not_fit_its_game():
    cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.3, 0.2])))
    good = draw_strategy_matrix(cfg, np.random.default_rng(0))
    entries = np.array(good.entries)
    entries[0] = 4   # player 0 always plays a node of no 3-node game
    # unchecked, the bad first table rewrote the second realization's trace:
    # node 4 of row 0 is node 1 of row 1 in the batch's (K, B) counts
    games = [(cfg, StrategyMatrix(entries), np.random.default_rng(1)),
             (cfg, good, np.random.default_rng(2))]
    with pytest.raises(ValidationError, match="holds node 4 of a 3-node game"):
        learning.run_lockstep(games, 20.0, 5)
    one_signal = StrategyMatrix(np.zeros((4, 2, 1), dtype=np.uint8))   # M = 1, config says 2
    with pytest.raises(ValidationError, match="does not fit"):
        learning.run_lockstep([(cfg, one_signal, np.random.default_rng(1))], 20.0, 5)
    alone = run(cfg, 2, gamma=20.0, iterations=5, matrix=good)
    both = learning.run_lockstep([(cfg, good, np.random.default_rng(1)),
                                  (cfg, good, np.random.default_rng(2))], 20.0, 5)
    assert both[1].frustrations.tobytes() == alone.frustrations.tobytes()


@pytest.mark.parametrize("case", ["empty", "players", "strategies", "nodes", "node", "shape"])
def test_lockstep_checks_the_games_it_is_given(case):
    # `Lockstep` raises run_lockstep's message for a batch it cannot play, not
    # an IndexError, a numpy shape error or a broadcast failure in play_block
    def game(players=2, strategies=2, nodes=2, signals=2):
        cfg = GameConfig(players=players, nodes=nodes, signals=signals,
                         strategies_per_player=strategies,
                         strengths=StrengthDistribution.uniform(nodes))
        rng = np.random.default_rng(0)
        return cfg, draw_strategy_matrix(cfg, rng), rng

    lone = game()
    games, message = {
        "empty": ([], r"must share N, S and B, got \[\]"),
        "players": ([lone, game(players=3)], "must share N, S and B"),
        "strategies": ([lone, game(strategies=3)], "must share N, S and B"),
        "nodes": ([lone, game(nodes=3)], "must share N, S and B"),
        "node": ([(lone[0], StrategyMatrix(np.full((2, 2, 2), 2, dtype=np.uint8)), lone[2])],
                 "holds node 2 of a 2-node game"),
        "shape": ([(lone[0], game(signals=3)[1], lone[2])], "does not fit"),
    }[case]
    for start in (lambda: Lockstep(games, 20.0), lambda: learning.run_lockstep(games, 20.0, 5)):
        with pytest.raises(ValidationError, match=message):
            start()


def test_run_zero_iterations():
    cfg = fig1_config(uniform=True)
    result = run(cfg, 1, gamma=20.0, iterations=0)
    assert len(result.frustrations) == 0
    assert np.all(result.scores == 0.0)


def test_run_converges_to_low_frustration():
    # trace starts near 1 and finds a low plateau within 2000 iterations
    rng = np.random.default_rng(77)
    cfg = fig1_config(rng)
    result = run(cfg, 77, gamma=20.0, iterations=2000)
    r = result.frustrations
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
    r_t = random_baseline(cfg, seed=11, iterations=10**4)
    assert r_t.shape == (10**4,)
    assert np.mean(r_t) == pytest.approx(1.0, abs=0.05)


def test_random_baseline_two_player_binary():
    # outcomes: split (R=0, prob 1/2) or pile-up (R=2, prob 1/2)
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    r_t = random_baseline(cfg, seed=2, iterations=4000)
    values = set(np.round(r_t, 12))
    assert values <= {0.0, 2.0}
    frac_zero = np.mean(r_t == 0.0)
    assert frac_zero == pytest.approx(0.5, abs=4 * 0.5 / np.sqrt(4000))


def test_random_baseline_mean_one_even_for_skewed_strengths():
    # strength-weighted picks balance the weighted simplex for any strengths
    cfg = GameConfig(players=50, nodes=2, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution(np.array([0.9, 0.1])))
    r_t = random_baseline(cfg, seed=3, iterations=10**4)
    assert np.mean(r_t) == pytest.approx(1.0, abs=0.06)


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

def _checked_run(cfg, seed, gamma, iterations, check_every, window, matrix=None):
    """A lone game played with purity checks: the seed's generator draws the
    table (unless one is given) and then plays, as in `run`."""
    rng = np.random.default_rng(seed)
    if matrix is None:
        matrix = draw_strategy_matrix(cfg, rng)
    return learning.run_lockstep([(cfg, matrix, rng)], gamma, iterations,
                                 check_every, window)[0]


def test_detect_convergence_one_hot_rows(rng):
    # one strategy each: every row is one-hot from the first round, so the run
    # stops at the first check, after 2 * window rounds, holding the last window
    cfg, s, c = small_instance(rng, players=4, strategies=1)
    result = _checked_run(cfg, 1, 20.0, 500, 50, 50, matrix=c)
    assert result.converged and result.iterations == 100
    assert len(result.purities) == 50
    assert np.all(result.purities == 1.0)


def test_detect_convergence_gamma_zero_plateaus():
    # a flat trace is not convergence: at gamma = 0 purity stays 1/S, so the
    # run plays every round although its trace plateaus near 1
    cfg = fig1_config(uniform=True)
    result = _checked_run(cfg, 4, 0.0, 3000, 100, 500)
    assert not result.converged and result.iterations == 3000
    assert result.purities[-1] == pytest.approx(0.5)     # 1/S, never pure
    assert result.frustrations[-500:].mean() == pytest.approx(1.0, abs=0.15)


def test_detect_convergence_fig1_style():
    # checked every 100 iterations one player stays at purity 0.5, so the run
    # plays all 2000 rounds unconverged, with a low final plateau
    rng = np.random.default_rng(20)
    cfg = fig1_config(rng)
    result = _checked_run(cfg, 20, 20.0, 2000, 100, 200)
    assert not result.converged and result.iterations == 2000
    assert result.frustrations[-200:].mean() < 0.3


def test_detect_convergence_requires_window(rng):
    # no check before 2 * window rounds: pure rows play on until then
    cfg, s, c = small_instance(rng, players=4, strategies=1)
    result = _checked_run(cfg, 1, 20.0, 99, 10, 50, matrix=c)
    assert not result.converged and result.iterations == 99


def test_early_stop_on_purity():
    # at this seed no player holds two identical strategies, so play can purify
    rng = np.random.default_rng(45)
    cfg = fig1_config(rng)
    result = _checked_run(cfg, 45, 20.0, 8000, 100, 200)
    assert result.converged
    assert result.iterations < 8000
    assert result.purities[-1] >= PURITY_THRESHOLD


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
        purities = run(cfg, seed, gamma=20.0, iterations=t_max, matrix=c).purities
        checks = [t for t in range(2 * window, t_max + 1, every)
                  if purities[t - 1] >= PURITY_THRESHOLD]
        expected.append(checks[0] if checks else t_max)
        games.append((cfg, c, np.random.default_rng(seed)))
    results = learning.run_lockstep(games, 20.0, t_max, every, window)
    assert [r.iterations for r in results] == expected
    assert [r.converged for r in results] == [t < t_max for t in expected]
    assert len(set(expected)) >= 3    # rows leave the batch at different checks


def test_compacted_batch_keeps_every_rows_record():
    # rows leave the batch at different checks, one plays to t_max; each row's
    # record is the one its lone run writes, bit for bit
    t_max, checks = 1500, dict(check_every=50, window=100)
    instances = [_staggered_game(seed) for seed in range(8)]
    batch = learning.run_lockstep([(cfg, c, np.random.default_rng(seed))
                                   for seed, (cfg, _, c) in enumerate(instances)],
                                  20.0, t_max, **checks)
    stops = [r.iterations for r in batch]
    assert len(set(stops) - {t_max}) >= 3 and t_max in stops
    for seed, ((cfg, s, c), got) in enumerate(zip(instances, batch)):
        alone = _checked_run(cfg, seed, 20.0, t_max, matrix=c, **checks)
        assert (got.iterations, got.converged) == (alone.iterations, alone.converged)
        for name in ("signals", "frustrations", "purities", "scores", "probabilities"):
            assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()


def test_tail_holds_the_last_rounds_of_the_full_record():
    # unchecked, 1500 rounds are played in sub-blocks of 1092, so a record of
    # the last `window` rounds wraps; it is the end of the full record, bit
    # for bit, and play is unchanged.  Checked, the staggered rows stop at
    # five different checks and one plays to t_max, and each holds the end of
    # an unchecked run of its own length
    t_max = 1500
    instances = [_staggered_game(seed) for seed in range(8)]

    def play(rounds, rows=range(8), **checks):
        return learning.run_lockstep([(cfg, c, np.random.default_rng(seed)) for seed, (cfg, _, c)
                                      in enumerate(instances) if seed in rows],
                                     20.0, rounds, **checks)

    def assert_tail(got, want, held):
        assert got.iterations == want.iterations
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert len(got.signals) == held
        for name in ("signals", "frustrations", "purities"):
            assert getattr(got, name).tobytes() == getattr(want, name)[-held:].tobytes()

    full = play(t_max)
    assert len(full[0].signals) == t_max
    for window in (1, 37, 50, 100, 160, 2000):
        for got, want in zip(play(t_max, window=window), full):
            assert not got.converged
            assert_tail(got, want, min(window, t_max))
    stopped = play(t_max, check_every=50, window=100)
    stops = [r.iterations for r in stopped]
    assert len(set(stops)) == 6 and t_max in stops
    for seed, got in enumerate(stopped):
        assert got.converged == (got.iterations < t_max)
        assert_tail(got, play(got.iterations, rows=[seed])[0], 100)


def test_lockstep_budget_checks_the_reward_table():
    # four games of 10^7 players on 255 nodes would need an 80 GB reward
    # table: refused before any array of the batch is allocated
    n = 10**7
    cfg = GameConfig(players=n, nodes=255, signals=1, strategies_per_player=1,
                     strengths=StrengthDistribution.uniform(255))
    c = StrategyMatrix(np.zeros((n, 1, 1), dtype=np.uint8))
    with pytest.raises(BudgetError, match="reward table"):
        Lockstep([(cfg, c, np.random.default_rng(k)) for k in range(4)], 20.0)
