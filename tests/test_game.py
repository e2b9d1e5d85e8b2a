import numpy as np
import pytest

from simplexgame import (BudgetError, GameConfig, MixedProfile, Simplex, StrategyMatrix,
                         StrengthDistribution, ValidationError, build_simplex,
                         draw_strategy_matrix, errors, expected_frustration, game,
                         load_strategy_matrix, resolve_bets, save_strategy_matrix,
                         strategy_payoffs)

from conftest import random_profile, random_proper_strengths, small_instance
from references import (aggregate_bet, correlated_payoff, instantaneous_frustration,
                        mean_bet_frustration, mixed_correlated_payoff, payoff_linear,
                        signal_loop_payoffs)


def binary_config(players, signals=1, strategies=1):
    return GameConfig(players=players, nodes=2, signals=signals,
                      strategies_per_player=strategies,
                      strengths=StrengthDistribution(np.array([0.5, 0.5])))


def test_config_validation():
    y = StrengthDistribution.uniform(3)
    with pytest.raises(ValidationError):
        GameConfig(players=0, nodes=3, signals=1, strategies_per_player=1, strengths=y)
    with pytest.raises(ValidationError, match="^signals must be >= 1"):
        GameConfig(players=2, nodes=3, signals=0, strategies_per_player=1, strengths=y)
    with pytest.raises(ValidationError, match="^strategies_per_player must be >= 1"):
        GameConfig(players=2, nodes=3, signals=1, strategies_per_player=0, strengths=y)
    with pytest.raises(ValidationError):
        GameConfig(players=2, nodes=2, signals=1, strategies_per_player=1, strengths=y)
    with pytest.raises(ValidationError):
        GameConfig(players=2, nodes=256, signals=1, strategies_per_player=1,
                   strengths=StrengthDistribution.uniform(256))


def test_config_rejects_strengths_whose_count_space_terms_overflow():
    # efficiencies 1, 2, 1e308 are finite strengths (1e-308, 2e-308, 1.0), but
    # M (N + 1)^2 / y_r is not: play overflowed to R_t = inf and NaN probabilities
    y = StrengthDistribution.from_efficiencies((1.0, 2.0, 1e308))
    with pytest.raises(ValidationError, match="strengths down to 1e-308 overflow"):
        GameConfig(players=3, nodes=3, signals=3, strategies_per_player=2, strengths=y)
    weak = StrengthDistribution(np.array([1e-290, 1.0]))
    GameConfig(players=999, nodes=2, signals=1000, strategies_per_player=1, strengths=weak)
    with pytest.raises(ValidationError, match="strengths"):   # an int too large for a float
        GameConfig(players=10**400, nodes=2, signals=1, strategies_per_player=1,
                   strengths=StrengthDistribution.uniform(2))


def test_training_parameter_is_derived():
    cfg = GameConfig(players=50, nodes=2, signals=7, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(2))
    assert cfg.training_parameter == 7 / 50


def test_config_from_efficiencies():
    y = StrengthDistribution.from_efficiencies((1.06, 3.91, 11.0, 14.1))
    cfg = GameConfig(players=50, nodes=y.node_count, signals=10, strategies_per_player=2,
                     strengths=y)
    assert cfg.nodes == 4
    assert cfg.strengths.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert cfg.strengths.weights[3] == pytest.approx(14.1 / 30.07)


def test_draw_determinism():
    cfg = binary_config(players=10, signals=4, strategies=3)
    a = draw_strategy_matrix(cfg, np.random.default_rng(99)).entries
    b = draw_strategy_matrix(cfg, np.random.default_rng(99)).entries
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [game.TABLE_BLOCK, 7])
@pytest.mark.parametrize("players,strategies,signals,nodes", [
    (10, 3, 4, 2), (6, 2, 1, 2), (1, 1, 1, 5), (40, 2, 25, 5), (13, 4, 3, 10),
    (9, 2, 40, "max-nodes"), (30, 3, 50, "uneven"),
])
def test_draw_matches_rng_choice(monkeypatch, block, players, strategies, signals, nodes):
    # same entries and generator state as one rng.choice over (N, S, M), for any block
    # size, up to B = MAX_NODES and with explicit, very uneven strengths
    monkeypatch.setattr(game, "TABLE_BLOCK", block)
    if nodes == "max-nodes":
        y = StrengthDistribution(np.random.default_rng(3).dirichlet(np.ones(game.MAX_NODES)))
    elif nodes == "uneven":
        y = StrengthDistribution(np.array([1e-6, 0.25, 0.5 - 2e-6, 1e-6, 0.25]))
    else:
        y = StrengthDistribution.random_proper(nodes, np.random.default_rng(nodes))
    nodes = y.node_count
    cfg = GameConfig(players=players, nodes=nodes, signals=signals,
                     strategies_per_player=strategies, strengths=y)
    ref_rng, rng = np.random.default_rng(17), np.random.default_rng(17)
    ref = ref_rng.choice(nodes, size=(players, strategies, signals), p=y.weights)
    assert np.array_equal(draw_strategy_matrix(cfg, rng).entries, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("weights,expect", [([0.5, 0.5], 0.5), ([0.9, 0.1], 0.1)])
def test_draw_frequencies(weights, expect):
    # binomial oracle: empirical frequency within 4 sigma of its target
    y = StrengthDistribution(np.array(weights))
    cfg = GameConfig(players=100, nodes=2, signals=100, strategies_per_player=10,
                     strengths=y)
    entries = draw_strategy_matrix(cfg, np.random.default_rng(4)).entries
    count = entries.size  # 10^5 entries
    freq = (entries == 1).mean()
    sigma = np.sqrt(expect * (1 - expect) / count)
    assert abs(freq - expect) <= 4 * sigma


def test_resolve_bets_counting():
    cfg = binary_config(players=3, signals=1, strategies=1)
    entries = np.array([[[0]], [[0]], [[1]]], dtype=np.uint8)
    c = StrategyMatrix(entries)
    nodes, counts = resolve_bets(c, 0, np.zeros(3, dtype=int), cfg)
    assert list(nodes) == [0, 0, 1]
    assert list(counts) == [2, 1]
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert list(resolve_bets(c, np.int64(0), [0, 0, 0], cfg)[1]) == [2, 1]
    # a float, NaN or bool signal or choice is refused, never truncated
    for signal, choices, message in (
            (1, np.zeros(3, dtype=int), "signal 1 out of range"),
            (-1, np.zeros(3, dtype=int), "signal -1 out of range"),
            (0.5, np.zeros(3, dtype=int), "signal must be an integer"),
            (0.0, np.zeros(3, dtype=int), "signal must be an integer"),
            (True, np.zeros(3, dtype=int), "signal must be an integer"),
            (np.nan, np.zeros(3, dtype=int), "signal must be an integer"),
            (0, np.array([0, 1, 0]), "choices out of range"),
            (0, np.array([0, -1, 0]), "choices out of range"),
            (0, np.zeros(2, dtype=int), "choices out of range"),
            (0, np.zeros((1, 3), dtype=int), "choices out of range"),
            (0, np.array([0.9, 0.2, 0.0]), "choices must be integers"),
            (0, np.array([0.0, np.nan, 0.0]), "choices must be integers"),
            (0, np.zeros(3, dtype=bool), "choices must be integers")):
        with pytest.raises(ValidationError, match=message):
            resolve_bets(c, signal, choices, cfg)


def test_resolve_bets_single_player():
    c = StrategyMatrix(np.array([[[1]]], dtype=np.uint8))
    _, counts = resolve_bets(c, 0, np.array([0]), binary_config(players=1))
    assert list(counts) == [0, 1]


def test_resolve_bets_all_on_one_node():
    n = 5
    c = StrategyMatrix(np.zeros((n, 2, 3), dtype=np.uint8))
    cfg = GameConfig(players=n, nodes=4, signals=3, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(4))
    _, counts = resolve_bets(c, 2, np.ones(n, dtype=int), cfg)
    assert list(counts) == [n, 0, 0, 0]


def test_aggregate_bet_nash_allocation_is_zero():
    y = StrengthDistribution(np.array([0.5, 0.25, 0.25]))
    s = build_simplex(y)
    b = aggregate_bet(np.array([2, 1, 1]), s)
    assert np.linalg.norm(b) <= 1e-10


def test_aggregate_bet_binary_scalar():
    s = build_simplex(StrengthDistribution(np.array([0.5, 0.5])))
    b = aggregate_bet(np.array([3, 1]), s)
    assert abs(abs(b[0]) - 2.0) <= 1e-12  # |N_1 - N_2| up to the global sign


def test_payoff_matches_dot_product_identity(rng):
    # -(1/N) q_r . b == 1 - N_r/(y_r N) for every node, any allocation
    for _ in range(50):
        b_nodes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 30))
        y = random_proper_strengths(rng, b_nodes)
        s = build_simplex(y)
        cfg = GameConfig(players=n, nodes=b_nodes, signals=1,
                         strategies_per_player=1, strengths=y)
        counts = rng.multinomial(n, y.weights)
        bet = aggregate_bet(counts, s)
        direct = payoff_linear(counts, cfg)
        via_dot = -(s.vertices @ bet) / n
        assert np.max(np.abs(direct - via_dot)) <= 1e-10


def test_payoff_linear_examples():
    cfg = binary_config(players=4)
    assert np.allclose(payoff_linear(np.array([2, 2]), cfg), 0.0)
    u = payoff_linear(np.array([3, 1]), cfg)
    assert u[0] == pytest.approx(-0.5)
    assert u[1] == pytest.approx(0.5)


def test_payoff_linear_empty_node_is_one():
    cfg = binary_config(players=4)
    u = payoff_linear(np.array([4, 0]), cfg)
    assert u[1] == pytest.approx(1.0)


def test_aggregate_payoff_identity(rng):
    # sum_r N_r u_r = -|b|^2 / N, maximum 0 attained iff b = 0
    for _ in range(30):
        b_nodes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        y = random_proper_strengths(rng, b_nodes)
        cfg = GameConfig(players=n, nodes=b_nodes, signals=1,
                         strategies_per_player=1, strengths=y)
        s = build_simplex(y)
        counts = rng.multinomial(n, y.weights)
        bet = aggregate_bet(counts, s)
        total = float(counts @ payoff_linear(counts, cfg))
        assert total == pytest.approx(-float(bet @ bet) / n, abs=1e-10)
        assert total <= 1e-10


def test_squared_bet_closed_form(rng):
    # |b|^2 = sum_r N_r^2 / y_r - N^2
    for _ in range(30):
        b_nodes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        y = random_proper_strengths(rng, b_nodes)
        s = build_simplex(y)
        counts = rng.multinomial(n, y.weights)
        bet = aggregate_bet(counts, s)
        closed = float(np.sum(counts.astype(float) ** 2 / y.weights) - n * n)
        assert float(bet @ bet) == pytest.approx(closed, abs=1e-8)


def test_correlated_payoff_single_signal_matches_linear():
    cfg = binary_config(players=3, signals=1, strategies=1)
    c = StrategyMatrix(np.array([[[0]], [[0]], [[1]]], dtype=np.uint8))
    profile = (0, 0, 0)
    _, counts = resolve_bets(c, 0, np.array(profile), cfg)
    u = payoff_linear(counts, cfg)
    assert correlated_payoff(c, profile, 0, cfg) == pytest.approx(u[0], abs=1e-14)
    assert correlated_payoff(c, profile, 2, cfg) == pytest.approx(u[1], abs=1e-14)


def test_correlated_payoff_single_player():
    cfg = binary_config(players=1, signals=1, strategies=1)
    c = StrategyMatrix(np.array([[[0]]], dtype=np.uint8))
    # 1 - 1/(0.5 * 1) = -1 regardless of the profile
    assert correlated_payoff(c, (0,), 0, cfg) == pytest.approx(-1.0)


def test_correlated_payoff_averages_signals(rng):
    cfg = binary_config(players=2, signals=2, strategies=2)
    c = draw_strategy_matrix(cfg, rng)
    for profile in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for i in range(2):
            per_signal = []
            for m in range(2):
                _, counts = resolve_bets(c, m, np.array(profile), cfg)
                node = c.entries[i, profile[i], m]
                per_signal.append(payoff_linear(counts, cfg)[node])
            expect = float(np.mean(per_signal))
            assert correlated_payoff(c, profile, i, cfg) == pytest.approx(expect, abs=1e-14)


def test_mixed_payoff_at_pure_equals_correlated(rng):
    for _ in range(20):
        cfg, s, c = small_instance(rng)
        profile = rng.integers(0, cfg.strategies_per_player, cfg.players)
        p = MixedProfile.pure(profile, cfg.strategies_per_player)
        for i in range(cfg.players):
            mixed = mixed_correlated_payoff(c, p, i, cfg)
            pure = correlated_payoff(c, tuple(profile), i, cfg)
            assert mixed == pytest.approx(pure, abs=1e-11)


def test_mixed_payoff_multilinear_expansion(rng):
    # N=2, S=2: brute-force sum over the 4 pure profiles weighted by p1 p2
    cfg, s, c = small_instance(rng, players=2, strategies=2)
    p = random_profile(rng, 2, 2)
    for i in range(2):
        expect = 0.0
        for s1 in range(2):
            for s2 in range(2):
                w = p.rows[0, s1] * p.rows[1, s2]
                expect += w * correlated_payoff(c, (s1, s2), i, cfg)
        got = mixed_correlated_payoff(c, p, i, cfg)
        assert got == pytest.approx(expect, abs=1e-12)


def test_mixed_payoff_permutation_invariance(rng):
    cfg, s, c = small_instance(rng, players=3, strategies=3)
    p = random_profile(rng, 3, 3)
    i = 1
    base = mixed_correlated_payoff(c, p, i, cfg)
    perm = [2, 0, 1]
    entries = np.array(c.entries)
    entries[i] = entries[i][perm]
    c2 = StrategyMatrix(entries)
    rows = p.rows.copy()
    rows[i] = rows[i][perm]
    p2 = MixedProfile(rows)
    assert mixed_correlated_payoff(c2, p2, i, cfg) == pytest.approx(base, abs=1e-12)


def test_strategy_payoffs_row_mix_identity(rng):
    cfg, s, c = small_instance(rng)
    p = random_profile(rng, cfg.players, cfg.strategies_per_player)
    table = strategy_payoffs(c, p, cfg)
    for i in range(cfg.players):
        assert float(p.rows[i] @ table[i]) == pytest.approx(
            mixed_correlated_payoff(c, p, i, cfg), abs=1e-12)


def test_payoffs_reject_a_profile_or_game_of_another_shape():
    cfg = GameConfig(players=4, nodes=3, signals=5, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    c = draw_strategy_matrix(cfg, np.random.default_rng(8))
    assert c.entries.max() == 2
    p = MixedProfile.uniform(4, 2)
    cases = [
        (c, MixedProfile(np.array([[0.3, 0.7]])), cfg),    # one row, once broadcast
        (c, MixedProfile(np.full((4, 3), 1 / 3)), cfg),    # a third strategy
        (c, p, GameConfig(players=9, nodes=3, signals=5, strategies_per_player=2,
                          strengths=cfg.strengths)),        # config says N = 9
        (c, p, GameConfig(players=4, nodes=3, signals=6, strategies_per_player=2,
                          strengths=cfg.strengths)),        # config says M = 6
        (c, p, GameConfig(players=4, nodes=2, signals=5, strategies_per_player=2,
                          strengths=StrengthDistribution.uniform(2))),   # config says B = 2
        (StrategyMatrix(np.full((4, 2, 5), 3)), p, cfg),    # node 3 of a 3-node game
    ]
    for args in cases:
        for evaluate in (strategy_payoffs, expected_frustration):
            with pytest.raises(ValidationError):
                evaluate(*args)
    with pytest.raises(ValidationError, match="profile has shape"):
        strategy_payoffs(c, MixedProfile(np.array([[0.3, 0.7]])), cfg)


@pytest.mark.parametrize("row", [[np.nan, 0.5], [2.0, -1.0], [0.9, 0.9]],
                         ids=["nan", "negative", "sum-above-1"])
def test_payoffs_check_raw_rows_as_a_profile(row):
    # raw (N, S) rows once skipped every profile check and gave numbers (or NaN);
    # the payoffs take a MixedProfile only, which checks the rows
    cfg = GameConfig(players=2, nodes=2, signals=3, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(2))
    c = draw_strategy_matrix(cfg, np.random.default_rng(3))
    with pytest.raises(ValidationError, match="profile"):
        strategy_payoffs(c, MixedProfile(np.array([row, [0.5, 0.5]])), cfg)


@pytest.mark.parametrize("players,strategies,signals", [
    (1, 2, 400), (5, 1, 30), (13, 2, 9), (6, 4, 25), (20, 2, 1), (1, 1, 1), (300, 2, 300),
])
def test_payoffs_do_not_depend_on_the_block_size(monkeypatch, players, strategies, signals):
    rng = np.random.default_rng(players * strategies + signals)
    y = StrengthDistribution(rng.dirichlet(np.ones(4)))
    cfg = GameConfig(players=players, nodes=4, signals=signals,
                     strategies_per_player=strategies, strengths=y)
    c = draw_strategy_matrix(cfg, rng)
    p = MixedProfile(rng.dirichlet(np.ones(strategies), size=players))
    reference = signal_loop_payoffs(c, p.rows, cfg).tobytes()
    frustrations = set()
    for block in (7, game.TABLE_BLOCK, 2 * c.entries.size):
        monkeypatch.setattr(game, "TABLE_BLOCK", block)
        assert strategy_payoffs(c, p, cfg).tobytes() == reference   # a per-signal loop
        frustrations.add(np.float64(expected_frustration(c, p, cfg)).tobytes())
    assert len(frustrations) == 1


def test_instantaneous_frustration_examples():
    cfg = binary_config(players=4)
    s = build_simplex(cfg.strengths)
    assert instantaneous_frustration(np.array([2, 2]), s, cfg) == 0.0
    assert instantaneous_frustration(np.array([3, 1]), s, cfg) == pytest.approx(1.0)


def test_instantaneous_frustration_mean_is_one(rng):
    # i.i.d. strength-weighted node picks give mean R_t = 1
    y = StrengthDistribution(np.array([0.2, 0.5, 0.3]))
    cfg = GameConfig(players=30, nodes=3, signals=1, strategies_per_player=1,
                     strengths=y)
    s = build_simplex(y)
    vals = []
    for _ in range(4000):
        counts = rng.multinomial(cfg.players, y.weights)
        vals.append(instantaneous_frustration(counts, s, cfg))
    assert np.mean(vals) == pytest.approx(1.0, abs=0.06)


def test_profile_and_strength_counts_are_checked():
    for call, message in (
            (lambda: StrengthDistribution.uniform(2.5), "node_count must be an integer"),
            (lambda: StrengthDistribution.uniform(1), "node_count must be >= 2"),
            (lambda: StrengthDistribution.random_proper(3.0, np.random.default_rng(0)),
             "node_count must be an integer"),
            (lambda: MixedProfile.uniform(2.5, 2), "players must be an integer"),
            (lambda: MixedProfile.uniform(2, 0), "strategies must be >= 1"),
            (lambda: MixedProfile.pure([0, 1], 1.0), "strategies must be an integer")):
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()


def test_pure_profile_refuses_choices_it_would_truncate_or_wrap():
    assert MixedProfile.pure(np.array([1, 0]), 2).rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    for choices, message in (([1.9, 0.2], "choices must be integers"),
                             ([-1, 0], "choices out of range"),
                             ([2, 0], "choices out of range"),
                             ([[0, 1]], "choices out of range"),
                             ([True, False], "choices must be integers")):
        with pytest.raises(ValidationError, match=message):
            MixedProfile.pure(choices, 2)


def test_resolve_bets_checks_the_table_against_the_game():
    # a 2-node game's round on a table holding node 3 counted four nodes
    cfg = binary_config(players=2)
    c = StrategyMatrix(np.array([[[0]], [[3]]], dtype=np.uint8))
    with pytest.raises(ValidationError, match="holds node 3 of a 2-node game"):
        resolve_bets(c, 0, np.zeros(2, dtype=int), cfg)
    with pytest.raises(ValidationError, match="does not fit"):
        resolve_bets(StrategyMatrix(np.zeros((3, 1, 1), dtype=np.uint8)), 0,
                     np.zeros(3, dtype=int), cfg)


def test_frustration_zero_at_balanced_profile():
    # both players constant on opposite nodes: every signal is a Nash allocation
    cfg = binary_config(players=2, signals=3, strategies=1)
    entries = np.zeros((2, 1, 3), dtype=np.uint8)
    entries[1, 0, :] = 1
    c = StrategyMatrix(entries)
    p = MixedProfile.pure(np.array([0, 0]), 1)
    assert expected_frustration(c, p, cfg) == pytest.approx(0.0, abs=1e-14)


def test_frustration_expansion_oracle(rng):
    # term-by-term expansion: exact frustration equals the mean-bet form plus
    # each player's own mixing variance, all divided by N (B-1)
    for _ in range(15):
        cfg, s, c = small_instance(rng)
        p = random_profile(rng, cfg.players, cfg.strategies_per_player)
        qc = s.vertices[c.entries.astype(int)]  # (N,S,M,D)
        mean_i = np.einsum("is,ismd->imd", p.rows, qc)
        sq_i = np.einsum("is,ism->im", p.rows, np.einsum("ismd,ismd->ism", qc, qc))
        cross = 0.0
        for i in range(cfg.players):
            for j in range(cfg.players):
                if i != j:
                    cross += np.einsum("md,md->", mean_i[i], mean_i[j])
        exact = (cross / cfg.signals + sq_i.mean(axis=1).sum()) / (
            cfg.players * (cfg.nodes - 1))
        assert expected_frustration(c, p, cfg) == pytest.approx(exact, abs=1e-10)
        variance_term = (sq_i.mean(axis=1).sum()
                         - np.einsum("imd,imd->", mean_i, mean_i) / cfg.signals) / (
            cfg.players * (cfg.nodes - 1))
        assert mean_bet_frustration(c, p.rows, s, cfg) == pytest.approx(
            exact - variance_term, abs=1e-10)


def test_frustration_agrees_with_exact_at_pure(rng):
    # at a pure profile the expected frustration is the signal average of R_t
    cfg, s, c = small_instance(rng)
    profile = rng.integers(0, cfg.strategies_per_player, cfg.players)
    p = MixedProfile.pure(profile, cfg.strategies_per_player)
    per_signal = [instantaneous_frustration(resolve_bets(c, m, profile, cfg)[1], s, cfg)
                  for m in range(cfg.signals)]
    assert expected_frustration(c, p, cfg) == pytest.approx(np.mean(per_signal), abs=1e-12)


def test_decomposition_reassembles_within_5_over_n(rng):
    # 1 + congestion term - self-overlap G(p) = sum_is p_is^2 / N approximates
    # the exact frustration up to O(1/N)
    for _ in range(40):
        cfg, s, c = small_instance(rng)
        p = random_profile(rng, cfg.players, cfg.strategies_per_player)
        g = float(np.einsum("is,is->", p.rows, p.rows)) / cfg.players
        reassembled = 1.0 + mean_bet_frustration(c, p.rows, s, cfg) - g
        exact = expected_frustration(c, p, cfg)
        assert abs(reassembled - exact) <= 5.0 / cfg.players


def test_profile_validation():
    for rows in ([[0.5, 0.4]], [[1.2, -0.2]], np.full((2, 2), np.nan), [[np.inf, 0.5]],
                 [[0.5, 0.5], [np.nan, 1.0]]):
        with pytest.raises(ValidationError):
            MixedProfile(np.array(rows))
    with pytest.raises(ValidationError, match="profile must be 2-d"):
        MixedProfile(np.array([0.5, 0.5]))


def test_matrix_io_roundtrip(tmp_path, rng):
    cfg, _, c = small_instance(rng, players=4, nodes=3, signals=3, strategies=2)
    for fmt, name in [("json", "m.json"), ("binary", "m.bin")]:
        path = tmp_path / name
        save_strategy_matrix(c, path, fmt)
        back = load_strategy_matrix(path, cfg.players, cfg.strategies_per_player,
                                    cfg.signals, fmt)
        assert back.entries.tobytes() == c.entries.tobytes()


def test_matrix_rejects_out_of_range_and_fractional_entries():
    for bad in ([[[256]]], [[[-1]]], [[[1.5]]], [[[np.nan]]], [[["a"]]], [[[True, False]]]):
        with pytest.raises(ValidationError):
            StrategyMatrix(np.array(bad))
    with pytest.raises(ValidationError, match="strategy matrix must be 3-d"):
        StrategyMatrix(np.zeros((2, 3), dtype=np.uint8))
    assert StrategyMatrix(np.array([[[255.0, 0.0]]])).entries.tolist() == [[[255, 0]]]


def test_value_types_own_their_arrays():
    # a validated value neither aliases an array its caller may still write
    # nor freezes that array, whatever its layout
    y = StrengthDistribution.uniform(3)
    signal_major = np.zeros((3, 2, 2), dtype=np.uint8)   # (M, N, S)
    for make, given, field in (
            (StrengthDistribution, np.array([0.25, 0.75]), "weights"),
            (StrategyMatrix, signal_major.transpose(1, 2, 0), "entries"),
            (MixedProfile, np.full((2, 2), 0.5), "rows"),
            (lambda v: Simplex(v, y), np.array(build_simplex(y).vertices), "vertices")):
        value = getattr(make(given), field)
        assert not np.shares_memory(value, given)
        assert given.flags.writeable and not value.flags.writeable
    # a read-only view of a writeable array is copied as well
    view = signal_major.view()
    view.flags.writeable = False
    assert not np.shares_memory(StrategyMatrix(view.transpose(1, 2, 0)).entries, signal_major)
    # a drawn table is read-only down to its memory, so a value built on it
    # shares it rather than copying it
    drawn = draw_strategy_matrix(binary_config(players=4, signals=3, strategies=2),
                                 np.random.default_rng(0))
    assert np.shares_memory(StrategyMatrix(drawn.entries).entries, drawn.entries)


def test_matrix_is_stored_signal_major(tmp_path, rng):
    entries = rng.integers(0, 4, size=(5, 3, 7))
    c = StrategyMatrix(entries)
    assert np.array_equal(c.entries, entries)
    for m in range(7):
        assert c.entries[:, :, m].flags.c_contiguous
    # the file format stays row-major in (player, strategy, signal) order
    path = tmp_path / "m.bin"
    save_strategy_matrix(c, path, "binary")
    assert path.read_bytes() == entries.astype(np.uint8).tobytes()


def test_matrix_io_refuses_an_unknown_format(tmp_path, rng):
    _, _, c = small_instance(rng, players=4, nodes=3, signals=3, strategies=2)
    path = tmp_path / "m.txt"
    with pytest.raises(ValidationError, match="^unknown strategy matrix format 'text'$"):
        save_strategy_matrix(c, path, "text")
    assert not path.exists()
    path.write_text("[0]")
    with pytest.raises(ValidationError, match="^unknown strategy matrix format 'text'$"):
        load_strategy_matrix(path, 1, 1, 1, "text")


def test_matrix_io_size_mismatch(tmp_path, rng):
    cfg, _, c = small_instance(rng, players=4, nodes=3, signals=3, strategies=2)
    path = tmp_path / "m.json"
    save_strategy_matrix(c, path, "json")
    with pytest.raises(ValidationError):
        load_strategy_matrix(path, cfg.players + 1, cfg.strategies_per_player,
                             cfg.signals, "json")


@pytest.mark.parametrize("text", [
    "[1.5, 0]", "[1.0, 0]", "[true, 0]", "[[1], [0]]", "[300, 0]", "[-1, 0]",
    "[NaN, 0]", '{"a": 1}', "[100000000000000000000000, 0]", "[1, 0",
])
def test_json_matrix_must_be_a_flat_list_of_node_indices(tmp_path, text):
    # a float, bool, nested list, out-of-range value or broken file is refused,
    # never cast to a byte
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_strategy_matrix(path, 1, 2, 1)
    path.write_text("[255, 0]")
    assert load_strategy_matrix(path, 1, 2, 1).entries.ravel().tolist() == [255, 0]


def test_table_allocation_is_budgeted(tmp_path, monkeypatch):
    # 10^12 table bytes: refused before drawing, and before reading a file
    cfg = binary_config(players=10**6, signals=10**6, strategies=1)
    with pytest.raises(BudgetError, match="GiB"):
        draw_strategy_matrix(cfg, np.random.default_rng(0))
    with pytest.raises(BudgetError, match="GiB"):
        load_strategy_matrix(tmp_path / "never_read.json", 10**6, 1, 10**6)
    # and a size that is no count is refused before the file is opened
    for sizes, name in (((2.5, 1, 1), "players"), ((1, 0, 1), "strategies"),
                        ((1, 1, True), "signals")):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            load_strategy_matrix(tmp_path / "never_read.json", *sizes)
    # N=1, S=1, M=2^19: a 0.5 MiB table under a 1 MiB budget, but one block of
    # its draw holds 10 bytes an entry: refused before any draw
    monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 1 << 20)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(BudgetError, match="strategy table and its draw"):
        draw_strategy_matrix(binary_config(players=1, signals=1 << 19), rng)
    assert rng.bit_generator.state == before
    assert draw_strategy_matrix(binary_config(players=1, signals=1 << 16), rng).shape == (
        1, 1, 1 << 16)
