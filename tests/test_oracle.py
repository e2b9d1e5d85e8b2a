import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from simplexgame import (BudgetError, GameConfig, MixedProfile, ProfileScan, StrategyMatrix,
                         StrengthDistribution, ValidationError, build_simplex,
                         draw_strategy_matrix, expected_frustration, oracle_report,
                         potential_defect, run, scan_profiles)

from simplexgame import errors, oracle
from simplexgame.cli import main
from simplexgame.oracle import _ProfileEvaluator

from conftest import random_profile, random_proper_strengths, small_instance
from references import DeviationBetEvaluator, blocked_scan, correlated_payoff


def reference_evaluate(ev, profile):
    """One profile on the halves' route: (payoffs (N,), deviation payoffs (N,S),
    frustration), from the evaluator's vertex table, split and overlaps."""
    rows = np.asarray(profile, dtype=np.int64) + ev.row_offset
    halves = []
    for part in (rows[:ev.high_players], rows[ev.high_players:]):
        b = np.zeros(ev.table.shape[1])           # (M*D,), summed in player order
        for row in part:
            b += ev.table[row]
        halves.append(b)
    high, low = (np.einsum("x,xk->k", b, ev.columns) for b in halves)
    bets = high + low
    cross = 0.0                                   # b_high . b_low, in player order
    for row in rows[ev.high_players:]:
        cross += high[row]
    norm = (halves[0] * halves[0]).sum() + 2 * cross + (halves[1] * halves[1]).sum()
    scale = ev.scale                              # -N M
    u = bets[rows] / scale
    u_dev = (bets.reshape(ev.n, -1) - ev.overlap_columns.T[rows] + ev.own_columns.T) / scale
    r = float(norm) / (ev.n * ev.table.shape[1])  # N M (B-1)
    return u, u_dev, r


class _OneProfile:
    """`reference_evaluate` behind the evaluator interface, for blocks of one profile."""

    def __init__(self, c, cfg):
        self.ev = _ProfileEvaluator(c, cfg)

    def evaluate(self, profiles):
        (profile,) = profiles
        u, u_dev, r = reference_evaluate(self.ev, profile)
        return u[None], u_dev[None], np.array([r])


def reference_scan(c, cfg):
    """The one-pass scan one profile at a time, in itertools.product order."""
    return blocked_scan(_OneProfile(c, cfg), cfg, 1)


def reference_equilibria(c, cfg):
    """Pass one: every profile against every unilateral deviation."""
    ev = _ProfileEvaluator(c, cfg)
    profiles, frustrations = [], []
    for profile in itertools.product(range(cfg.strategies_per_player), repeat=cfg.players):
        u, u_dev, r = reference_evaluate(ev, profile)
        if np.all(u_dev - u[:, None] <= 1e-12):
            profiles.append(profile)
            frustrations.append(r)
    return profiles, frustrations


def reference_report(c, cfg):
    """The three-pass oracle: equilibria, then equilibria again plus a maximizer pass."""
    profiles, frustrations = reference_equilibria(c, cfg)
    equilibria = set(reference_equilibria(c, cfg)[0])
    ev = _ProfileEvaluator(c, cfg)
    best, evaluated = -np.inf, []
    for profile in itertools.product(range(cfg.strategies_per_player), repeat=cfg.players):
        u, u_dev, _ = reference_evaluate(ev, profile)
        total = float(u[0])                       # summed in player order
        for payoff in u[1:]:
            total += float(payoff)
        evaluated.append((profile, total, float(np.max(u_dev - u[:, None]))))
        best = max(best, total)
    maximizers, flags, worst = [], [], 0.0
    for profile, total, violation in evaluated:
        if total >= best - 1e-12:
            maximizers.append(profile)
            flags.append(profile in equilibria)
            worst = max(worst, violation)
    return {
        "players": cfg.players, "nodes": cfg.nodes, "signals": cfg.signals,
        "strategies_per_player": cfg.strategies_per_player,
        "equilibrium_count": len(profiles),
        "min_r": min(frustrations) if frustrations else None,
        "no_pure_equilibrium": not profiles,
        "maximizer_count": len(maximizers),
        "maximizers_all_equilibria": all(flags) if maximizers else None,
        "maximizer_worst_violation": worst,
        "max_aggregate_payoff": best,
    }, profiles, frustrations, maximizers, flags


def anti_coordination_game():
    """N=2, S=2, M=1, B=2; both players have {node 0, node 1} as strategies."""
    cfg = GameConfig(players=2, nodes=2, signals=1, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.5])))
    entries = np.zeros((2, 2, 1), dtype=np.uint8)
    entries[:, 1, :] = 1
    return cfg, build_simplex(cfg.strengths), StrategyMatrix(entries)


def test_single_player_equilibria_are_argmax(rng):
    cfg, s, c = small_instance(rng, players=1, strategies=3, signals=3)
    eq = scan_profiles(c, cfg)
    values = [correlated_payoff(c, (k,), 0, cfg) for k in range(3)]
    best = max(values)
    expect = {(k,) for k in range(3) if values[k] >= best - 1e-12}
    assert set(eq.equilibria) == expect


def test_single_strategy_profile_is_trivial_equilibrium(rng):
    cfg, s, c = small_instance(rng, players=3, strategies=1)
    eq = scan_profiles(c, cfg)
    assert eq.equilibria == [(0, 0, 0)]
    assert eq.min_r == pytest.approx(eq.frustrations[0])


def test_seeded_tiny_game_equilibria_verified_independently():
    # every member re-verified through the count-based payoff evaluator
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(12))
    eq = scan_profiles(c, cfg)
    assert eq.equilibria
    for profile in eq.equilibria:
        for i in range(cfg.players):
            base = correlated_payoff(c, profile, i, cfg)
            for dev in range(cfg.strategies_per_player):
                alt = list(profile)
                alt[i] = dev
                assert correlated_payoff(c, tuple(alt), i, cfg) <= base + 1e-12


def _whole_game(ev):
    """The high half's tables of every high-half profile, and every profile's
    position h L + l, for a game that fits one group."""
    high = ev.strategies ** ev.high_players
    assert high <= ev.group_rows
    return ev.half(range(high), 0, ev.high_players), np.arange(high * ev.low_size)


def test_two_evaluators_agree_everywhere(rng):
    # dot-product route vs direct count resolution, all profiles of small games
    for _ in range(10):
        cfg, s, c = small_instance(rng, players=3)
        profiles = list(itertools.product(range(cfg.strategies_per_player),
                                          repeat=cfg.players))
        ev = _ProfileEvaluator(c, cfg)
        tables, positions = _whole_game(ev)
        h, l = np.divmod(positions, ev.low_size)
        gains, rows, payoffs = ev.gains(tables, 0, cfg.players, h, l)
        assert list(map(tuple, (rows.T - ev.row_offset).tolist())) == profiles
        assert payoffs.shape == (cfg.players, len(profiles))
        best, violations = gains + payoffs, gains.max(axis=0)
        totals, equilibria, frustrations, candidates, top = ev.describe(tables, positions,
                                                                        -np.inf)
        # one run of profiles: the candidates are those within TIE_TOL of its best
        assert top == totals.max()
        assert candidates == [(p, v, t) for p, v, t in zip(profiles, violations.tolist(),
                                                           totals.tolist()) if t >= top - 1e-12]
        for profile, u, dev, violation, total in zip(profiles, payoffs.T, best.T,
                                                     violations, totals):
            direct = [correlated_payoff(c, profile, i, cfg) for i in range(cfg.players)]
            assert u == pytest.approx(direct, abs=1e-12)
            assert total == pytest.approx(sum(direct), abs=1e-12)
            gains = []
            for i in range(cfg.players):
                deviations = [correlated_payoff(c, profile[:i] + (k,) + profile[i + 1:], i, cfg)
                              for k in range(cfg.strategies_per_player)]
                assert dev[i] == pytest.approx(max(deviations), abs=1e-12)
                gains.append(max(deviations) - direct[i])
            assert violation == pytest.approx(max(gains), abs=1e-12)
        assert equilibria == [p for p, v in zip(profiles, violations) if v <= 1e-12]
        for profile, r in zip(equilibria, frustrations):
            p = MixedProfile.pure(np.array(profile), cfg.strategies_per_player)
            assert r == pytest.approx(expected_frustration(c, p, cfg), abs=1e-12)


def test_anti_coordination_equilibria():
    cfg, s, c = anti_coordination_game()
    eq = scan_profiles(c, cfg)
    assert set(eq.equilibria) == {(0, 1), (1, 0)}
    assert eq.min_r == pytest.approx(0.0, abs=1e-14)
    # coordinated profiles land both players on one node: each pays -1
    ev = _ProfileEvaluator(c, cfg)
    high = ev.half(range(1), 0, 1)
    gains, rows, _ = ev.gains(high, 0, 2, *np.divmod(np.arange(2), ev.low_size))
    assert (rows.T - ev.row_offset).tolist() == [[0, 0], [0, 1]]
    totals, equilibria, frustrations, *_ = ev.describe(high, np.arange(2), -np.inf)
    assert totals[0] == pytest.approx(-2.0) and gains[:, 0].max() > 0
    assert equilibria == [(0, 1)] and frustrations == [pytest.approx(0.0, abs=1e-14)]


def test_oracle_rejects_a_matrix_that_does_not_fit_its_game():
    cfg = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.5, 0.3, 0.2])))
    entries = np.zeros((3, 2, 2), dtype=np.uint8)
    entries[2, 1, 1] = 3   # one past the last node: an IndexError before the check
    for c in (StrategyMatrix(entries), StrategyMatrix(np.zeros((3, 2, 1), dtype=np.uint8))):
        with pytest.raises(ValidationError):
            _ProfileEvaluator(c, cfg)
        with pytest.raises(ValidationError):
            oracle_report(c, cfg)


def test_exact_price_of_anarchy_zero_when_balanced_profile_exists():
    cfg, s, c = anti_coordination_game()
    assert scan_profiles(c, cfg).min_r == pytest.approx(0.0, abs=1e-14)


def test_no_pure_equilibrium_is_reported_not_raised(monkeypatch):
    # a game can have an empty pure equilibrium set only through slack breaking
    # ties; with one strategy the set is never empty, so check the report's
    # empty branch on a doctored scan
    cfg, s, c = anti_coordination_game()
    empty = ProfileScan(equilibria=[], frustrations=[], min_r=None, maximizers=[(0, 0)],
                        in_equilibrium_set=[False], worst_violation=0.5, max_aggregate=-2.0)
    monkeypatch.setattr(oracle, "scan_profiles", lambda *args: empty)
    report = oracle_report(c, cfg)
    assert report["equilibrium_count"] == 0 and report["min_r"] is None
    assert report["no_pure_equilibrium"] and report["maximizers_all_equilibria"] is False


def test_budget_enforced():
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=10, nodes=2, signals=1, strategies_per_player=3,
                     strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    with pytest.raises(BudgetError):
        scan_profiles(c, cfg, budget=1000)


def test_learned_plateau_bounded_below_by_oracle(rng):
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    for seed in range(5):
        c = draw_strategy_matrix(cfg, np.random.default_rng(seed))
        min_r = scan_profiles(c, cfg).min_r
        result = run(cfg, seed, gamma=20.0, iterations=1500, matrix=c)
        learned = expected_frustration(c, MixedProfile(result.probabilities), cfg)
        assert learned >= min_r - 1e-9


def test_potential_defect_same_strategy_is_zero(rng):
    cfg, s, c = small_instance(rng, strategies=2)
    p = random_profile(rng, cfg.players, cfg.strategies_per_player)
    assert potential_defect(c, p, 0, 1, 1, cfg) == 0.0


def test_potential_defect_binary_equal_strengths(rng):
    # every squared vertex norm is 1, so the correction vanishes and the
    # identity still holds to floating point
    cfg, s, c = small_instance(rng, nodes=2)
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=cfg.players, nodes=2, signals=cfg.signals,
                     strategies_per_player=2, strengths=y)
    c = draw_strategy_matrix(cfg, rng)
    p = random_profile(rng, cfg.players, 2)
    for i in range(cfg.players):
        assert abs(potential_defect(c, p, i, 0, 1, cfg)) <= 1e-12


def test_potential_defect_random_games(rng):
    for _ in range(25):
        cfg, s, c = small_instance(rng, players=4, nodes=3, signals=3, strategies=2)
        p = random_profile(rng, 4, 2)
        i = int(rng.integers(4))
        assert abs(potential_defect(c, p, i, 0, 1, cfg)) <= 1e-12


@pytest.mark.parametrize("i, s1, message", [
    (-1, 0, "player -1 out of range"), (3, 0, "player 3 out of range"),
    (1.0, 0, "player must be an integer"), (True, 0, "player must be an integer"),
    (0, 2, "strategy 2 out of range"), (0, 0.5, "strategy must be an integer")])
def test_potential_defect_checks_its_indices(i, s1, message):
    # a negative player once meant the last one, and a float one an IndexError
    cfg = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    p = MixedProfile.uniform(3, 2)
    with pytest.raises(ValidationError, match=message):
        potential_defect(c, p, i, s1, 1, cfg)


def test_maximizer_report_binary_equal_strengths(rng):
    # with the correction identically zero, maximizers are exact equilibria
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=4, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    for seed in range(5):
        c = draw_strategy_matrix(cfg, np.random.default_rng(100 + seed))
        scan = scan_profiles(c, cfg)
        assert all(scan.in_equilibrium_set)
        assert scan.worst_violation <= 1e-12


def test_maximizer_violations_bounded(rng):
    # deviation gain at a maximizer is at most half the squared-norm spread / N
    for seed in range(8):
        gen = np.random.default_rng(300 + seed)
        y = random_proper_strengths(gen, 3)
        cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2,
                         strengths=y)
        s = build_simplex(y)
        c = draw_strategy_matrix(cfg, gen)
        scan = scan_profiles(c, cfg)
        sq = np.einsum("rd,rd->r", s.vertices, s.vertices)
        bound = (sq.max() - sq.min()) / (2 * cfg.players) + 1e-12
        assert scan.worst_violation <= bound


def test_oracle_report_fields(rng):
    cfg, s, c = small_instance(rng, players=3, strategies=2)
    report = oracle_report(c, cfg)
    assert report["equilibrium_count"] >= 0
    assert report["players"] == 3
    assert ("min_r" in report) and ("maximizer_worst_violation" in report)


def _oracle_games():
    yield anti_coordination_game()          # ties: two equilibria, two maximizers
    for seed, (players, nodes, signals, strategies, uniform) in enumerate([
            (6, 3, 3, 2, True), (6, 3, 3, 2, False), (5, 2, 2, 3, True),
            (4, 4, 2, 3, False), (7, 2, 1, 2, True), (3, 3, 4, 1, False)]):
        gen = np.random.default_rng(500 + seed)
        y = (StrengthDistribution.uniform(nodes) if uniform
             else random_proper_strengths(gen, nodes))
        cfg = GameConfig(players=players, nodes=nodes, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        yield cfg, build_simplex(y), draw_strategy_matrix(cfg, gen)
    # skewed strengths: some of the four tied maximizers are not equilibria
    gen = np.random.default_rng(0)
    y = StrengthDistribution.random_proper(3, gen)
    cfg = GameConfig(players=5, nodes=3, signals=2, strategies_per_player=2, strengths=y)
    yield cfg, build_simplex(y), draw_strategy_matrix(cfg, gen)


@pytest.mark.parametrize("game", list(_oracle_games()))
def test_one_pass_oracle_equals_three_pass_reference(game):
    cfg, s, c = game
    want, profiles, frustrations, maximizers, flags = reference_report(c, cfg)
    assert oracle_report(c, cfg) == want
    scan = scan_profiles(c, cfg)
    assert (scan.equilibria, scan.frustrations) == (profiles, frustrations)
    assert (scan.maximizers, scan.in_equilibrium_set) == (maximizers, flags)


def _per_profile(cfg):
    return cfg.players * cfg.strategies_per_player * cfg.signals * (cfg.nodes - 1)


def _set_block_rows(monkeypatch, cfg, rows, group_rows=None):
    """Make `scan_profiles` pair `rows` high-half rows with the low half per
    block, in groups of `group_rows` high-half rows (by default as many as it
    would use), on the split it would use anyway."""
    high_players, _, group = oracle._plan(cfg)
    group = group if group_rows is None else group_rows
    monkeypatch.setattr(oracle, "_plan", lambda config: (high_players, rows, group))


def _random_games(count, seed):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        players, nodes = int(gen.integers(2, 9)), int(gen.integers(2, 6))
        signals, strategies = int(gen.integers(1, 7)), int(gen.integers(1, 4))
        while strategies ** players > 729:
            players -= 1
        y = (StrengthDistribution.uniform(nodes) if gen.random() < 0.5
             else random_proper_strengths(gen, nodes))
        cfg = GameConfig(players=players, nodes=nodes, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        yield cfg, build_simplex(y), draw_strategy_matrix(cfg, gen)


def _one_coordinate_game():
    """N=9, M=1, B=2 with skewed strengths: each profile's bet is one float, so a
    block of one profile sums nine scalars, whose bits show the summation order."""
    gen = np.random.default_rng(901)
    y = random_proper_strengths(gen, 2)
    cfg = GameConfig(players=9, nodes=2, signals=1, strategies_per_player=2, strengths=y)
    return cfg, build_simplex(y), draw_strategy_matrix(cfg, gen)


def _edge_games():
    """N=1 (an empty high half), S=1, odd N, and M (B-1) = 20000, where the low
    half is empty because one of its rows is wider than ORACLE_BLOCK / S."""
    gen = np.random.default_rng(902)
    for players, nodes, signals, strategies in [(1, 3, 3, 4), (5, 3, 2, 1), (7, 3, 2, 2),
                                                (4, 5, 5000, 3)]:
        y = random_proper_strengths(gen, nodes)
        cfg = GameConfig(players=players, nodes=nodes, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        yield cfg, build_simplex(y), draw_strategy_matrix(cfg, gen)


def test_blocked_scan_equals_per_profile_scan(monkeypatch):
    # same lists in the same order and the same floats, whatever the block size:
    # one high-half row per block, and blocks of 2, 3 and 7 (ragged last blocks
    # when S^a or the group is not a multiple), also in groups of 5 rows, with a
    # ragged last block in every group and a ragged last group
    games = [anti_coordination_game(), _one_coordinate_game(), *_edge_games(),
             *_random_games(60, 900)]
    assert [oracle._plan(cfg)[0] for cfg, s, c in games[2:6]] == [0, 2, 3, 4]
    for cfg, s, c in games:
        monkeypatch.undo()
        want = reference_scan(c, cfg)
        assert scan_profiles(c, cfg) == want
        for rows, group_rows in [(1, None), (2, None), (3, None), (7, None), (2, 5)]:
            _set_block_rows(monkeypatch, cfg, rows, group_rows)
            assert scan_profiles(c, cfg) == want


def _benchmark_games(seeds):
    """The benchmark's oracle shape: N=15, S=2, M=3, B=3, uniform strengths."""
    y = StrengthDistribution.uniform(3)
    cfg = GameConfig(players=15, nodes=3, signals=3, strategies_per_player=2, strengths=y)
    for seed in seeds:
        yield cfg, build_simplex(y), draw_strategy_matrix(cfg, np.random.default_rng(seed))


def test_blocked_scan_equals_per_profile_scan_on_benchmark_game(monkeypatch):
    # the benchmark's oracle input at seed 7: 7 high and 8 low players, two
    # groups of 64 high rows, each 2 blocks of 32, and 8 tied maximizers, one
    # or more in every block; blocks of 7 high rows leave 1 for the last block
    # of each group, since 64 = 1 mod 7
    cfg, s, c = next(_benchmark_games([7]))
    want = reference_scan(c, cfg)
    assert oracle._plan(cfg) == (7, 32, 64)
    profiles = list(itertools.product(range(2), repeat=15))
    assert len(want.maximizers) == 8
    assert {profiles.index(p) // (32 * 2**8) for p in want.maximizers} == {0, 1, 2, 3}
    assert scan_profiles(c, cfg) == want
    _set_block_rows(monkeypatch, cfg, 7)
    assert scan_profiles(c, cfg) == want


def test_blocked_scan_equals_per_profile_scan_with_a_short_low_half(monkeypatch):
    # a small ORACLE_BLOCK cuts the low half short of ceil(N/2) players, as the
    # default one does at N=19 and at N=6, S=10, and leaves a ragged last block
    gen = np.random.default_rng(903)
    for players, strategies, signals, block in [(9, 2, 20, 440), (7, 3, 2, 1200)]:
        monkeypatch.setattr(oracle, "ORACLE_BLOCK", block)
        y = random_proper_strengths(gen, 3)
        cfg = GameConfig(players=players, nodes=3, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        c = draw_strategy_matrix(cfg, gen)
        high_players, rows, group = oracle._plan(cfg)
        assert 0 < players - high_players < players - players // 2
        assert strategies ** high_players % group % rows != 0 < strategies ** high_players // group
        want = reference_scan(c, cfg)
        assert want.equilibria and want.maximizers
        assert scan_profiles(c, cfg) == want


def test_vertex_tables_are_budgeted(monkeypatch, capsys):
    # the 4,000-byte table and the 40,000 bytes of its draw fit a 50,000-byte
    # budget, but its 64,000 bytes of vertices do not: the oracle stops before
    # building them
    monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 50_000)
    assert main(["oracle", "--N", "2", "--S", "2", "--M", "1000", "--B", "3"]) == 1
    err = capsys.readouterr().err
    assert "vertex tables" in err and "allocation budget" in err
    cfg = GameConfig(players=2, nodes=3, signals=1000, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    with pytest.raises(BudgetError, match="vertex tables"):
        _ProfileEvaluator(draw_strategy_matrix(cfg, np.random.default_rng(0)), cfg)
    assert main(["oracle", "--N", "2", "--S", "2", "--M", "10", "--B", "3"]) == 0


def _unit(cfg):
    """Floats one profile alone needs: its N S contractions, or its M (B-1) bet."""
    return max(cfg.players * cfg.strategies_per_player, cfg.signals * (cfg.nodes - 1))


def test_half_tables_and_blocks_bounded(monkeypatch):
    # the halves' tables, a block's arrays and a group's read-out hold at most
    # ORACLE_BLOCK floats, unless one profile alone needs more
    y = StrengthDistribution.uniform(5)
    for players, signals, strategies in [(15, 3, 2), (19, 3, 2), (2, 1, 1), (1, 3, 1000),
                                         (4, 5000, 3), (20, 5000, 2)]:
        cfg = GameConfig(players=players, nodes=5, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        high_players, rows, group = oracle._plan(cfg)
        low = strategies ** (players - high_players)
        limit = max(oracle.ORACLE_BLOCK, _unit(cfg))
        assert players // 2 <= high_players <= players and rows >= 1
        assert low * _unit(cfg) <= limit          # the low half's bets and contractions
        assert group * _unit(cfg) <= limit and group % rows == 0   # a group's high half
        assert group * low <= limit               # a group's filter values and positions
        # one player's (S, H L) deviation terms, and the block's H rows of tables
        assert rows * max(low * strategies, _unit(cfg)) <= limit
    # at N = 19 a low half of 9 or 10 players would hold 2^9 or 2^10 rows of 38 floats
    assert oracle._plan(GameConfig(players=19, nodes=3, signals=3, strategies_per_player=2,
                                   strengths=StrengthDistribution.uniform(3)))[0] == 11
    # every array the evaluator's methods take or return but the equilibrium
    # and maximizer lists, which are output, the low half's per-game tables,
    # and the (S, players, profiles) deviation terms `gains` works on, in
    # scans of such games and of one where every profile is read out
    sizes = []

    def record(value):
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                sizes.append(item.size)
            elif isinstance(item, tuple):
                record(item)
        return value

    for name in ("half", "gains", "evaluate", "describe"):
        method = getattr(_ProfileEvaluator, name)
        monkeypatch.setattr(_ProfileEvaluator, name,
                            lambda self, *args, method=method: record(
                                method(self, *record(args))))
    gains = _ProfileEvaluator.gains

    def deviation_terms(self, high, first, last, h, l):
        sizes.append(self.strategies * (last - first) * np.broadcast(h, l).size)
        return gains(self, high, first, last, h, l)

    monkeypatch.setattr(_ProfileEvaluator, "gains", deviation_terms)
    for cfg, s, c in [next(_benchmark_games([7])), *list(_edge_games())[2:],
                      _short_low_half_game(), _identical_strategies_game(15)]:
        sizes.clear()
        ev = _ProfileEvaluator(c, cfg)
        record((ev.low, ev.low_bets))
        scan_profiles(c, cfg)
        assert sizes and max(sizes) <= max(oracle.ORACLE_BLOCK, _unit(cfg))


def _short_low_half_game():
    """N=19, S=2, M=3, B=3: the low half is 8 players, short of ceil(N/2)."""
    y = StrengthDistribution.uniform(3)
    cfg = GameConfig(players=19, nodes=3, signals=3, strategies_per_player=2, strengths=y)
    return cfg, build_simplex(y), draw_strategy_matrix(cfg, np.random.default_rng(19))


def test_oracle_report_evaluates_each_profile_once(monkeypatch):
    # every profile in exactly one group, in itertools.product order, with
    # the default groups and with groups of 3 high-half rows (several, the
    # last one ragged): a group pairs its high-half rows with every low-half row
    groups, sizes = [], []
    evaluate = _ProfileEvaluator.evaluate

    def recording(self, high, *rest):
        sizes.append(high.rows.shape[1])
        assert 1 <= sizes[-1] <= self.group_rows
        low = self.low.rows - self.row_offset[self.high_players:, None]
        for column in (high.rows - self.row_offset[:self.high_players, None]).T.tolist():
            groups.extend(tuple(column) + tuple(row) for row in low.T.tolist())
        return evaluate(self, high, *rest)

    monkeypatch.setattr(_ProfileEvaluator, "evaluate", recording)
    plan = oracle._plan
    for rows in (None, 3):
        for cfg, s, c in list(_oracle_games())[:3]:
            if rows is not None:
                monkeypatch.setattr(oracle, "_plan", plan)
                _set_block_rows(monkeypatch, cfg, 1, rows)
            groups.clear()
            sizes.clear()
            oracle_report(c, cfg)
            assert groups == list(itertools.product(
                range(cfg.strategies_per_player), repeat=cfg.players))
    assert sizes == [3, 3, 2]


def _dominated_first_player_game():
    """N=4, B=2 with strengths (0.9, 0.1): player 0's strategy 0 puts it on the
    weak node under every signal and its strategy 1 on the strong one, so no
    profile where player 0 plays 0 survives player 0's test."""
    cfg = GameConfig(players=4, nodes=2, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution(np.array([0.9, 0.1])))
    entries = draw_strategy_matrix(cfg, np.random.default_rng(904)).entries.copy()
    entries[:, 0, 0] = 1
    entries[:, 0, 1] = 0
    return cfg, build_simplex(cfg.strengths), StrategyMatrix(entries)


def _identical_strategies_games():
    """S=1 (one profile), and every player's strategies identical (every profile
    an equilibrium and a maximizer), with N=1 and with N=10."""
    gen = np.random.default_rng(905)
    for players, strategies in [(6, 1), (1, 3), (10, 2)]:
        yield _identical_strategies_game(players, strategies, gen)


def _identical_strategies_game(players, strategies=2, gen=None):
    """M=3, B=3, with strategy 0's nodes for every strategy of every player."""
    gen = np.random.default_rng(906) if gen is None else gen
    y = random_proper_strengths(gen, 3)
    cfg = GameConfig(players=players, nodes=3, signals=3,
                     strategies_per_player=strategies, strengths=y)
    entries = draw_strategy_matrix(cfg, gen).entries.copy()
    entries[:] = entries[:, :1]            # (N, S, M): strategy 0's nodes for every strategy
    return cfg, build_simplex(y), StrategyMatrix(entries)


def test_pruned_scan_equals_per_profile_scan_on_extreme_games(monkeypatch):
    # blocks of one high-half row where no profile survives player 0, and
    # games where every profile survives every player, as one block and (at
    # N = 10 under a small ORACLE_BLOCK) as blocks whose players are tested
    # one at a time
    cfg, s, c = _dominated_first_player_game()
    want = reference_scan(c, cfg)
    assert want.equilibria and all(p[0] == 1 for p in want.equilibria)
    dominated = [p for p in itertools.product(range(2), repeat=4) if p[0] == 0]
    assert set(dominated).isdisjoint(want.equilibria)
    _set_block_rows(monkeypatch, cfg, 1)
    assert oracle._ProfileEvaluator(c, cfg).high_players >= 1
    assert scan_profiles(c, cfg) == want
    monkeypatch.undo()
    for cfg, s, c in _identical_strategies_games():
        want = reference_scan(c, cfg)
        count = cfg.strategies_per_player ** cfg.players
        assert len(want.equilibria) == len(want.maximizers) == count
        assert scan_profiles(c, cfg) == want
    # the split moves with ORACLE_BLOCK, and the reference follows it
    monkeypatch.setattr(oracle, "ORACLE_BLOCK", 200)
    high_players, rows, _ = oracle._plan(cfg)
    assert rows * 2 ** (cfg.players - high_players) * 2 * cfg.players > 200
    assert scan_profiles(c, cfg) == reference_scan(c, cfg)


def test_filter_fallback_reads_every_profile_of_a_block(monkeypatch):
    # filter values shifted by the margin fail the self-check in every group
    # that read out a profile, which is then read out in full, every profile
    # of every block: the same lists and floats as the per-profile scan, in
    # games of several groups and blocks
    evaluate, describe = _ProfileEvaluator.evaluate, _ProfileEvaluator.describe
    read = []

    def shifted(self, high, filtered):
        positions, approx, filtered = evaluate(self, high, filtered)
        return positions, approx + self.margin, filtered

    def counting(self, high, positions, best):
        read.append(positions.size)
        return describe(self, high, positions, best)

    monkeypatch.setattr(_ProfileEvaluator, "evaluate", shifted)
    monkeypatch.setattr(_ProfileEvaluator, "describe", counting)
    gen = np.random.default_rng(906)
    for players, strategies, signals, block in [(9, 2, 20, 440), (7, 3, 2, 1200)]:
        monkeypatch.setattr(oracle, "ORACLE_BLOCK", block)
        cfg = GameConfig(players=players, nodes=3, signals=signals,
                         strategies_per_player=strategies,
                         strengths=random_proper_strengths(gen, 3))
        c = draw_strategy_matrix(cfg, gen)
        high_players, rows, group = oracle._plan(cfg)
        read.clear()
        assert scan_profiles(c, cfg) == reference_scan(c, cfg)
        # a group that read out a profile is read out again, in full
        groups = -(-strategies ** high_players // group)
        assert 1 < groups < len(read) <= 2 * groups
        assert max(read) == group * strategies ** (players - high_players) > rows


def test_check_budget_counts_profiles_up_to_the_budget():
    def config(players, strategies):
        return GameConfig(players=players, nodes=2, signals=1,
                          strategies_per_player=strategies,
                          strengths=StrengthDistribution.uniform(2))

    assert oracle.check_budget(config(3, 2), 8) == 8
    assert oracle.check_budget(config(5, 3)) == 3**5
    assert oracle.check_budget(config(10**12, 1), 1) == 1
    assert oracle.check_budget(config(99, 2), 2**99) == 2**99
    # a 10^12-player count is refused without building S^N, also under a
    # budget above 2^64
    for players, strategies, budget in [(3, 2, 7), (30, 2, 10**6), (10**12, 2, 10**6),
                                        (5, 1, 0), (2, 10**12, 10**6), (100, 2, 2**100 - 1),
                                        (10**12, 3, 10**30)]:
        with pytest.raises(BudgetError):
            oracle.check_budget(config(players, strategies), budget)


def test_check_budget_rejects_a_negative_budget():
    cfg = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    for call in (lambda: oracle.check_budget(cfg, -5),
                 lambda: oracle_report(c, cfg, -1)):
        with pytest.raises(ValidationError, match="budget must be >= 0") as err:
            call()
        assert not isinstance(err.value, BudgetError)


def test_check_budget_rejects_a_budget_that_is_not_a_count():
    # 1e6 failed in int.bit_length, and True was reported as a budget of True
    cfg = GameConfig(players=3, nodes=3, signals=2, strategies_per_player=2,
                     strengths=StrengthDistribution.uniform(3))
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    for call in (lambda: oracle.check_budget(cfg, 1e6), lambda: oracle.check_budget(cfg, True),
                 lambda: scan_profiles(c, cfg, budget=1e6)):
        with pytest.raises(ValidationError, match="^budget must be an integer"):
            call()
    assert oracle.check_budget(cfg, np.int64(8)) == 8


RECORDED = {
    "oracle_n15_s2_m3_b3_seed7.json": "--N 15 --S 2 --M 3 --B 3 --seed 7 --strengths uniform",
    "oracle_n8_s3_m4_b4_seed7_skewed.json":
        "--N 8 --S 3 --M 4 --B 4 --seed 7 --strengths 0.4,0.3,0.2,0.1",
    "oracle_n3_s3_m2_b3_seed5.json": "--N 3 --S 3 --M 2 --B 3 --seed 5 --strengths 0.5,0.3,0.2",
}


@pytest.mark.parametrize("recorded", list(RECORDED))
def test_oracle_report_matches_recorded_output(tmp_path, recorded):
    """The benchmark's oracle game, a skewed S=3 one and a 3-player one, as
    recorded in tests/data by `simplexgame oracle FLAGS --out NAME` (which
    `python tests/record_golden.py NAME` replays): every count, flag and float
    of the report, text for text."""
    out = tmp_path / "report.json"
    assert main(["oracle", *RECORDED[recorded].split(), "--out", str(out)]) == 0
    assert out.read_text() == (Path(__file__).parent / "data" / recorded).read_text()


def _floats_close(got, want, tol):
    """Equal lists, counts and flags; floats (also inside lists) within tol."""
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= tol
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_floats_close(g, w, tol)
                                             for g, w in zip(got, want))
    return type(got) is type(want) and got == want


ROUTE_TOL = 1e-12   # the two routes sum the same dot products in another order


def test_expanded_route_matches_deviation_bet_route(monkeypatch):
    # every list, count and flag identical to the blocked scan on the
    # (P, N, S, M, B-1) deviation-bet route the oracle used to build, and every
    # float within ROUTE_TOL; each side scans each game once
    games = [*_oracle_games(), *_random_games(60, 900), *_benchmark_games(range(1, 11))]
    for cfg, s, c in games:
        got = scan_profiles(c, cfg)
        want = blocked_scan(DeviationBetEvaluator(c, cfg), cfg,
                            max(1, oracle.ORACLE_BLOCK // _per_profile(cfg)))
        for field in dataclasses.fields(want):
            mine, old = getattr(got, field.name), getattr(want, field.name)
            assert _floats_close(mine, old, ROUTE_TOL), (field.name, mine, old)
        reports = []
        for scan in (got, want):   # each scan's report, without scanning again
            monkeypatch.setattr(oracle, "scan_profiles", lambda *args, scan=scan: scan)
            reports.append(oracle_report(c, cfg))
        monkeypatch.undo()
        report, want_report = reports
        assert report.keys() == want_report.keys()
        for key, old in want_report.items():
            assert _floats_close(report[key], old, ROUTE_TOL), (key, report[key], old)
