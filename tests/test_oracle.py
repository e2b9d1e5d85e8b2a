import itertools

import numpy as np
import pytest

from simplexgame import (BudgetError, GameConfig, LearningConfig, MixedProfile,
                         StrategyMatrix, StrengthDistribution, build_simplex,
                         draw_strategy_matrix, enumerate_equilibria, frustration,
                         maximizer_equilibrium_report, oracle_report,
                         potential_defect, run)

from simplexgame import oracle
from simplexgame.oracle import EquilibriumSet, MaximizerReport, _ProfileEvaluator

from conftest import random_profile, random_proper_strengths, small_instance
from references import correlated_payoff


def reference_evaluate(ev, profile):
    """One profile on the vertex route: (payoffs (N,), deviation payoffs (N,S), frustration)."""
    idx = np.asarray(profile, dtype=np.int64)
    chosen = ev.qc[np.arange(ev.n), idx]          # (N,M,D)
    b = chosen.sum(axis=0)                        # (M,D)
    u = -np.einsum("imd,md->im", chosen, b) / ev.n
    b_dev = b[None, None] - chosen[:, None] + ev.qc  # (N,S,M,D)
    u_dev = -np.einsum("ismd,ismd->ism", ev.qc, b_dev) / ev.n
    r = float(np.einsum("md,md->", b, b)) / (b.shape[0] * ev.n * (ev.config.nodes - 1))
    return u.mean(axis=1), u_dev.mean(axis=2), r


def reference_scan(c, s, cfg):
    """The one-pass scan one profile at a time, in itertools.product order."""
    ev = _ProfileEvaluator(c, s, cfg)
    profiles, frustrations = [], []
    best, candidates = -np.inf, []
    for profile in itertools.product(range(cfg.strategies_per_player), repeat=cfg.players):
        u, u_dev, r = reference_evaluate(ev, profile)
        violation = float(np.max(u_dev - u[:, None]))
        stable = violation <= 1e-12
        if stable:
            profiles.append(profile)
            frustrations.append(r)
        total = float(u.sum())
        best = max(best, total)
        if total >= best - 1e-12:
            candidates.append((profile, total, violation, stable))
    maximizers, flags, worst = [], [], 0.0
    for profile, total, violation, stable in candidates:
        if total >= best - 1e-12:
            maximizers.append(profile)
            flags.append(stable)
            worst = max(worst, violation)
    min_r = min(frustrations) if frustrations else None
    return (EquilibriumSet(profiles=profiles, frustrations=frustrations, min_r=min_r),
            MaximizerReport(maximizers=maximizers, in_equilibrium_set=flags,
                            worst_violation=worst, max_aggregate=best))


def reference_equilibria(c, s, cfg):
    """Pass one: every profile against every unilateral deviation."""
    ev = _ProfileEvaluator(c, s, cfg)
    profiles, frustrations = [], []
    for profile in itertools.product(range(cfg.strategies_per_player), repeat=cfg.players):
        u, u_dev, r = reference_evaluate(ev, profile)
        if np.all(u_dev - u[:, None] <= 1e-12):
            profiles.append(profile)
            frustrations.append(r)
    return profiles, frustrations


def reference_report(c, s, cfg):
    """The three-pass oracle: equilibria, then equilibria again plus a maximizer pass."""
    profiles, frustrations = reference_equilibria(c, s, cfg)
    equilibria = set(reference_equilibria(c, s, cfg)[0])
    ev = _ProfileEvaluator(c, s, cfg)
    best, evaluated = -np.inf, []
    for profile in itertools.product(range(cfg.strategies_per_player), repeat=cfg.players):
        u, u_dev, _ = reference_evaluate(ev, profile)
        total = float(u.sum())
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
    eq = enumerate_equilibria(c, s, cfg)
    values = [correlated_payoff(c, (k,), 0, cfg) for k in range(3)]
    best = max(values)
    expect = {(k,) for k in range(3) if values[k] >= best - 1e-12}
    assert set(eq.profiles) == expect


def test_single_strategy_profile_is_trivial_equilibrium(rng):
    cfg, s, c = small_instance(rng, players=3, strategies=1)
    eq = enumerate_equilibria(c, s, cfg)
    assert eq.profiles == [(0, 0, 0)]
    assert eq.min_r == pytest.approx(eq.frustrations[0])


def test_seeded_tiny_game_equilibria_verified_independently():
    # every member re-verified through the count-based payoff evaluator
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    s = build_simplex(y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(12))
    eq = enumerate_equilibria(c, s, cfg)
    assert eq.count > 0
    for profile in eq.profiles:
        for i in range(cfg.players):
            base = correlated_payoff(c, profile, i, cfg)
            for dev in range(cfg.strategies_per_player):
                alt = list(profile)
                alt[i] = dev
                assert correlated_payoff(c, tuple(alt), i, cfg) <= base + 1e-12


def test_two_evaluators_agree_everywhere(rng):
    # dot-product route vs direct count resolution, all profiles of small games
    for _ in range(10):
        cfg, s, c = small_instance(rng, players=3)
        profiles = list(itertools.product(range(cfg.strategies_per_player),
                                          repeat=cfg.players))
        block_u, _, block_r = _ProfileEvaluator(c, s, cfg).evaluate(profiles)
        assert block_u.shape == (len(profiles), cfg.players)
        for profile, u, r in zip(profiles, block_u, block_r):
            for i in range(cfg.players):
                assert u[i] == pytest.approx(
                    correlated_payoff(c, profile, i, cfg), abs=1e-12)
            p = MixedProfile.pure(np.array(profile), cfg.strategies_per_player)
            assert r == pytest.approx(frustration(c, p, s, cfg), abs=1e-12)


def test_anti_coordination_equilibria():
    cfg, s, c = anti_coordination_game()
    eq = enumerate_equilibria(c, s, cfg)
    assert set(eq.profiles) == {(0, 1), (1, 0)}
    assert eq.min_r == pytest.approx(0.0, abs=1e-14)
    # coordinated profiles land both players on one node: R = 2
    _, _, r = _ProfileEvaluator(c, s, cfg).evaluate([(0, 0)])
    assert r[0] == pytest.approx(2.0)


def test_exact_price_of_anarchy_zero_when_balanced_profile_exists():
    cfg, s, c = anti_coordination_game()
    assert enumerate_equilibria(c, s, cfg).min_r == pytest.approx(0.0, abs=1e-14)


def test_no_pure_equilibrium_is_reported_not_raised():
    # a game can have an empty pure equilibrium set only through slack breaking
    # ties; with one strategy the set is never empty, so check the empty branch
    # directly on a doctored set
    empty = EquilibriumSet(profiles=[], frustrations=[], min_r=None)
    assert empty.count == 0 and empty.min_r is None


def test_budget_enforced():
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=10, nodes=2, signals=1, strategies_per_player=3,
                     strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(0))
    s = build_simplex(y)
    with pytest.raises(BudgetError):
        enumerate_equilibria(c, s, cfg, budget=1000)


def test_learned_plateau_bounded_below_by_oracle(rng):
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    s = build_simplex(y)
    for seed in range(5):
        c = draw_strategy_matrix(cfg, np.random.default_rng(seed))
        min_r = enumerate_equilibria(c, s, cfg).min_r
        result = run(cfg, LearningConfig(gamma=20.0, iterations=1500), seed=seed,
                     matrix=c, simplex=s)
        from simplexgame import expected_frustration
        learned = expected_frustration(c, result.state.profile(), s, cfg)
        assert learned >= min_r - 1e-9


def test_potential_defect_same_strategy_is_zero(rng):
    cfg, s, c = small_instance(rng, strategies=2)
    p = random_profile(rng, cfg.players, cfg.strategies_per_player)
    assert potential_defect(c, p, 0, 1, 1, s, cfg) == 0.0


def test_potential_defect_binary_equal_strengths(rng):
    # every squared vertex norm is 1, so the correction vanishes and the
    # identity still holds to floating point
    cfg, s, c = small_instance(rng, nodes=2)
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=cfg.players, nodes=2, signals=cfg.signals,
                     strategies_per_player=2, strengths=y)
    s = build_simplex(y)
    c = draw_strategy_matrix(cfg, rng)
    p = random_profile(rng, cfg.players, 2)
    for i in range(cfg.players):
        assert abs(potential_defect(c, p, i, 0, 1, s, cfg)) <= 1e-12


def test_potential_defect_random_games(rng):
    for _ in range(25):
        cfg, s, c = small_instance(rng, players=4, nodes=3, signals=3, strategies=2)
        p = random_profile(rng, 4, 2)
        i = int(rng.integers(4))
        assert abs(potential_defect(c, p, i, 0, 1, s, cfg)) <= 1e-12


def test_maximizer_report_binary_equal_strengths(rng):
    # with the correction identically zero, maximizers are exact equilibria
    y = StrengthDistribution(np.array([0.5, 0.5]))
    cfg = GameConfig(players=4, nodes=2, signals=2, strategies_per_player=2,
                     strengths=y)
    s = build_simplex(y)
    for seed in range(5):
        c = draw_strategy_matrix(cfg, np.random.default_rng(100 + seed))
        report = maximizer_equilibrium_report(c, s, cfg)
        assert all(report.in_equilibrium_set)
        assert report.worst_violation <= 1e-12


def test_maximizer_violations_bounded(rng):
    # deviation gain at a maximizer is at most half the squared-norm spread / N
    for seed in range(8):
        gen = np.random.default_rng(300 + seed)
        y = random_proper_strengths(gen, 3)
        cfg = GameConfig(players=4, nodes=3, signals=2, strategies_per_player=2,
                         strengths=y)
        s = build_simplex(y)
        c = draw_strategy_matrix(cfg, gen)
        report = maximizer_equilibrium_report(c, s, cfg)
        sq = np.einsum("rd,rd->r", s.vertices, s.vertices)
        bound = (sq.max() - sq.min()) / (2 * cfg.players) + 1e-12
        assert report.worst_violation <= bound


def test_oracle_report_fields(rng):
    cfg, s, c = small_instance(rng, players=3, strategies=2)
    report = oracle_report(c, s, cfg)
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
    want, profiles, frustrations, maximizers, flags = reference_report(c, s, cfg)
    assert oracle_report(c, s, cfg) == want
    eq = enumerate_equilibria(c, s, cfg)
    assert (eq.profiles, eq.frustrations) == (profiles, frustrations)
    mx = maximizer_equilibrium_report(c, s, cfg)
    assert (mx.maximizers, mx.in_equilibrium_set) == (maximizers, flags)


def _per_profile(cfg):
    return cfg.players * cfg.strategies_per_player * cfg.signals * (cfg.nodes - 1)


def _set_block_rows(monkeypatch, cfg, rows):
    """Make `_scan` evaluate `rows` profiles per block through ORACLE_BLOCK."""
    monkeypatch.setattr(oracle, "ORACLE_BLOCK", rows * _per_profile(cfg))
    assert oracle._block_rows(cfg) == rows


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


def test_blocked_scan_equals_per_profile_scan(monkeypatch):
    # same lists in the same order and the same floats, whatever the block size:
    # one profile per block, and blocks of 2 and 3 (ragged last blocks, of one
    # profile when S^N is odd or 2^N = 1 mod 3)
    games = [anti_coordination_game(), *_random_games(60, 900)]
    for cfg, s, c in games:
        want = reference_scan(c, s, cfg)
        monkeypatch.undo()
        assert oracle._scan(c, s, cfg, oracle.DEFAULT_BUDGET) == want
        for rows in (1, 2, 3):
            _set_block_rows(monkeypatch, cfg, rows)
            assert oracle._scan(c, s, cfg, oracle.DEFAULT_BUDGET) == want


def test_blocked_scan_equals_per_profile_scan_on_benchmark_game(monkeypatch):
    # the benchmark's oracle input (N=15, S=2, M=3, B=3, uniform, seed 7); blocks
    # of 7 leave one profile for the last block, since 2^15 = 1 mod 7
    y = StrengthDistribution.uniform(3)
    cfg = GameConfig(players=15, nodes=3, signals=3, strategies_per_player=2, strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(7))
    s = build_simplex(y)
    want = reference_scan(c, s, cfg)
    assert 1 < oracle._block_rows(cfg) < 2**15
    assert oracle._scan(c, s, cfg, oracle.DEFAULT_BUDGET) == want
    _set_block_rows(monkeypatch, cfg, 7)
    assert oracle._scan(c, s, cfg, oracle.DEFAULT_BUDGET) == want


def test_block_rows_bounded():
    # at least one profile per block; the deviation bets of a block stay within
    # ORACLE_BLOCK floats unless one profile alone needs more
    y = StrengthDistribution.uniform(5)
    for players, signals, strategies in [(15, 3, 2), (2, 1, 1), (4, 5000, 3), (20, 5000, 2)]:
        cfg = GameConfig(players=players, nodes=5, signals=signals,
                         strategies_per_player=strategies, strengths=y)
        rows = oracle._block_rows(cfg)
        assert rows >= 1
        assert rows * _per_profile(cfg) <= max(oracle.ORACLE_BLOCK, _per_profile(cfg))
    # such a game still scans, one profile per block
    cfg = GameConfig(players=4, nodes=5, signals=5000, strategies_per_player=2, strengths=y)
    c = draw_strategy_matrix(cfg, np.random.default_rng(1))
    assert oracle._block_rows(cfg) == 1
    assert oracle._scan(c, build_simplex(y), cfg, 16) == reference_scan(c, build_simplex(y), cfg)


def test_oracle_report_evaluates_each_profile_once(monkeypatch):
    # every profile in exactly one block row, with default and with ragged blocks of 3
    blocks = []
    evaluate = _ProfileEvaluator.evaluate
    monkeypatch.setattr(_ProfileEvaluator, "evaluate",
                        lambda self, profiles: blocks.append(np.array(profiles))
                        or evaluate(self, profiles))
    for rows in (None, 3):
        for cfg, s, c in list(_oracle_games())[:3]:
            if rows is not None:
                _set_block_rows(monkeypatch, cfg, rows)
            blocks.clear()
            oracle_report(c, s, cfg)
            evaluated = [tuple(p) for block in blocks for p in block.tolist()]
            assert sorted(evaluated) == list(itertools.product(
                range(cfg.strategies_per_player), repeat=cfg.players))
            assert all(1 <= len(block) <= oracle._block_rows(cfg) for block in blocks)


def test_check_budget_counts_profiles_up_to_the_budget():
    def config(players, strategies):
        return GameConfig(players=players, nodes=2, signals=1,
                          strategies_per_player=strategies,
                          strengths=StrengthDistribution.uniform(2))

    assert oracle.check_budget(config(3, 2), 8) == 8
    assert oracle.check_budget(config(5, 3)) == 3**5
    assert oracle.check_budget(config(10**12, 1), 1) == 1
    # a 10^12-player count is refused without building S^N
    for players, strategies, budget in [(3, 2, 7), (30, 2, 10**6), (10**12, 2, 10**6),
                                        (5, 1, 0), (2, 10**12, 10**6)]:
        with pytest.raises(BudgetError):
            oracle.check_budget(config(players, strategies), budget)
