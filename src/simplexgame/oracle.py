"""Brute-force ground truth for tiny games.

Enumerates every pure strategy profile once, checks the no-profitable-deviation
condition on signal-averaged payoffs, and reports the minimum frustration
over the equilibrium set (the game's optimistic price of anarchy) together
with the maximizers of the aggregate payoff; `enumerate_equilibria`,
`maximizer_equilibrium_report` and `oracle_report` are views of that one pass.
Payoffs here are dot products with the (N, S, M, B-1) strategy vertices of
the simplex that `geometry.build_simplex` makes from the config's strengths,
independent of the count-space evaluators in `game` (which only
`potential_defect` calls).  The pass evaluates blocks of consecutive profiles
(in `itertools.product` order) with a few NumPy calls per block: a block's
aggregate bets are contracted once with the (N S, M (B-1)) vertex table, and
every deviation payoff is read from that contraction and the game's vertex
overlaps, so no per-deviation bet is built.  Every sum runs in a fixed order,
so a profile's floats do not depend on the block it is in.  A block's
contraction takes at most ORACLE_BLOCK products, and none of its arrays holds
more floats, unless one profile alone needs more; the scan keeps only the
equilibria and the maximizer candidates, so memory does not grow with S^N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .game import GameConfig, MixedProfile, StrategyMatrix, check_matrix, strategy_payoffs
from .geometry import build_simplex

DEFAULT_BUDGET = 10**6
EQUILIBRIUM_SLACK = 1e-12  # deviation gain still counted as no gain
TIE_TOL = 1e-12            # aggregate shortfall still counted as a maximizer
ORACLE_BLOCK = 1 << 15     # products in one block's contraction, P * N S * M (B-1)


@dataclass(frozen=True)
class EquilibriumSet:
    """All pure equilibria of one drawn game, with their frustration levels."""

    profiles: list
    frustrations: list
    min_r: float | None

    @property
    def count(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class MaximizerReport:
    """Pure maximizers of the aggregate signal-averaged payoff vs equilibria."""

    maximizers: list
    in_equilibrium_set: list
    worst_violation: float
    max_aggregate: float


class _ProfileEvaluator:
    """Dot-product payoff evaluation for all pure profiles of one game.

    With q_ism player i's vertex for strategy s under signal m and b_pm a
    profile's aggregate bet, a deviation to s (in place of the played c_i) pays
    -sum_m q_ism . (b_pm - q_icm + q_ism) / (N M), expanded as
    -((q_is . b_p) - H[i, s, c_i] + H[i, s, s]) / (N M) with the per-game
    vertex overlaps H[i, s, k] = sum_m q_ism . q_ikm; the played payoff is
    -(q_ic . b_p) / (N M).
    """

    def __init__(self, c: StrategyMatrix, config: GameConfig):
        check_matrix(c, config)
        self.config = config
        qc = build_simplex(config.strengths).vertices[c.entries.astype(np.int64)]   # (N,S,M,D)
        self.n, s, self.m = qc.shape[:3]
        # (N*S, M*D) vertex table: player i's strategy k is row i*S + k
        self.table = qc.reshape(self.n * s, -1)
        self.columns = np.ascontiguousarray(self.table.T)   # (M*D, N*S)
        self.row_offset = s * np.arange(self.n)
        overlap = np.einsum("ismd,ikmd->isk", qc, qc)       # H (N,S,S)
        # row i*S + k is H[i, :, k], the overlaps when player i plays k
        self.played_overlap = overlap.transpose(0, 2, 1).reshape(self.n * s, s)
        self.own_overlap = np.einsum("iss->is", overlap)    # H[i, s, s]

    def evaluate(self, profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a (P, N) block of pure profiles: averaged payoffs (P, N), averaged
        deviation payoffs (P, N, S) and frustrations (P,)."""
        rows = np.asarray(profiles, dtype=np.int64) + self.row_offset   # (P,N)
        p, ns = rows.shape[0], self.table.shape[0]
        chosen = np.take(self.table, rows.T, axis=0)                   # (N,P,M*D)
        b = chosen[0].copy()
        for vertices in chosen[1:]:   # in player order, so b's bits do not depend on P
            b += vertices
        bets = np.einsum("px,xk->pk", b, self.columns)                 # q_is . b_p
        scale = -(self.n * self.m)
        u = np.take(bets, rows + ns * np.arange(p)[:, None]) / scale   # (P,N)
        u_dev = bets.reshape(p, self.n, -1) - np.take(self.played_overlap, rows, axis=0)
        u_dev += self.own_overlap
        u_dev /= scale
        r = np.einsum("px,px->p", b, b) / (self.m * self.n * (self.config.nodes - 1))
        return u, u_dev, r


def _block_rows(config: GameConfig) -> int:
    """Profiles per evaluation block: P * N * S * M * (B-1) <= ORACLE_BLOCK, P >= 1."""
    per_profile = (config.players * config.strategies_per_player * config.signals
                   * (config.nodes - 1))
    return max(1, ORACLE_BLOCK // per_profile)


def check_budget(config: GameConfig, budget: int = DEFAULT_BUDGET) -> int:
    """S^N, the number of pure profiles; BudgetError when it exceeds the budget,
    ValidationError when the budget is negative."""
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    s, n = config.strategies_per_player, config.players
    # S^N >= 2^N: once 2^min(N, 64) passes the budget, S^N (N may be huge) is never built
    if (s > 1 and 2 ** min(n, 64) > budget) or s ** n > budget:
        raise BudgetError(f"{s}^{n} pure profiles exceed the enumeration budget of {budget}")
    return s ** n


def _scan(c: StrategyMatrix, config: GameConfig,
          budget: int) -> tuple[EquilibriumSet, MaximizerReport]:
    """One pass over all S^N pure profiles: the equilibria and the maximizers.

    A profile is an equilibrium when no unilateral deviation gains more than
    EQUILIBRIUM_SLACK.  Maximizer candidates are the profiles within TIE_TOL of
    the running best aggregate; the final best then filters them.
    """
    strategies = config.strategies_per_player
    count = check_budget(config, budget)
    ev = _ProfileEvaluator(c, config)
    rows = _block_rows(config)
    # block rows are the base-S digits of start..stop-1, player 0 most
    # significant: the rows of itertools.product(range(S), repeat=N)
    place = strategies ** np.arange(config.players - 1, -1, -1)
    profiles, frustrations = [], []
    best, candidates = -np.inf, []
    for start in range(0, count, rows):
        block = np.arange(start, min(start + rows, count))[:, None] // place % strategies
        u, u_dev, r = ev.evaluate(block)
        violation = (u_dev - u[:, :, None]).max(axis=(1, 2))
        stable = violation <= EQUILIBRIUM_SLACK
        profiles.extend(map(tuple, block[stable].tolist()))
        frustrations.extend(r[stable].tolist())
        total = u.sum(axis=1)
        best = max(best, float(total.max()))
        near = total >= best - TIE_TOL
        candidates.extend(zip(map(tuple, block[near].tolist()), total[near].tolist(),
                              violation[near].tolist(), stable[near].tolist()))

    maximizers, flags, worst = [], [], 0.0
    for profile, total, violation, stable in candidates:
        if total >= best - TIE_TOL:
            maximizers.append(profile)
            flags.append(stable)
            worst = max(worst, violation)
    min_r = min(frustrations) if frustrations else None
    return (EquilibriumSet(profiles=profiles, frustrations=frustrations, min_r=min_r),
            MaximizerReport(maximizers=maximizers, in_equilibrium_set=flags,
                            worst_violation=worst, max_aggregate=best))


def enumerate_equilibria(c: StrategyMatrix, config: GameConfig,
                         budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustively test all S^N pure profiles against every unilateral deviation."""
    return _scan(c, config, budget)[0]


def potential_defect(c: StrategyMatrix, p: MixedProfile, i: int, s1: int, s2: int,
                     config: GameConfig) -> float:
    """Residual of the exact potential identity between two strategies of player i.

    aggregate(rest; s2) - aggregate(rest; s1) equals twice player i's own payoff
    difference plus the signal-averaged difference of squared vertex norms over N;
    the returned residual is zero up to floating point at any finite size.
    """
    s_count = config.strategies_per_player
    if not (0 <= s1 < s_count and 0 <= s2 < s_count):
        raise ValidationError("strategy indices out of range")
    per_strategy = strategy_payoffs(c, p, config)

    def aggregate_with(i_pure: int) -> float:
        rows = p.rows.copy()
        rows[i] = 0.0
        rows[i, i_pure] = 1.0
        pinned = strategy_payoffs(c, MixedProfile(rows), config)
        return float(np.einsum("is,is->", rows, pinned))

    sq = build_simplex(config.strengths).squared_norms
    own_sq = sq[c.entries[i].astype(np.int64)].mean(axis=1)  # (S,) averaged over signals
    lhs = aggregate_with(s2) - aggregate_with(s1)
    own = 2.0 * (per_strategy[i, s2] - per_strategy[i, s1])
    correction = (own_sq[s2] - own_sq[s1]) / config.players
    return float(lhs - own - correction)


def maximizer_equilibrium_report(c: StrategyMatrix, config: GameConfig,
                                 budget: int = DEFAULT_BUDGET) -> MaximizerReport:
    """Locate pure maximizers of the aggregate averaged payoff and check each
    against the equilibrium condition, reporting the worst deviation gain."""
    return _scan(c, config, budget)[1]


def oracle_report(c: StrategyMatrix, config: GameConfig,
                  budget: int = DEFAULT_BUDGET) -> dict:
    """JSON-ready summary: equilibrium count, min frustration, maximizer check."""
    eq, mx = _scan(c, config, budget)
    return {
        "players": config.players,
        "nodes": config.nodes,
        "signals": config.signals,
        "strategies_per_player": config.strategies_per_player,
        "equilibrium_count": eq.count,
        "min_r": eq.min_r,
        "no_pure_equilibrium": eq.count == 0,
        "maximizer_count": len(mx.maximizers),
        "maximizers_all_equilibria": all(mx.in_equilibrium_set) if mx.maximizers else None,
        "maximizer_worst_violation": mx.worst_violation,
        "max_aggregate_payoff": mx.max_aggregate,
    }
