"""Brute-force ground truth for tiny games.

Enumerates every pure strategy profile once, checks the no-profitable-deviation
condition on signal-averaged payoffs, and reports the minimum frustration
over the equilibrium set (the game's optimistic price of anarchy) together
with the maximizers of the aggregate payoff; `enumerate_equilibria`,
`maximizer_equilibrium_report` and `oracle_report` are views of that one pass.
Payoffs here are dot products with the (N, S, M, B-1) strategy vertices,
independent of the count-space evaluators in `game` (which only
`potential_defect` calls).  The pass evaluates blocks of consecutive profiles
(in `itertools.product` order) per NumPy call; a block's largest array, the
(P, N, S, M, B-1) deviation bets, holds at most ORACLE_BLOCK floats unless one
profile alone needs more; the block temporaries are written into work arrays
allocated once per scan, and the scan keeps only the equilibria and the
maximizer candidates, so memory does not grow with S^N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .game import GameConfig, MixedProfile, StrategyMatrix, strategy_payoffs
from .geometry import Simplex

DEFAULT_BUDGET = 10**6
EQUILIBRIUM_SLACK = 1e-12  # deviation gain still counted as no gain
TIE_TOL = 1e-12            # aggregate shortfall still counted as a maximizer
ORACLE_BLOCK = 1 << 15     # floats in one block's deviation bets (256 KB)


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
    """Dot-product payoff evaluation for all pure profiles of one game."""

    def __init__(self, c: StrategyMatrix, simplex: Simplex, config: GameConfig):
        if c.shape != (config.players, config.strategies_per_player, config.signals):
            raise ValidationError("strategy matrix shape does not match config")
        self.config = config
        self.qc = simplex.vertices[c.entries.astype(np.int64)]  # (N,S,M,D)
        self.n, s = self.qc.shape[:2]
        self.rows_of_qc = self.qc.reshape(self.n * s, *self.qc.shape[2:])
        self.row_offset = s * np.arange(self.n)   # player i's strategy k is row i*S + k
        self.rows = 0

    def _work(self, p: int) -> tuple:
        """Views of the first p rows of the work arrays, grown when p exceeds them."""
        if p > self.rows:
            n, s, m, d = self.qc.shape
            self.rows = p
            self.arrays = (np.empty((p, n, m, d)), np.empty((p, m, d)),
                           np.empty((p, n, m)), np.empty((p, n, s, m, d)),
                           np.empty((p, n, s, m)))
        return tuple(a[:p] for a in self.arrays)

    def evaluate(self, profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a (P, N) block of pure profiles: averaged payoffs (P, N), averaged
        deviation payoffs (P, N, S) and frustrations (P,)."""
        idx = np.asarray(profiles, dtype=np.int64)
        chosen, b, u, b_dev, u_dev = self._work(idx.shape[0])
        np.take(self.rows_of_qc, idx + self.row_offset, axis=0, out=chosen)  # (P,N,M,D)
        np.sum(chosen, axis=1, out=b)                                    # (P,M,D)
        np.einsum("pimd,pmd->pim", chosen, b, out=u)
        np.negative(u, out=u)
        u /= self.n
        # deviation of player i to strategy s: shift b by the player's own swap
        np.subtract(b[:, None, None], chosen[:, :, None], out=b_dev)     # (P,N,S,M,D)
        b_dev += self.qc
        np.einsum("ismd,pismd->pism", self.qc, b_dev, out=u_dev)
        np.negative(u_dev, out=u_dev)
        u_dev /= self.n
        r = np.einsum("pmd,pmd->p", b, b) / (b.shape[1] * self.n * (self.config.nodes - 1))
        return u.mean(axis=2), u_dev.mean(axis=3), r


def _block_rows(config: GameConfig) -> int:
    """Profiles per evaluation block: P * N * S * M * (B-1) <= ORACLE_BLOCK, P >= 1."""
    per_profile = (config.players * config.strategies_per_player * config.signals
                   * (config.nodes - 1))
    return max(1, ORACLE_BLOCK // per_profile)


def check_budget(config: GameConfig, budget: int = DEFAULT_BUDGET) -> int:
    """S^N, the number of pure profiles; BudgetError when it exceeds the budget."""
    s, n = config.strategies_per_player, config.players
    # S^N >= 2^N: once 2^min(N, 64) passes the budget, S^N (N may be huge) is never built
    if (s > 1 and 2 ** min(n, 64) > budget) or s ** n > budget:
        raise BudgetError(f"{s}^{n} pure profiles exceed the enumeration budget of {budget}")
    return s ** n


def _scan(c: StrategyMatrix, simplex: Simplex, config: GameConfig,
          budget: int) -> tuple[EquilibriumSet, MaximizerReport]:
    """One pass over all S^N pure profiles: the equilibria and the maximizers.

    A profile is an equilibrium when no unilateral deviation gains more than
    EQUILIBRIUM_SLACK.  Maximizer candidates are the profiles within TIE_TOL of
    the running best aggregate; the final best then filters them.
    """
    strategies = config.strategies_per_player
    count = check_budget(config, budget)
    ev = _ProfileEvaluator(c, simplex, config)
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


def enumerate_equilibria(c: StrategyMatrix, simplex: Simplex, config: GameConfig,
                         budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Exhaustively test all S^N pure profiles against every unilateral deviation."""
    return _scan(c, simplex, config, budget)[0]


def potential_defect(c: StrategyMatrix, p: MixedProfile, i: int, s1: int, s2: int,
                     simplex: Simplex, config: GameConfig) -> float:
    """Residual of the exact potential identity between two strategies of player i.

    aggregate(rest; s2) - aggregate(rest; s1) equals twice player i's own payoff
    difference plus the signal-averaged difference of squared vertex norms over N;
    the returned residual is zero up to floating point at any finite size.
    """
    s_count = config.strategies_per_player
    if not (0 <= s1 < s_count and 0 <= s2 < s_count):
        raise ValidationError("strategy indices out of range")
    per_strategy = strategy_payoffs(c, p, simplex, config)

    def aggregate_with(i_pure: int) -> float:
        rows = p.rows.copy()
        rows[i] = 0.0
        rows[i, i_pure] = 1.0
        pinned = strategy_payoffs(c, MixedProfile(rows), simplex, config)
        return float(np.einsum("is,is->", rows, pinned))

    sq = np.einsum("rd,rd->r", simplex.vertices, simplex.vertices)
    own_sq = sq[c.entries[i].astype(np.int64)].mean(axis=1)  # (S,) averaged over signals
    lhs = aggregate_with(s2) - aggregate_with(s1)
    own = 2.0 * (per_strategy[i, s2] - per_strategy[i, s1])
    correction = (own_sq[s2] - own_sq[s1]) / config.players
    return float(lhs - own - correction)


def maximizer_equilibrium_report(c: StrategyMatrix, simplex: Simplex,
                                 config: GameConfig,
                                 budget: int = DEFAULT_BUDGET) -> MaximizerReport:
    """Locate pure maximizers of the aggregate averaged payoff and check each
    against the equilibrium condition, reporting the worst deviation gain."""
    return _scan(c, simplex, config, budget)[1]


def oracle_report(c: StrategyMatrix, simplex: Simplex, config: GameConfig,
                  budget: int = DEFAULT_BUDGET) -> dict:
    """JSON-ready summary: equilibrium count, min frustration, maximizer check."""
    eq, mx = _scan(c, simplex, config, budget)
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
