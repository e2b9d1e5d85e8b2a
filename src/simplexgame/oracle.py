"""Brute-force ground truth for tiny games.

Enumerates every pure strategy profile once, checks the no-profitable-deviation
condition on signal-averaged payoffs, and reports the minimum frustration
over the equilibrium set (the game's optimistic price of anarchy) together
with the maximizers of the aggregate payoff; `enumerate_equilibria`,
`maximizer_equilibrium_report` and `oracle_report` are views of that one pass.
Payoffs here are dot products with the (N, S, M, B-1) strategy vertices,
independent of the count-space evaluators in `game` (which only
`potential_defect` calls).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .game import GameConfig, MixedProfile, StrategyMatrix, strategy_payoffs
from .geometry import Simplex

DEFAULT_BUDGET = 10**6
EQUILIBRIUM_SLACK = 1e-12  # deviation gain still counted as no gain
TIE_TOL = 1e-12            # aggregate shortfall still counted as a maximizer


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
        self.n = config.players

    def evaluate(self, profile) -> tuple[np.ndarray, np.ndarray, float]:
        """(averaged payoffs (N,), averaged deviation payoffs (N,S), frustration)."""
        idx = np.asarray(profile, dtype=np.int64)
        chosen = self.qc[np.arange(self.n), idx]          # (N,M,D)
        b = chosen.sum(axis=0)                            # (M,D)
        u = -np.einsum("imd,md->im", chosen, b) / self.n
        # deviation of player i to strategy s: shift b by the player's own swap
        b_dev = b[None, None] - chosen[:, None] + self.qc  # (N,S,M,D)
        u_dev = -np.einsum("ismd,ismd->ism", self.qc, b_dev) / self.n
        r = float(np.einsum("md,md->", b, b)) / (b.shape[0] * self.n * (self.config.nodes - 1))
        return u.mean(axis=1), u_dev.mean(axis=2), r


def _scan(c: StrategyMatrix, simplex: Simplex, config: GameConfig,
          budget: int) -> tuple[EquilibriumSet, MaximizerReport]:
    """One pass over all S^N pure profiles: the equilibria and the maximizers.

    A profile is an equilibrium when no unilateral deviation gains more than
    EQUILIBRIUM_SLACK.  Maximizer candidates are the profiles within TIE_TOL of
    the running best aggregate; the final best then filters them.
    """
    count = config.strategies_per_player ** config.players
    if count > budget:
        raise BudgetError(
            f"{count} pure profiles exceed the enumeration budget of {budget}")
    ev = _ProfileEvaluator(c, simplex, config)
    profiles, frustrations = [], []
    best, candidates = -np.inf, []
    for profile in itertools.product(range(config.strategies_per_player),
                                     repeat=config.players):
        u, u_dev, r = ev.evaluate(profile)
        violation = float(np.max(u_dev - u[:, None]))
        stable = violation <= EQUILIBRIUM_SLACK
        if stable:
            profiles.append(profile)
            frustrations.append(r)
        total = float(u.sum())
        best = max(best, total)
        if total >= best - TIE_TOL:
            candidates.append((profile, total, violation, stable))

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


def exact_price_of_anarchy(c: StrategyMatrix, simplex: Simplex, config: GameConfig,
                           budget: int = DEFAULT_BUDGET) -> float | None:
    """Minimum frustration over the pure equilibrium set; None if the set is empty."""
    return enumerate_equilibria(c, simplex, config, budget).min_r


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
