"""Brute-force ground truth for tiny games.

Enumerates every pure strategy profile once, checks the no-profitable-deviation
condition on signal-averaged payoffs, and reports the minimum frustration
over the equilibrium set (the game's optimistic price of anarchy) together
with the maximizers of the aggregate payoff; `enumerate_equilibria`,
`maximizer_equilibrium_report` and `oracle_report` are views of that one pass.
Payoffs here are dot products with the (N, S, M, B-1) strategy vertices of
the simplex that `geometry.build_simplex` makes from the config's strengths,
independent of the count-space evaluators in `game` (which only
`potential_defect` calls).  A profile's aggregate bet b is a sum over
players, so it splits into the bets of a high half (the first players) and
a low half (the rest).  Each half's bets are contracted once with the
(N S, M (B-1)) vertex table; a profile's contractions q_is . b are the sum
of its halves', |b|^2 = |b_high|^2 + 2 b_high . b_low + |b_low|^2, and every
deviation payoff is read from the contractions and the game's vertex
overlaps, so no per-deviation bet is built.  The low half's tables are built
once per game and the high half's a chunk of rows at a time, and each block
pairs a few high-half rows with all low-half rows, so blocks follow
`itertools.product` order without decoding any profile's digits.  Every sum
runs in a fixed order, so a profile's floats do not depend on the block it
is in.  The halves' tables and a block's arrays hold at most ORACLE_BLOCK
floats, unless one profile alone needs more; the scan keeps only the
equilibria and the maximizer candidates, so memory does not grow with S^N.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .game import GameConfig, MixedProfile, StrategyMatrix, check_matrix, strategy_payoffs
from .geometry import build_simplex

DEFAULT_BUDGET = 10**6
EQUILIBRIUM_SLACK = 1e-12  # deviation gain still counted as no gain
TIE_TOL = 1e-12            # aggregate shortfall still counted as a maximizer
ORACLE_BLOCK = 1 << 14     # floats in a low-half table or one block array (128 KiB)


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

    A profile's bet splits as b = b_high + b_low over the first `high_players`
    players and the rest, so q_is . b is the sum of the halves' contractions
    and |b|^2 = |b_high|^2 + 2 b_high . b_low + |b_low|^2, where
    b_high . b_low = sum over low players i of q_ic_i . b_high is read from
    the high half's contraction.  The low half's tables (one row per low-half
    profile, in itertools.product order) are built once per game and the high
    half's by `half`, `chunk_rows` rows at a time; `evaluate` pairs up to
    `block_rows` high-half rows with all low-half rows.
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
        self.high_players, self.chunk_rows, self.block_rows = _plan(config)
        low = list(itertools.product(range(s), repeat=self.n - self.high_players))
        self.low_rows = (np.array(low, dtype=np.int64).reshape(len(low), -1)
                         + self.row_offset[self.high_players:])
        self.low_contraction, self.low_norms = self.half(self.low_rows)
        # a block's profile k reads its contractions from row k of the (P, N*S) bets
        self.bet_offset = self.n * s * np.arange(self.block_rows * len(low))[:, None]

    def half(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """For (P, k) table rows of k players, with b their bets summed in player
        order: the contractions q_is . b (P, N*S) and |b|^2 (P,)."""
        b = np.zeros((rows.shape[0], self.table.shape[1]))
        for column in rows.T:
            b += np.take(self.table, column, axis=0)
        # row sums, not einsum: einsum's buffered sums over rows longer than
        # 8192 floats would depend on how many rows it is given
        return np.einsum("px,xk->pk", b, self.columns), (b * b).sum(axis=1)

    def evaluate(self, high_rows, high_bets, high_norms) -> tuple[np.ndarray, ...]:
        """The H L profiles pairing each of H <= block_rows high-half profiles,
        given as their (H, high_players) table rows and `half` of them, with
        every low-half profile, high-half major: their (H L, N) table rows,
        averaged payoffs (H L, N), averaged deviation payoffs (H L, N, S) and
        frustrations (H L,)."""
        h, low = len(high_rows), len(self.low_rows)
        p, ns = h * low, self.table.shape[0]
        bets = (high_bets[:, None] + self.low_contraction).reshape(p, ns)   # q_is . b
        # b_high . b_low: each low player's column of the high contractions,
        # summed in player order into (L, H)
        cross = np.zeros((low, h))
        for played in np.take(high_bets.T, self.low_rows.T, axis=0):
            cross += played
        norms = (high_norms[:, None] + 2 * cross.T + self.low_norms).reshape(p)
        rows = np.empty((h, low, self.n), dtype=np.int64)
        rows[:, :, :self.high_players] = high_rows[:, None]
        rows[:, :, self.high_players:] = self.low_rows
        rows = rows.reshape(p, self.n)
        scale = -(self.n * self.m)
        u = np.take(bets, rows + self.bet_offset[:p])
        u /= scale
        u_dev = np.take(self.played_overlap, rows, axis=0)
        np.subtract(bets.reshape(p, self.n, -1), u_dev, out=u_dev)
        u_dev += self.own_overlap
        u_dev /= scale
        return rows, u, u_dev, norms / (self.m * self.n * (self.config.nodes - 1))


def _plan(config: GameConfig) -> tuple[int, int, int]:
    """(a, C, H): the first a players form the high half, whose tables are
    built C rows at a time, and a block pairs H of those rows with all
    S^(N-a) rows of the low half.

    The low half is the last ceil(N/2) players, or fewer when its tables,
    S^(N-a) rows of max(N S, M (B-1)) floats, would exceed ORACLE_BLOCK, and
    C is the largest multiple of H whose high-half rows fit the same bound.  A
    block's H S^(N-a) profiles of N S floats stay within ORACLE_BLOCK, unless
    one profile alone needs more.
    """
    players, strategies = config.players, config.strategies_per_player
    per_profile = players * strategies
    width = max(per_profile, config.signals * (config.nodes - 1))
    low = 0
    while low < players - players // 2 and strategies ** (low + 1) * width <= ORACLE_BLOCK:
        low += 1
    block = max(1, ORACLE_BLOCK // max(strategies ** low * per_profile, width))
    return players - low, max(1, ORACLE_BLOCK // width) // block * block, block


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
    check_budget(config, budget)
    ev = _ProfileEvaluator(c, config)
    # high-half rows in itertools.product order, each paired with the low-half
    # rows in that order: block rows follow itertools.product(range(S), repeat=N)
    high = itertools.product(range(config.strategies_per_player), repeat=ev.high_players)
    profiles, frustrations = [], []
    best, candidates = -np.inf, []
    while chunk := list(itertools.islice(high, ev.chunk_rows)):
        high_rows = (np.array(chunk, dtype=np.int64).reshape(len(chunk), ev.high_players)
                     + ev.row_offset[:ev.high_players])
        high_bets, high_norms = ev.half(high_rows)
        for start in range(0, len(chunk), ev.block_rows):
            part = slice(start, start + ev.block_rows)
            rows, u, u_dev, r = ev.evaluate(high_rows[part], high_bets[part], high_norms[part])
            u_dev -= u[:, :, None]                 # each deviation's gain
            violation = u_dev.reshape(len(u), -1).max(axis=1)
            stable = violation <= EQUILIBRIUM_SLACK
            total = u.sum(axis=1)
            best = max(best, float(total.max()))
            near = total >= best - TIE_TOL
            if stable.any():
                profiles.extend(map(tuple, (rows[stable] - ev.row_offset).tolist()))
                frustrations.extend(r[stable].tolist())
            if near.any():
                candidates.extend(zip(map(tuple, (rows[near] - ev.row_offset).tolist()),
                                      total[near].tolist(), violation[near].tolist(),
                                      stable[near].tolist()))

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
    return _summary(config, *_scan(c, config, budget))


def _summary(config: GameConfig, eq: EquilibriumSet, mx: MaximizerReport) -> dict:
    """`oracle_report`'s fields from one scan's equilibria and maximizers."""
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
