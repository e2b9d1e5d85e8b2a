"""Brute-force ground truth for tiny games.

Enumerates every pure strategy profile once, checks the no-profitable-deviation
condition on signal-averaged payoffs, and reports the minimum frustration
over the equilibrium set (the game's optimistic price of anarchy) together
with the maximizers of the aggregate payoff; `enumerate_equilibria`,
`maximizer_equilibrium_report` and `oracle_report` are views of that one pass.
Payoffs here are dot products with the (N, S, M, B-1) strategy vertices of
the simplex that `geometry.build_simplex` makes from the config's strengths,
independent of the count-space evaluators in `game` (which only
`potential_defect` calls); `reward_vector`, the vertex form of the learning
rule's reward, builds its simplex the same way.  A profile's aggregate bet b
is a sum over players, so it splits into the bets of a high half (the first
players) and a low half (the rest).  Each half's bets are contracted once
with the (N S, M (B-1)) vertex table; a profile's contractions q_is . b are
the sum of its halves', |b|^2 = |b_high|^2 + 2 b_high . b_low + |b_low|^2,
and every deviation payoff is read from the contractions and the game's
vertex overlaps, so no per-deviation bet is built.  The low half's tables are built
once per game and the high half's a chunk of rows at a time, and each block
pairs a few high-half rows with all low-half rows, so blocks follow
`itertools.product` order without decoding any profile's digits.  A block's
arrays are laid out profile-minor, with its profiles on the last axis, so
every broadcast and every max, min or sum over players or strategies runs
elementwise along that axis.  Every sum runs in a fixed order (sums over
players fold in player order), so a profile's floats do not depend on the
block it is in.  The halves' tables, the low half's per-game tables and a
block's arrays hold at most ORACLE_BLOCK numbers, unless one profile alone
needs more; the scan keeps only the equilibria and the maximizer candidates,
so memory does not grow with S^N.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, check_allocation
from .game import (GameConfig, MixedProfile, PureInstance, StrategyMatrix, check_matrix,
                   strategy_payoffs)
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
    the high half's contraction.  The low half's tables (one column per
    low-half profile, in itertools.product order) are built once per game:
    its players' table rows, their played contractions and overlaps, and the
    indices that gather q_ic_i . b_high for a block.  The high half's are built
    by `half`, `chunk_rows` rows at a time; `evaluate` pairs up to
    `block_rows` high-half rows with all low-half rows.

    Dividing by the negative -N M reverses the order of a player's deviation
    terms and subtracting its played payoff keeps it, and rounding keeps both
    steps monotone, so its best deviation payoff is its smallest term divided
    once and its largest gain is that payoff less the played one: the same
    floats as dividing every term.  `evaluate` divides only that one.
    """

    def __init__(self, c: StrategyMatrix, config: GameConfig):
        check_matrix(c, config)
        n, s, m = c.shape
        d = config.nodes - 1
        # the table as int64, its vertices, their transpose, and two (N, S, S) overlaps
        check_allocation(8 * n * s * (m * (1 + 2 * d) + 2 * s),
                         f"the oracle's {n} x {s} x {m} x {d} vertex tables")
        self.config = config
        qc = build_simplex(config.strengths).vertices[c.entries.astype(np.int64)]   # (N,S,M,D)
        self.n, self.m = n, m
        # (N*S, M*D) vertex table: player i's strategy k is row i*S + k
        self.table = qc.reshape(n * s, -1)
        self.columns = np.ascontiguousarray(self.table.T)   # (M*D, N*S)
        self.row_offset = s * np.arange(n)
        overlap = np.einsum("ismd,ikmd->isk", qc, qc)       # H (N,S,S)
        # row i*S + k is H[i, :, k], the overlaps when player i plays k
        self.played_overlap = overlap.transpose(0, 2, 1).reshape(n * s, s)
        self.own_overlap = np.einsum("iss->is", overlap)    # H[i, s, s]
        self.high_players, self.chunk_rows, self.block_rows = _plan(config)
        a = self.high_players
        low = list(itertools.product(range(s), repeat=n - a))
        self.low_rows = (np.array(low, dtype=np.int64).reshape(len(low), -1).T
                         + self.row_offset[a:, None])                    # (N-a, L)
        contraction, self.low_norms = self.half(self.low_rows)          # (L, N*S)
        self.low_bets = contraction.T.reshape(n, s, 1, -1).copy()       # (N, S, 1, L)
        # each low player's played contraction (N-a, L) and overlaps (N-a, S, 1, L)
        self.low_played = np.take_along_axis(contraction, self.low_rows.T, axis=1).T.copy()
        self.low_overlap = self.played_overlap[self.low_rows].transpose(0, 2, 1)[:, :, None].copy()
        # entry (i, j, l) is q_ic_i . b_high's index in a block's (H, N*S) high contractions
        self.low_gather = (n * s * np.arange(self.block_rows)[:, None]
                           + self.low_rows[:, None])                    # (N-a, block_rows, L)

    def half(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """For (k, P) table rows of k players, with b their bets summed in player
        order: the contractions q_is . b (P, N*S) and |b|^2 (P,)."""
        b = np.zeros((rows.shape[1], self.table.shape[1]))
        for column in rows:
            b += np.take(self.table, column, axis=0)
        # row sums, not einsum: einsum's buffered sums over rows longer than
        # 8192 floats would depend on how many rows it is given
        return np.einsum("px,xk->pk", b, self.columns), (b * b).sum(axis=1)

    def evaluate(self, high_rows, high_bets, high_norms) -> tuple[np.ndarray, ...]:
        """The H L profiles pairing each of H <= block_rows high-half profiles,
        given as their (high_players, H) table rows and `half` of them, with
        every low-half profile, high-half major, laid out profile-minor: their
        (N, H L) table rows, averaged payoffs (N, H L), each player's best
        averaged deviation payoff (N, H L) and frustrations (H L,)."""
        a, h = high_rows.shape
        n, s, _, low = self.low_bets.shape
        p, scale = h * low, -(n * self.m)
        bets = np.add(high_bets.T.reshape(n, s, h, 1), self.low_bets)   # q_is . b (N, S, H, L)
        u = np.empty((n, h, low))
        u[:a] = bets.reshape(n * s, h, low)[high_rows, np.arange(h)]
        played = np.take(high_bets, self.low_gather[:, :h])   # q_ic_i . b_high, (N-a, H, L)
        np.add(played, self.low_played[:, None], out=u[a:])
        u /= scale
        cross = _fold(played.reshape(n - a, p))                # b_high . b_low
        norms = high_norms[:, None] + 2 * cross.reshape(h, low) + self.low_norms
        # deviation terms q_is . b - H[i, s, c_i] + H[i, s, s], in place of the bets
        bets[:a] -= self.played_overlap[high_rows].transpose(0, 2, 1)[..., None]
        bets[a:] -= self.low_overlap
        bets += self.own_overlap[:, :, None, None]
        best = bets.min(axis=1)
        best /= scale
        rows = np.empty((n, h, low), dtype=np.int64)
        rows[:a] = high_rows[:, :, None]
        rows[a:] = self.low_rows[:, None]
        return (rows.reshape(n, p), u.reshape(n, p), best.reshape(n, p),
                norms.reshape(p) / (self.m * n * (self.config.nodes - 1)))


def _fold(terms: np.ndarray) -> np.ndarray:
    """(K, P) terms summed over K in order, as one running sum along P.

    numpy reduces axis 0 of a (K, P) array that way, one row at a time,
    whenever P >= 2, but sums a lone column pairwise, so a (K, 1) stack is
    reduced as two copies of its column."""
    columns = terms.shape[1]
    if columns == 1:
        terms = np.repeat(terms, 2, axis=1)
    return np.add.reduce(terms, axis=0)[:columns]


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
        high_rows = (np.array(chunk, dtype=np.int64).reshape(len(chunk), ev.high_players).T
                     + ev.row_offset[:ev.high_players, None])
        high_bets, high_norms = ev.half(high_rows)
        for start in range(0, len(chunk), ev.block_rows):
            part = slice(start, start + ev.block_rows)
            rows, u, gain, r = ev.evaluate(high_rows[:, part], high_bets[part], high_norms[part])
            gain -= u                              # each player's best deviation gain
            violation = gain.max(axis=0)
            stable = violation <= EQUILIBRIUM_SLACK
            total = _fold(u)
            best = max(best, float(total.max()))
            near = total >= best - TIE_TOL
            if stable.any():
                profiles.extend(map(tuple, (rows[:, stable].T - ev.row_offset).tolist()))
                frustrations.extend(r[stable].tolist())
            if near.any():
                candidates.extend(zip(map(tuple, (rows[:, near].T - ev.row_offset).tolist()),
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


def reward_vector(c: StrategyMatrix, inst: PureInstance, realized_b: np.ndarray,
                  i: int, config: GameConfig) -> np.ndarray:
    """Player i's counterfactual per-strategy rewards in one realized round b.

    W_is = -(1/(M N)) q(c_is^m) . [b + q(c_is^m) - q(c_i,played^m)] with the
    vertices of config's strengths: the payoff s would have earned had player
    i swapped only its own bet, over M.  The table must fit config's game."""
    check_matrix(c, config)
    vertices = build_simplex(config.strengths).vertices
    m = inst.signal
    qm = vertices[c.entries[i, :, m].astype(np.int64)]          # (S, D)
    played = vertices[int(c.entries[i, inst.choices[i], m])]    # (D,)
    shifted = realized_b[None, :] + qm - played[None, :]
    return -np.einsum("sd,sd->s", qm, shifted) / (config.signals * config.players)


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
