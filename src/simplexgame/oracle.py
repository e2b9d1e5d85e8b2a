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
vertex overlaps, so no per-deviation bet is built.  The low half's tables are
built once per game and the high half's a chunk of rows at a time, and each
block pairs a few high-half rows with all low-half rows, so blocks follow
`itertools.product` order without decoding any profile's digits.

A profile stops being a candidate equilibrium at the first player who gains
by deviating, so a block tests its players one at a time, player 0 on every
profile and each next one only on the profiles still standing.  Its
maximizers are found through a norm filter: in exact arithmetic the
aggregate payoff sum_i q_ic_i . b / (-N M) is -|b|^2 / (N M), which one matmul
of the halves' bets gives for the whole block.  The filter keeps the profiles
within TIE_TOL plus a derived bound on its rounding of the best, and only
those get their N payoffs summed.  Every sum that reaches a result runs in a
fixed order (sums over players fold in player order), so a profile's floats
do not depend on the block it is in, nor on which profiles the filter kept:
the lists and floats are those of evaluating every profile in full.  The
halves' tables and a block's arrays hold at most ORACLE_BLOCK numbers,
unless one profile alone needs more; the scan keeps only the equilibria and
the maximizer candidates, so memory does not grow with S^N.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

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


class _Half(NamedTuple):
    """Tables of P profiles of some consecutive players of the game."""

    rows: np.ndarray          # (k, P) their k players' vertex-table rows
    bets: np.ndarray          # (P, M (B-1)) their bets b, summed in player order
    contractions: np.ndarray  # (S, N, P) q_is . b for every strategy s and player i
    norms: np.ndarray         # (P,) |b|^2

    def part(self, profiles: slice) -> _Half:
        return _Half(self.rows[:, profiles], self.bets[profiles],
                     self.contractions[..., profiles], self.norms[profiles])


class _ProfileEvaluator:
    """Dot-product payoff evaluation for all pure profiles of one game.

    With q_ism player i's vertex for strategy s under signal m and b_pm a
    profile's aggregate bet, a deviation to s (in place of the played c_i) pays
    -sum_m q_ism . (b_pm - q_icm + q_ism) / (N M), expanded as
    -((q_is . b_p) - H[i, s, c_i] + H[i, s, s]) / (N M) with the per-game
    vertex overlaps H[i, s, k] = sum_m q_ism . q_ikm; the played payoff is
    -(q_ic . b_p) / (N M).  Dividing by the negative -N M reverses the order
    of a player's deviation terms and rounding keeps it, so its best
    deviation payoff is its smallest term divided once: the same float as the
    largest of its divided terms.

    A profile's bet splits as b = b_high + b_low over the first `high_players`
    players and the rest, so q_is . b is the sum of the halves' contractions
    and |b|^2 = |b_high|^2 + 2 b_high . b_low + |b_low|^2, where
    b_high . b_low = sum over low players i of q_ic_i . b_high.  The low
    half's `_Half` (one profile per low-half row, in itertools.product order)
    is built once per game, the high half's by `half`, `chunk_rows` rows at a
    time.  A set of profiles is a pair of index arrays h, l into a high-half
    `_Half` and the low half's, which broadcast together: (H, 1) and (1, L)
    for a whole block, or two (K,) lists.  `evaluate` scans a block of up to
    `block_rows` high-half rows paired with every low-half row.
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
        self.n, self.m, self.strategies = n, m, s
        self.scale = -(n * m)
        # (N*S, M*D) vertex table: player i's strategy k is row i*S + k
        self.table = qc.reshape(n * s, -1)
        self.columns = np.ascontiguousarray(self.table.T)   # (M*D, N*S)
        self.player_index = np.arange(n)[:, None]
        self.row_offset = s * np.arange(n)
        overlap = np.einsum("ismd,ikmd->isk", qc, qc)       # H (N,S,S)
        # column i*S + k is H[i, :, k], the overlaps when player i plays k
        self.overlap_columns = overlap.transpose(1, 0, 2).reshape(s, n * s)
        self.played_overlap = self.overlap_columns.T        # row i*S + k
        self.own_columns = np.einsum("iss->si", overlap).copy()   # H[i, s, s] (S, N)
        self.own_overlap = self.own_columns.T
        self.high_players, self.chunk_rows, self.block_rows = _plan(config)
        a = self.high_players
        low = list(itertools.product(range(s), repeat=n - a))
        self.low = self.half(np.array(low, dtype=np.int64).reshape(len(low), -1).T
                             + self.row_offset[a:, None])
        self.low_bets = np.ascontiguousarray(self.low.bets.T)     # (M*D, L)
        # a whole block's profiles, as broadcasting high- and low-half indices
        self.dense = (np.arange(self.block_rows)[:, None], np.arange(len(low))[None, :])
        self.low_size = len(low)

    @functools.cached_property
    def margin(self) -> float:
        """How far below the largest filter value a maximizer's can lie:
        TIE_TOL, plus `_rounding_bound` for its filter value and again for
        the largest one."""
        vertices = self.table.reshape(self.n, self.strategies, -1)
        return TIE_TOL + 2 * _rounding_bound(vertices, self.m)

    def half(self, rows) -> _Half:
        """The `_Half` of (k, P) table rows of k players: P profiles of theirs."""
        b = np.zeros((rows.shape[1], self.table.shape[1]))
        for column in rows:
            b += self.table.take(column, axis=0)
        # row sums, not einsum: einsum's buffered sums over rows longer than
        # 8192 floats would depend on how many rows it is given
        contractions = np.einsum("px,xk->pk", b, self.columns)
        return _Half(rows, b, np.ascontiguousarray(
            contractions.reshape(-1, self.n, self.strategies).transpose(2, 1, 0)),
            (b * b).sum(axis=1))

    def table_rows(self, high: _Half, first: int, last: int, h, l) -> np.ndarray:
        """Players first .. last-1's table rows (last - first, *shape) at the
        profiles (h, l), whose index arrays broadcast to `shape`."""
        a = self.high_players
        upper = high.rows[first:last].take(h, axis=1)
        lower = self.low.rows[max(first - a, 0):max(last - a, 0)].take(l, axis=1)
        if not (len(upper) and len(lower)):
            return lower if len(lower) else upper
        rows = np.empty((last - first, *np.broadcast(h, l).shape), dtype=np.int64)
        rows[:len(upper)] = upper
        rows[len(upper):] = lower
        return rows

    def bets(self, high: _Half, first: int, last: int, h, l) -> tuple[np.ndarray, ...]:
        """For players first .. last-1 at the profiles (h, l): q_is . b
        (S, last - first, *shape), their table rows and their averaged payoffs
        (last - first, *shape)."""
        bets = (high.contractions[:, first:last].take(h, axis=2)
                + self.low.contractions[:, first:last].take(l, axis=2))
        rows = self.table_rows(high, first, last, h, l)
        played = rows - self.row_offset[first:last].reshape(-1, *(1,) * (rows.ndim - 1))
        cells = bets[0].size
        u = bets.take(played * cells + np.arange(cells).reshape(bets.shape[1:]))
        u /= self.scale
        return bets, rows, u

    def gains(self, bets: np.ndarray, rows: np.ndarray, u: np.ndarray,
              first: int) -> np.ndarray:
        """Players first, first+1, ...'s largest deviation gains from what
        `bets` returned for them: each one's best averaged deviation payoff
        less its played one.  Overwrites the bets."""
        # deviation terms q_is . b - H[i, s, c_i] + H[i, s, s]
        bets -= self.overlap_columns.take(rows, axis=1)
        bets += self.own_columns[:, first:first + len(rows)].reshape(
            -1, len(rows), *(1,) * (bets.ndim - 2))
        best = bets.min(axis=0)
        best /= self.scale
        best -= u
        return best

    def evaluate(self, high: _Half, filtered: float) -> tuple:
        """Scan the block pairing `high`'s H <= block_rows rows with every
        low-half row, high-half major, given the largest filter value of the
        blocks before it.

        Players 0 and 1 are tested on every profile, and each next player
        only on the profiles still standing, as many players at a time as fit
        one (S, players, standing) array of ORACLE_BLOCK floats, until the
        standing profiles' remaining players fit one such array (at once, in
        a small block): `describe` tests those.  Unless every profile still
        stands, the norm filter -|b|^2 / (N M), from one matmul of the
        halves' bets, keeps the profiles within `margin` of the largest
        filter value so far, the only ones that can be maximizers.  Returns,
        as positions h L + l, the profiles standing or kept (sorted) and
        those kept, the kept ones' filter values, and the new largest filter
        value."""
        n, s = self.n, self.strategies
        h, l = self.dense[0][:high.norms.size], self.dense[1]
        everyone = np.arange(h.size * l.size)
        standing, player = everyone, 0
        if n * s * everyone.size > ORACLE_BLOCK:
            # most profiles pass player 0, so player 1 too is tested on all of them
            player = min(2, n)
            standing = everyone[np.logical_and.reduce([
                (self.gains(*self.bets(high, i, i + 1, h, l), i) <= EQUILIBRIUM_SLACK).ravel()
                for i in range(player)])]
            h, l = np.divmod(standing, self.low_size)
        while (n - player) * s * standing.size > ORACLE_BLOCK:
            last = player + max(1, ORACLE_BLOCK // (s * standing.size))
            gains = self.gains(*self.bets(high, player, last, h, l), player)
            standing = standing[(gains.max(axis=0) <= EQUILIBRIUM_SLACK).ravel()]
            h, l = np.divmod(standing, self.low_size)
            player = last
        if standing.size == everyone.size:
            return standing, everyone[:0], np.empty(0), filtered
        # in exact arithmetic sum_i q_ic_i . b = |b|^2: a profile's aggregate payoff
        approx = high.norms[:, None] + 2 * (high.bets @ self.low_bets) + self.low.norms
        approx /= self.scale
        filtered = max(filtered, float(approx.max()))
        read = (approx >= filtered - self.margin).ravel()
        kept = read.nonzero()[0]
        read[standing] = True
        return read.nonzero()[0], kept, approx.ravel()[kept], filtered

    def describe(self, high: _Half, positions: np.ndarray) -> tuple:
        """The largest deviation gains and the aggregate payoffs (N payoffs
        summed in player order) of the profiles at positions h L + l, and
        those of them that are equilibria, as tuples of strategies, with
        their frustrations |b|^2 / (M N (B-1)), b_high . b_low summed over
        the low players in player order."""
        violations, totals, profiles, frustrations = [np.empty(0)], [np.empty(0)], [], []
        for h, l in self._pieces(positions):
            bets, rows, u = self.bets(high, 0, self.n, h, l)
            totals.append(_fold(u))
            violations.append(self.gains(bets, rows, u, 0).max(axis=0))
            stable = violations[-1] <= EQUILIBRIUM_SLACK
            if stable.any():
                played = rows[:, stable] - self.row_offset[:, None]
                h, l, a = h[stable], l[stable], self.high_players
                profiles += _tuples(played)
                cross = _fold(high.contractions[played[a:], self.player_index[a:], h])
                norms = high.norms[h] + 2 * cross + self.low.norms[l]
                frustrations += (norms / (self.m * self.n * (self.config.nodes - 1))).tolist()
        return np.concatenate(violations), np.concatenate(totals), profiles, frustrations

    def profiles(self, high: _Half, positions: np.ndarray) -> list:
        """The profiles at positions h L + l, as tuples of strategies."""
        return [profile for h, l in self._pieces(positions) for profile in
                _tuples(self.table_rows(high, 0, self.n, h, l) - self.row_offset[:, None])]

    def _pieces(self, positions: np.ndarray):
        """(h, l) of the profiles at positions h L + l, in runs whose
        (S, N, profiles) arrays fit ORACLE_BLOCK floats."""
        step = max(1, ORACLE_BLOCK // (self.n * self.strategies))
        for start in range(0, positions.size, step):
            yield np.divmod(positions[start:start + step], self.low_size)


def _tuples(profiles: np.ndarray) -> list:
    """(N, P) strategies as P tuples."""
    return list(map(tuple, profiles.T.tolist()))


def _rounding_bound(vertices: np.ndarray, signals: int) -> float:
    """A bound on |filter - exact| for every profile of the game whose
    strategies have the (N, S, M (B-1)) vertices, over M signals.

    Both routes compute -|b|^2 / (N M) from products q_imd b_md: the exact one
    as sum_i q_ic_i . b, folding N payoffs, and the filter from the halves'
    norms and one matmul.  With A_md = sum_i |q_ic_imd| >= |b_md|, each route
    runs at most K = M (B-1) + 2 N + 4 roundings deep (N for a bet, M (B-1) for
    a dot product, N for the fold, a few adds and a division), so it is
    within gamma_K sum_md A_md^2 / (N M) of -|b|^2 / (N M), gamma_K =
    K u / (1 - K u) with u = 2^-53, underflow aside.  A_md is at most the sum
    over players of their largest |q_icmd| over strategies.
    """
    n, _, width = vertices.shape
    reach = np.abs(vertices).max(axis=1).sum(axis=0)      # (M (B-1),)
    k = width + 2 * n + 4
    unit = np.finfo(float).eps / 2
    return 2 * k * unit / (1 - k * unit) * float(reach @ reach) / (n * signals)


def _fold(terms: np.ndarray) -> np.ndarray:
    """(K, P) terms summed over K in order, as one running sum along P.

    numpy reduces axis 0 of a C-ordered (K, P) array that way, one row at a
    time, whenever P >= 2, but sums a contiguous column pairwise: a gather
    may come out column-major, and a (K, 1) stack is reduced as two copies of
    its column."""
    columns = terms.shape[1]
    if columns == 1:
        terms = np.repeat(terms, 2, axis=1)
    return np.add.reduce(np.ascontiguousarray(terms), axis=0)[:columns]


def _plan(config: GameConfig) -> tuple[int, int, int]:
    """(a, C, H): the first a players form the high half, whose tables are
    built C rows at a time, and a block pairs H of those rows with all
    S^(N-a) rows of the low half.

    The low half is the last ceil(N/2) players, or fewer when its tables,
    S^(N-a) rows of max(N S, M (B-1)) floats, would exceed ORACLE_BLOCK, and
    C is the largest multiple of H whose high-half rows fit the same bound.  A
    block's H S^(N-a) profiles hold S floats each in one player's deviation
    terms, and its H high-half rows their tables: both stay within
    ORACLE_BLOCK, unless one profile alone needs more.
    """
    players, strategies = config.players, config.strategies_per_player
    width = max(players * strategies, config.signals * (config.nodes - 1))
    low = 0
    while low < players - players // 2 and strategies ** (low + 1) * width <= ORACLE_BLOCK:
        low += 1
    block = max(1, ORACLE_BLOCK // max(strategies ** (low + 1), width))
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
    EQUILIBRIUM_SLACK, and a maximizer when its aggregate payoff, its N
    payoffs summed in player order, is within TIE_TOL of the largest.  A
    chunk's blocks prune its profiles to those that can still be either;
    `describe` then gives those their largest deviation gains and aggregate
    payoffs, and the candidates within TIE_TOL of the running best are kept
    until the final best filters them.
    """
    check_budget(config, budget)
    ev = _ProfileEvaluator(c, config)
    # high-half rows in itertools.product order, each paired with the low-half
    # rows in that order: block rows follow itertools.product(range(S), repeat=N)
    high = itertools.product(range(config.strategies_per_player), repeat=ev.high_players)
    low = ev.low_size
    profiles, frustrations, candidates = [], [], []
    filtered = best = -np.inf
    while chunk := list(itertools.islice(high, ev.chunk_rows)):
        tables = ev.half(np.array(chunk, dtype=np.int64).reshape(len(chunk), ev.high_players).T
                         + ev.row_offset[:ev.high_players, None])
        # profiles by their positions h L + l in the chunk
        blocks = []
        for start in range(0, len(chunk), ev.block_rows):
            *found, approx, filtered = ev.evaluate(
                tables.part(slice(start, start + ev.block_rows)), filtered)
            blocks.append((*(positions + start * low for positions in found), approx))
        positions, kept, approx = (np.concatenate(parts) for parts in zip(*blocks))
        described = ev.describe(tables, positions)
        # the rounding bound is checked where it can be: a block's filter is
        # trusted only while it stays within a hundredth of the margin of the
        # exact sums, and otherwise every profile of the block is read out
        if kept.size:
            exact = described[1][np.searchsorted(positions, kept)]
            off = kept[np.abs(approx - exact) > ev.margin / 100]
            if off.size:
                read = np.zeros(len(chunk) * low, dtype=bool)
                read[positions] = True
                rows = ev.block_rows * low
                for first in (off // rows * rows).tolist():
                    read[first:first + rows] = True
                positions = read.nonzero()[0]
                described = ev.describe(tables, positions)
        violations, totals, equilibria, frustrated = described
        profiles += equilibria
        frustrations += frustrated
        best = max(best, float(totals.max(initial=-np.inf)))
        near = totals >= best - TIE_TOL
        candidates += zip(ev.profiles(tables, positions[near]), violations[near].tolist(),
                          totals[near].tolist())

    maximizers, flags, worst = [], [], 0.0
    for profile, violation, total in candidates:
        if total >= best - TIE_TOL:
            maximizers.append(profile)
            flags.append(violation <= EQUILIBRIUM_SLACK)
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
