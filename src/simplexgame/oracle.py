"""Brute-force ground truth for tiny games.

`scan_profiles` enumerates every pure strategy profile once and returns one
`ProfileScan`: the equilibria (no unilateral deviation gains on the
signal-averaged payoffs), their frustrations and the least of them (the
game's optimistic price of anarchy), and the maximizers of the aggregate
payoff, each checked against the equilibrium condition; `oracle_report` is
its JSON summary.  Payoffs here are dot products with the (N, S, M, B-1)
strategy vertices of the simplex that `geometry.build_simplex` makes from the
config's strengths, independent of the count-space evaluators in `game`
(which only `potential_defect` calls); `reward_vector`, the vertex form of
the learning rule's reward, builds its simplex the same way.

A profile's aggregate bet is a sum over players, so it splits into the bets
of a high half (the first players) and a low half (the rest), each
contracted once with the vertex table (`_ProfileEvaluator`): the low half's
once per game, the high half's a group of rows at a time.  A profile's
number has its strategies as base-S digits, player 0 most significant; a
half's rows are the digits of a range of numbers, and a group pairs its rows
with every low-half row, so profiles come in number order.  In a group, a
profile stops being a candidate equilibrium at the first player who gains by
deviating, and a norm filter keeps the profiles that can be maximizers;
those and the ones still standing are read out, their N payoffs summed,
before the next group.  Every sum that reaches a result runs in a fixed
order (sums over players fold in player order), so a profile's floats do not
depend on the group it is in, nor on which profiles the filter kept: the
lists and floats are those of evaluating every profile in full.  The halves'
tables and every array of a group's scan and read-out hold at most
ORACLE_BLOCK numbers, unless one profile alone needs more; the scan keeps
only the equilibria and the maximizer candidates, so memory does not grow
with S^N.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, check_allocation, check_count
from .game import (GameConfig, MixedProfile, StrategyMatrix, check_matrix, fold_rows,
                   resolve_bets, strategy_payoffs)
from .geometry import build_simplex

DEFAULT_BUDGET = 10**6
EQUILIBRIUM_SLACK = 1e-12  # deviation gain still counted as no gain
TIE_TOL = 1e-12            # aggregate shortfall still counted as a maximizer
ORACLE_BLOCK = 1 << 14     # floats in a half's table or one scan array (128 KiB)


@dataclass(frozen=True)
class ProfileScan:
    """One pass over all S^N pure profiles of a game, in profile-number order:
    its pure equilibria, as tuples of strategies, with their frustrations and
    the least of them (None without an equilibrium); and the maximizers of
    the aggregate payoff, whether each is an equilibrium, their largest
    deviation gain and the largest aggregate payoff."""

    equilibria: list
    frustrations: list
    min_r: float | None
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
    half's `_Half` (row l for low-half number l) is built once per game, and
    a group's by `half`.  A set of profiles is a pair of index arrays h, l
    into a group's `_Half` and the low half's, which broadcast together:
    (H, 1) and (1, L) for a whole block of the group, or two (K,) lists; its
    positions in the group are h L + l.
    """

    def __init__(self, c: StrategyMatrix, config: GameConfig):
        check_matrix(c, config)
        n, s, m = c.shape
        d = config.nodes - 1
        # the table as int64, its vertices, their transpose, and two (N, S, S) overlaps
        check_allocation(8 * n * s * (m * (1 + 2 * d) + 2 * s),
                         f"the oracle's {n} x {s} x {m} x {d} vertex tables")
        qc = build_simplex(config.strengths).vertices[c.entries.astype(np.int64)]   # (N,S,M,D)
        self.n, self.strategies = n, s
        self.scale = -(n * m)
        # (N*S, M*D) vertex table: player i's strategy k is row i*S + k
        self.table = qc.reshape(n * s, -1)
        self.columns = np.ascontiguousarray(self.table.T)   # (M*D, N*S)
        self.row_offset = s * np.arange(n)
        overlap = np.einsum("ismd,ikmd->isk", qc, qc)       # H (N,S,S)
        # column i*S + k is H[i, :, k], the overlaps when player i plays k
        self.overlap_columns = overlap.transpose(1, 0, 2).reshape(s, n * s)
        self.own_columns = np.einsum("iss->si", overlap).copy()   # H[i, s, s] (S, N)
        # how far below the largest filter value a maximizer's can lie: TIE_TOL,
        # plus the rounding bound for its filter value and again for the largest one
        self.margin = TIE_TOL + 2 * _rounding_bound(qc.reshape(n, s, -1), m)
        self.high_players, self.block_rows, self.group_rows = _plan(config)
        self.low_size = s ** (n - self.high_players)
        self.low = self.half(range(self.low_size), self.high_players, n)
        self.low_bets = np.ascontiguousarray(self.low.bets.T)     # (M*D, L)

    def half(self, numbers: range, first: int, last: int) -> _Half:
        """The `_Half` of players first .. last-1 at the profiles `numbers`
        of those players, one row each: a number's base-S digits, player
        `first` most significant, are the players' strategies."""
        profiles = np.arange(numbers.start, numbers.stop)
        place = self.strategies ** np.arange(last - first - 1, -1, -1)
        rows = profiles // place[:, None] % self.strategies + self.row_offset[first:last, None]
        b = np.zeros((profiles.size, self.table.shape[1]))
        for column in rows:
            b += self.table.take(column, axis=0)
        contractions = np.einsum("px,xk->pk", b, self.columns)
        return _Half(rows, b, np.ascontiguousarray(
            contractions.reshape(-1, self.n, self.strategies).transpose(2, 1, 0)),
            # row sums, not einsum: einsum's buffered sums over rows longer than
            # 8192 floats would depend on how many rows it is given
            (b * b).sum(axis=1))

    def gains(self, high: _Half, first: int, last: int, h, l) -> tuple[np.ndarray, ...]:
        """Players first .. last-1's largest deviation gains (each one's best
        averaged deviation payoff less its played one), table rows and
        averaged payoffs, all (last - first, *shape), at the profiles (h, l),
        whose index arrays broadcast to `shape`.  Players of both halves need
        h and l of one shape; one half's rows broadcast along the other's axis."""
        a = self.high_players
        bets = (high.contractions[:, first:last].take(h, axis=2)
                + self.low.contractions[:, first:last].take(l, axis=2))
        rows = high.rows[first:last].take(h, axis=1)
        lower = self.low.rows[max(first - a, 0):max(last - a, 0)].take(l, axis=1)
        if len(lower):
            rows = np.concatenate([rows, lower]) if len(rows) else lower
        shape = (-1, last - first, *(1,) * (rows.ndim - 1))
        cells = bets[0].size
        u = bets.take((rows - self.row_offset[first:last].reshape(shape[1:])) * cells
                      + np.arange(cells).reshape(bets.shape[1:]))
        u /= self.scale
        # deviation terms q_is . b - H[i, s, c_i] + H[i, s, s]
        bets -= self.overlap_columns.take(rows, axis=1)
        bets += self.own_columns[:, first:last].reshape(shape)
        best = bets.min(axis=0)
        best /= self.scale
        best -= u
        return best, rows, u

    def evaluate(self, high: _Half, filtered: float) -> tuple:
        """Scan the group pairing `high`'s rows with every low-half row,
        high-half major, given the largest filter value of the groups before.

        Its maximizers are found through a norm filter: in exact arithmetic a
        profile's aggregate payoff sum_i q_ic_i . b / (-N M) is
        -|b|^2 / (N M), which one matmul of the halves' bets gives for the
        whole group, and only the profiles within `margin` of the largest
        filter value so far can be maximizers.  Its equilibria are found a
        block at a time: players 0 and 1 are tested on every profile of the
        block, and each next player only on the profiles still standing, as
        many players at a time as fit one (S, players, standing) array of
        ORACLE_BLOCK floats, until the standing profiles' remaining players
        fit one such array (at once, in a small block): `describe` tests
        those.  Returns, as sorted positions h L + l in the group, the
        profiles kept or standing; the group's filter values; and the new
        largest filter value."""
        n, s, rows, low = self.n, self.strategies, high.norms.size, self.low_size
        approx = (high.norms[:, None] + 2 * (high.bets @ self.low_bets) + self.low.norms).ravel()
        approx /= self.scale
        filtered = max(filtered, float(approx.max()))
        read = approx >= filtered - self.margin
        for start in range(0, rows, self.block_rows):
            stop = min(start + self.block_rows, rows)
            standing, player = np.arange(start * low, stop * low), 0
            if n * s * standing.size > ORACLE_BLOCK:
                # most profiles pass player 0, so player 1 too is tested on all of them
                h, l, player = np.arange(start, stop)[:, None], np.arange(low)[None], min(2, n)
                standing = standing[np.logical_and.reduce([
                    (self.gains(high, i, i + 1, h, l)[0] <= EQUILIBRIUM_SLACK).ravel()
                    for i in range(player)])]
                h, l = np.divmod(standing, low)
            while (n - player) * s * standing.size > ORACLE_BLOCK:
                last = player + max(1, ORACLE_BLOCK // (s * standing.size))
                gains = self.gains(high, player, last, h, l)[0]
                standing = standing[(gains.max(axis=0) <= EQUILIBRIUM_SLACK).ravel()]
                h, l = np.divmod(standing, low)
                player = last
            read[standing] = True
        return read.nonzero()[0], approx, filtered

    def describe(self, high: _Half, positions: np.ndarray, best: float) -> tuple:
        """Read out the profiles at `positions` in the group `high`, in runs
        whose (S, N, profiles) arrays fit ORACLE_BLOCK floats, given the
        largest aggregate payoff read out before them.

        Returns their aggregate payoffs (N payoffs summed in player order);
        those of them that are equilibria, as tuples of strategies, with
        their frustrations |b|^2 / (M N (B-1)), b_high . b_low summed over
        the low players in player order; the candidate maximizers, each a
        (profile, largest deviation gain, aggregate payoff) within TIE_TOL of
        the largest aggregate payoff so far; and that largest payoff."""
        totals, profiles, frustrations, candidates = [np.empty(0)], [], [], []
        step = max(1, ORACLE_BLOCK // (self.n * self.strategies))
        for start in range(0, positions.size, step):
            h, l = np.divmod(positions[start:start + step], self.low_size)
            gains, rows, u = self.gains(high, 0, self.n, h, l)
            totals.append(fold_rows(u))
            violations = gains.max(axis=0)
            played = rows - self.row_offset[:, None]
            best = max(best, float(totals[-1].max()))
            near = totals[-1] >= best - TIE_TOL
            candidates += zip(_tuples(played[:, near]), violations[near].tolist(),
                              totals[-1][near].tolist())
            stable = violations <= EQUILIBRIUM_SLACK
            if stable.any():
                played, h, l, a = played[:, stable], h[stable], l[stable], self.high_players
                profiles += _tuples(played)
                cross = fold_rows(high.contractions[played[a:], np.arange(a, self.n)[:, None], h])
                norms = high.norms[h] + 2 * cross + self.low.norms[l]
                frustrations += (norms / (self.n * self.table.shape[1])).tolist()
        return np.concatenate(totals), profiles, frustrations, candidates, best


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


def _plan(config: GameConfig) -> tuple[int, int, int]:
    """(a, H, G): the first a players form the high half, a block pairs H of
    its rows with all S^(N-a) rows of the low half, and a group is G of its
    rows, a whole number of blocks (the last group may be shorter).

    The low half is the last ceil(N/2) players, or fewer when its tables,
    S^(N-a) rows of max(N S, M (B-1)) floats, would exceed ORACLE_BLOCK / S.
    A block's H S^(N-a) profiles hold S floats each in one player's deviation
    terms, and a group's G S^(N-a) profiles one float each in their filter
    values, positions and aggregate payoffs; its G high-half rows hold their
    tables.  All stay within ORACLE_BLOCK, unless one profile alone needs more.
    """
    players, strategies = config.players, config.strategies_per_player
    width = max(players * strategies, config.signals * (config.nodes - 1))
    low = 0
    while low < players - players // 2 and strategies ** (low + 1) * width <= ORACLE_BLOCK:
        low += 1
    block = max(1, ORACLE_BLOCK // max(strategies ** (low + 1), width))
    blocks = max(1, ORACLE_BLOCK // max(strategies ** low, width) // block)
    return players - low, block, blocks * block


def check_budget(config: GameConfig, budget: int = DEFAULT_BUDGET) -> int:
    """S^N, the number of pure profiles; BudgetError when it exceeds the budget,
    ValidationError when the budget is not a count."""
    check_count(budget, "budget")
    s, n = config.strategies_per_player, config.players
    # S^N >= 2^N > budget once N >= the budget's bit length: S^N (N may be huge) is never built
    if (s > 1 and n >= int(budget).bit_length()) or s ** n > budget:
        raise BudgetError(f"{s}^{n} pure profiles exceed the enumeration budget of {budget}")
    return s ** n


def scan_profiles(c: StrategyMatrix, config: GameConfig,
                  budget: int = DEFAULT_BUDGET) -> ProfileScan:
    """One pass over all S^N pure profiles: the equilibria and the maximizers.

    A profile is an equilibrium when no unilateral deviation gains more than
    EQUILIBRIUM_SLACK, and a maximizer when its aggregate payoff, its N
    payoffs summed in player order, is within TIE_TOL of the largest.  Each
    group of high-half rows prunes its profiles to those that can still be
    either, and `describe` reads those out before the next group; the
    candidates within TIE_TOL of the running best are kept until the final
    best filters them.  Groups take the high-half numbers in order.
    """
    check_budget(config, budget)
    ev = _ProfileEvaluator(c, config)
    count = config.strategies_per_player ** ev.high_players
    profiles, frustrations, candidates = [], [], []
    filtered = best = -np.inf
    for start in range(0, count, ev.group_rows):
        tables = ev.half(range(start, min(start + ev.group_rows, count)), 0, ev.high_players)
        positions, approx, filtered = ev.evaluate(tables, filtered)
        totals, *read = ev.describe(tables, positions, best)
        # the rounding bound is checked where it can be: a group's filter is
        # trusted only while it stays within a hundredth of the margin of the
        # exact sums, and otherwise every profile of the group is read out
        if np.any(np.abs(approx[positions] - totals) > ev.margin / 100):
            totals, *read = ev.describe(tables, np.arange(approx.size), best)
        equilibria, frustrated, near, best = read
        profiles += equilibria
        frustrations += frustrated
        candidates += near

    maximizers, flags, worst = [], [], 0.0
    for profile, violation, total in candidates:
        if total >= best - TIE_TOL:
            maximizers.append(profile)
            flags.append(violation <= EQUILIBRIUM_SLACK)
            worst = max(worst, violation)
    return ProfileScan(profiles, frustrations, min(frustrations) if frustrations else None,
                       maximizers, flags, worst, best)


def potential_defect(c: StrategyMatrix, p: MixedProfile, i: int, s1: int, s2: int,
                     config: GameConfig) -> float:
    """Residual of the exact potential identity between two strategies of player i.

    aggregate(rest; s2) - aggregate(rest; s1) equals twice player i's own payoff
    difference plus the signal-averaged difference of squared vertex norms over N;
    the returned residual is zero up to floating point at any finite size.
    """
    check_count(i, "player", 0, config.players)
    for strategy in (s1, s2):
        check_count(strategy, "strategy", 0, config.strategies_per_player)
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


def reward_vector(c: StrategyMatrix, signal: int, choices: np.ndarray, realized_b: np.ndarray,
                  i: int, config: GameConfig) -> np.ndarray:
    """Player i's counterfactual per-strategy rewards in one realized round b,
    the round where player j plays its strategy choices[j] under `signal`.

    W_is = -(1/(M N)) q(c_is^m) . [b + q(c_is^m) - q(c_i,played^m)] with the
    vertices of config's strengths: the payoff s would have earned had player
    i swapped only its own bet, over M.  `resolve_bets` checks the table
    against config's game, and the round's arguments."""
    check_count(i, "player", 0, config.players)
    picked, _ = resolve_bets(c, signal, choices, config)
    vertices = build_simplex(config.strengths).vertices
    qm = vertices[c.entries[i, :, signal].astype(np.int64)]     # (S, D)
    played = vertices[picked[i]]                                  # (D,)
    shifted = realized_b[None, :] + qm - played[None, :]
    return -np.einsum("sd,sd->s", qm, shifted) / (config.signals * config.players)


def oracle_report(c: StrategyMatrix, config: GameConfig,
                  budget: int = DEFAULT_BUDGET) -> dict:
    """JSON-ready summary of `scan_profiles`: equilibrium count, min
    frustration, maximizer check."""
    scan = scan_profiles(c, config, budget)
    return {
        "players": config.players,
        "nodes": config.nodes,
        "signals": config.signals,
        "strategies_per_player": config.strategies_per_player,
        "equilibrium_count": len(scan.equilibria),
        "min_r": scan.min_r,
        "no_pure_equilibrium": not scan.equilibria,
        "maximizer_count": len(scan.maximizers),
        "maximizers_all_equilibria": all(scan.in_equilibrium_set) if scan.maximizers else None,
        "maximizer_worst_violation": scan.worst_violation,
        "max_aggregate_payoff": scan.max_aggregate,
    }
