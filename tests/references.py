"""Direct formulas the tests check the package against.

These evaluate payoffs and frustrations of one realized round's node
occupancies, or of a pure profile, straight from their definitions: through the simplex vertices
(`aggregate_bet`, `instantaneous_frustration`, `mean_bet_frustration`,
`isometry_defect`, `DeviationBetEvaluator`) or by resolving every signal's occupancies
(`payoff_linear`, `correlated_payoff`, `signal_loop_payoffs`).
The package computes the same quantities in count space, and its oracle by
expanded vertex dot products from two half tables; `blocked_scan` is the
oracle's scan over blocks of profiles with any evaluator.
`softmax_probabilities` is one player's softmax through the package's own
`(S, K, N)` softmax, and `parse_config_file` a config file's fields without
the line numbers that set them.  `replicator_flow` and `integrate_replicator`
are the continuous-time limit of the learning dynamics, on the package's
`strategy_payoffs`.
"""
from __future__ import annotations

import functools
import logging
import operator

import numpy as np

from simplexgame import (GameConfig, MixedProfile, Simplex, StrategyMatrix, ValidationError,
                         build_simplex, strategy_payoffs)
from simplexgame.game import check_matrix
from simplexgame.harness import _parse_config
from simplexgame.learning import _check_rate, _softmax
from simplexgame.oracle import EQUILIBRIUM_SLACK, TIE_TOL, ProfileScan

log = logging.getLogger(__name__)


def aggregate_bet(counts: np.ndarray, s: Simplex) -> np.ndarray:
    """b = sum_r N_r q_r of the node counts; the zero vector exactly at the
    Nash allocation."""
    nodes = s.strengths.node_count
    if counts.size < nodes:
        counts = np.concatenate([counts, np.zeros(nodes - counts.size, dtype=np.int64)])
    return counts.astype(float) @ s.vertices


def payoff_linear(counts: np.ndarray, config: GameConfig) -> np.ndarray:
    """Per-node linear utility 1 - N_r/(y_r N) of the node counts; empty nodes
    evaluate to 1."""
    padded = np.zeros(config.nodes, dtype=np.int64)
    padded[: counts.size] = counts
    return 1.0 - padded / (config.strengths.weights * config.players)


def _profile_nodes(c: StrategyMatrix, choices: np.ndarray) -> np.ndarray:
    """(N, M) node picks when each player i plays pure strategy choices[i]."""
    n = c.shape[0]
    return c.entries[np.arange(n), np.asarray(choices, dtype=np.int64), :].astype(np.int64)


def correlated_payoff(c: StrategyMatrix, profile, i: int, config: GameConfig) -> float:
    """Signal-averaged linear payoff of player i at a pure strategy profile.

    Evaluated by direct resolution: per signal, count node occupancies and
    read off 1 - N_r/(y_r N) at player i's node.
    """
    nodes = _profile_nodes(c, profile)  # (N, M)
    n, m = nodes.shape
    y = config.strengths.weights
    total = 0.0
    for sig in range(m):
        counts = np.bincount(nodes[:, sig], minlength=config.nodes)
        r = nodes[i, sig]
        total += 1.0 - counts[r] / (y[r] * n)
    return total / m


def signal_loop_payoffs(c: StrategyMatrix, rows: np.ndarray,
                        config: GameConfig) -> np.ndarray:
    """`strategy_payoffs`' count-space formula, one signal at a time.

    Each signal's mean occupancies come from one bincount of its (N, S)
    entries, and every sum over signals is a running sum in m order, so the
    package's blocked evaluation must return the same bytes.
    """
    n, strategies, m = c.shape
    inv_y = 1.0 / config.strengths.weights
    others = np.zeros((n, strategies))
    same = np.zeros((strategies, strategies, n))
    for sig in range(m):
        picks = c.entries[:, :, sig].astype(np.int64)
        occupancy = np.bincount(picks.reshape(-1), rows.reshape(-1), minlength=config.nodes)
        w = inv_y[picks]
        others += (occupancy[picks] + 1.0) * w
        for j in range(strategies):
            for k in range(strategies):
                same[j, k] += (picks[:, j] == picks[:, k]) * w[:, j]
    total = others / m
    for j in range(strategies):
        for k in range(strategies):
            total[:, j] -= rows[:, k] * (same[j, k] / m)
    return (config.players - total) / config.players


def mixed_correlated_payoff(c: StrategyMatrix, p: MixedProfile, i: int,
                            config: GameConfig) -> float:
    """Player i's signal-averaged payoff with every player mixing."""
    per_strategy = strategy_payoffs(c, p, config)
    return float(p.rows[i] @ per_strategy[i])


def replicator_flow(c: StrategyMatrix, p: MixedProfile, config: GameConfig,
                    gammas) -> np.ndarray:
    """dp_is/dtau = gamma_i p_is (u_i(rest; s) - u_i(mixed)).

    Better-performing strategies grow; every row of the output sums to zero,
    so the flow stays tangent to the product of probability simplices.
    """
    p = MixedProfile(getattr(p, "rows", p))   # integrate_replicator passes raw rows
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (config.players,))
    per_strategy = strategy_payoffs(c, p, config)
    mixed = np.einsum("is,is->i", p.rows, per_strategy)
    return gammas[:, None] * p.rows * (per_strategy - mixed[:, None])


def integrate_replicator(c: StrategyMatrix, p0: MixedProfile, config: GameConfig,
                         gamma, tau_end: float, step: float) -> list[MixedProfile]:
    """Classical 4-stage explicit integration of the replicator flow.

    Rows are renormalized after every step; negative components (possible
    only through roundoff or an overly large step) are clipped to zero with
    a logged warning.  A non-finite derivative aborts with a diagnostic.
    """
    if step <= 0.0:
        raise ValidationError("step must be > 0")
    n_steps = max(1, int(round(tau_end / step)))
    rows = p0.rows.copy()
    out = [MixedProfile(rows.copy())]

    def flow(r):
        d = replicator_flow(c, r, config, gamma)
        if not np.all(np.isfinite(d)):
            raise FloatingPointError(
                f"non-finite replicator derivative at tau={len(out) * step:.6g}")
        return d

    for _ in range(n_steps):
        k1 = flow(rows)
        k2 = flow(rows + 0.5 * step * k1)
        k3 = flow(rows + 0.5 * step * k2)
        k4 = flow(rows + step * k3)
        rows = rows + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.any(rows < 0.0):
            worst = float(rows.min())
            if worst < -1e-9:
                log.warning("replicator step clipped negative probability %.3e", worst)
            rows = np.clip(rows, 0.0, None)
        rows /= rows.sum(axis=1, keepdims=True)
        out.append(MixedProfile(rows.copy()))
    return out


def softmax_probabilities(scores, gamma: float) -> np.ndarray:
    """exp(gamma * U_s) / sum over one player's (S,) scores, with one rate.

    Computed max-shifted so large scores never overflow.
    """
    scores = np.asarray(scores, dtype=float)
    rate = _check_rate(gamma)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    out = np.empty((scores.size, 1, 1))
    _softmax(scores[:, None, None], rate, out, np.empty((1, 1)))
    return out[:, 0, 0]


def instantaneous_frustration(counts: np.ndarray, s: Simplex, config: GameConfig) -> float:
    """|b|^2 / (N (B-1)) for one realized round's node counts; 0 iff b = 0."""
    b = aggregate_bet(counts, s)
    return float(b @ b) / (config.players * (config.nodes - 1))


def mean_bet_frustration(c: StrategyMatrix, rows: np.ndarray, s: Simplex,
                         config: GameConfig) -> float:
    """|mean bet|^2 / (N (B-1)) averaged over the M signals, the mean bet taken
    over the (N, S) profile rows: the expected frustration less each player's
    own mixing variance, and equal to it at pure profiles."""
    bets = np.einsum("is,ismd->md", rows, s.vertices[c.entries])
    return float(np.einsum("md,md->", bets, bets)) / (
        bets.shape[0] * config.players * (config.nodes - 1))


def isometry_defect(s: Simplex, x: np.ndarray) -> float:
    """|sum_r y_r (q_r . x)^2 - |x|^2|, zero for an exact simplex."""
    x = np.asarray(x, dtype=float).reshape(-1)
    dim = s.strengths.node_count - 1
    if x.size != dim:
        raise ValidationError(f"x must have dimension {dim}, got {x.size}")
    proj = s.vertices @ x
    return float(abs(s.strengths.weights @ (proj * proj) - x @ x))



class DeviationBetEvaluator:
    """The oracle's block evaluator on the direct vertex route.

    Builds every deviation's aggregate bet b - q_ic + q_is as a
    (P, N, S, M, B-1) array and dots it with the deviating vertex; through
    `blocked_scan` it checks the oracle's expanded route.
    """

    def __init__(self, c: StrategyMatrix, config: GameConfig):
        check_matrix(c, config)
        self.config = config
        vertices = build_simplex(config.strengths).vertices
        self.qc = vertices[c.entries.astype(np.int64)]  # (N,S,M,D)
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


def blocked_scan(evaluator, config: GameConfig, rows: int) -> tuple:
    """The oracle's one pass over all S^N pure profiles, `rows` per block.

    A block's profiles are the base-S digits of consecutive indices, player 0
    most significant (the order of itertools.product(range(S), repeat=N)),
    evaluated by `evaluator.evaluate(block)`; the equilibrium and maximizer
    bookkeeping is the oracle's, and a profile's aggregate payoff is summed
    over players in player order.  Returns the oracle's `ProfileScan`.
    """
    strategies = config.strategies_per_player
    count = strategies ** config.players
    place = strategies ** np.arange(config.players - 1, -1, -1)
    profiles, frustrations = [], []
    best, candidates = -np.inf, []
    for start in range(0, count, rows):
        block = np.arange(start, min(start + rows, count))[:, None] // place % strategies
        u, u_dev, r = evaluator.evaluate(block)
        violation = (u_dev - u[:, :, None]).max(axis=(1, 2))
        stable = violation <= EQUILIBRIUM_SLACK
        profiles.extend(map(tuple, block[stable].tolist()))
        frustrations.extend(r[stable].tolist())
        total = np.array([functools.reduce(operator.add, payoffs) for payoffs in u.tolist()])
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
    return ProfileScan(equilibria=profiles, frustrations=frustrations,
                       min_r=min(frustrations) if frustrations else None,
                       maximizers=maximizers, in_equilibrium_set=flags,
                       worst_violation=worst, max_aggregate=best)


def parse_config_file(path: str) -> dict:
    """ExperimentConfig fields from a flat UTF-8 key=value file with '#' comments.

    Unknown keys, and a second key for a field already set, are errors.
    """
    return _parse_config(path)[0]
