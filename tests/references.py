"""Direct formulas the tests check the package against.

These evaluate payoffs and frustrations of one realized allocation, or of a
pure profile, straight from their definitions: through the simplex vertices
(`aggregate_bet`, `instantaneous_frustration`, `isometry_defect`,
`DeviationBetEvaluator`) or by resolving every signal's occupancies
(`payoff_linear`, `correlated_payoff`, `signal_loop_payoffs`).
The package computes the same quantities in count space, and its oracle by
expanded vertex dot products.
"""
from __future__ import annotations

import numpy as np

from simplexgame import (Allocation, GameConfig, MixedProfile, Simplex, StrategyMatrix,
                         ValidationError, build_simplex, strategy_payoffs)
from simplexgame.game import check_matrix


def aggregate_bet(alloc: Allocation, s: Simplex) -> np.ndarray:
    """b = sum_r N_r q_r; the zero vector exactly at the Nash allocation."""
    counts = alloc.counts
    if counts.size < s.node_count:
        counts = np.concatenate([counts, np.zeros(s.node_count - counts.size, dtype=np.int64)])
    return counts.astype(float) @ s.vertices


def payoff_linear(alloc: Allocation, config: GameConfig) -> np.ndarray:
    """Per-node linear utility 1 - N_r/(y_r N); empty nodes evaluate to 1."""
    counts = np.zeros(config.nodes, dtype=np.int64)
    counts[: alloc.counts.size] = alloc.counts
    return 1.0 - counts / (config.strengths.weights * config.players)


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


def instantaneous_frustration(alloc: Allocation, s: Simplex, config: GameConfig) -> float:
    """|b|^2 / (N (B-1)) for one realized allocation; 0 iff b = 0."""
    b = aggregate_bet(alloc, s)
    return float(b @ b) / (config.players * (config.nodes - 1))


def isometry_defect(s: Simplex, x: np.ndarray) -> float:
    """|sum_r y_r (q_r . x)^2 - |x|^2|, zero for an exact simplex."""
    x = np.asarray(x, dtype=float).reshape(-1)
    dim = s.node_count - 1
    if x.size != dim:
        raise ValidationError(f"x must have dimension {dim}, got {x.size}")
    proj = s.vertices @ x
    return float(abs(s.strengths.weights @ (proj * proj) - x @ x))



class DeviationBetEvaluator:
    """The oracle's block evaluator on the direct vertex route.

    Builds every deviation's aggregate bet b - q_ic + q_is as a
    (P, N, S, M, B-1) array and dots it with the deviating vertex; it takes
    the place of `oracle._ProfileEvaluator` to check the expanded route.
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
