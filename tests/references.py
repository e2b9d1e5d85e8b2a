"""Direct formulas the tests check the package against.

These evaluate payoffs and frustrations of one realized allocation, or of a
pure profile, straight from their definitions: through the simplex vertices
(`aggregate_bet`, `instantaneous_frustration`, `isometry_defect`) or by
resolving every signal's occupancies (`payoff_linear`, `correlated_payoff`,
`signal_loop_payoffs`).
The package computes the same quantities in count space.
"""
from __future__ import annotations

import numpy as np

from simplexgame import Allocation, GameConfig, Simplex, StrategyMatrix, ValidationError


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


def signal_loop_payoffs(c: StrategyMatrix, rows: np.ndarray, s: Simplex,
                        config: GameConfig) -> np.ndarray:
    """`strategy_payoffs`' count-space formula, one signal at a time.

    Each signal's mean occupancies come from one bincount of its (N, S)
    entries, and every sum over signals is a running sum in m order, so the
    package's blocked evaluation must return the same bytes.
    """
    n, strategies, m = c.shape
    inv_y = 1.0 / s.strengths.weights
    others = np.zeros((n, strategies))
    same = np.zeros((strategies, strategies, n))
    for sig in range(m):
        picks = c.entries[:, :, sig].astype(np.int64)
        occupancy = np.bincount(picks.reshape(-1), rows.reshape(-1), minlength=s.node_count)
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

