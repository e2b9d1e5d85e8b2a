"""Weighted-simplex geometry for node-choice games.

B node strengths y_r (positive, summing to one) are encoded as B vertices
q_r in (B-1)-dimensional space whose Gram matrix is

    q_r . q_l = -1 + delta_rl / sqrt(y_r * y_l)

With this encoding the weighted centroid sum(y_r q_r) vanishes, the weighted
norm sum equals B-1, and a node's congestion payoff becomes a dot product
against the aggregate bet vector of all players.

This module is only that construction and its checks; the strengths are
`game.StrengthDistribution`.  A simplex is built only in `oracle`, the
vertex-route cross-check, and for `run --dump-simplex`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import game
from .errors import DegenerateStrengthsError, ValidationError

ZERO_MODE_RTOL = 1e-9


@dataclass(frozen=True)
class Simplex:
    """B vertices in (B-1)-dim space realizing the weighted Gram condition."""

    vertices: np.ndarray  # shape (B, B-1), row r is q_r in node order
    strengths: game.StrengthDistribution

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        b = self.strengths.node_count
        if v.shape != (b, b - 1):
            raise ValidationError(f"vertices must have shape {(b, b - 1)}, got {v.shape}")
        object.__setattr__(self, "vertices", game._readonly(v, self.vertices))

    @property
    def squared_norms(self) -> np.ndarray:
        return np.einsum("rd,rd->r", self.vertices, self.vertices)


def target_gram(y: game.StrengthDistribution) -> np.ndarray:
    """The Gram matrix -1 + delta_rl / sqrt(y_r y_l) the vertices must realize."""
    g = np.full((y.node_count, y.node_count), -1.0)
    np.fill_diagonal(g, -1.0 + 1.0 / y.weights)
    return g


def build_simplex(y: game.StrengthDistribution) -> Simplex:
    """Construct vertices whose Gram matrix matches the strength distribution.

    The target Gram matrix is positive semidefinite of rank B-1 (its null
    space is spanned by y itself), so a symmetric eigendecomposition with the
    single zero mode dropped yields vertices as rows of V * sqrt(L).
    Eigenpairs are sorted by descending eigenvalue (ties by index) and each
    eigenvector's sign is fixed by its largest-magnitude component, which
    makes the construction deterministic: equal y gives bit-identical output.
    """
    g = target_gram(y)
    eigvals, eigvecs = np.linalg.eigh(g)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    zero_cut = ZERO_MODE_RTOL * eigvals[0]
    n_zero = int(np.sum(np.abs(eigvals) <= zero_cut))
    if n_zero != 1:
        raise DegenerateStrengthsError(
            f"expected exactly one zero Gram eigenvalue, found {n_zero}; "
            "the strength distribution is numerically degenerate"
        )
    kept = eigvals[:-1]
    vecs = eigvecs[:, :-1]
    if np.any(kept <= 0.0):
        raise DegenerateStrengthsError("kept Gram eigenvalues must be positive")

    # canonical sign: largest-|component| entry of each eigenvector is positive
    anchor = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[anchor, np.arange(vecs.shape[1])])
    vecs = vecs * signs

    vertices = vecs * np.sqrt(kept)
    return Simplex(vertices=vertices, strengths=y)


def gram_defect(s: Simplex) -> float:
    """Max absolute deviation of the realized Gram matrix from its target."""
    realized = s.vertices @ s.vertices.T
    return float(np.max(np.abs(realized - target_gram(s.strengths))))


def weighted_moments(s: Simplex) -> tuple[float, float]:
    """(|sum y_r q_r|, sum y_r |q_r|^2); a valid simplex gives (0, B-1)."""
    y = s.strengths.weights
    centroid = y @ s.vertices
    norm_sum = float(y @ s.squared_norms)
    return float(np.linalg.norm(centroid)), norm_sum


def debug_dict(s: Simplex) -> dict:
    """JSON-ready dump of a simplex: strengths, vertices, and Gram defect."""
    return {
        "strengths": s.strengths.weights.tolist(),
        "vertices": s.vertices.tolist(),
        "gram_defect": gram_defect(s),
    }
