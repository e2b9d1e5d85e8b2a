"""Weighted-simplex geometry for node-choice games.

B node strengths y_r (positive, summing to one) are encoded as B vertices
q_r in (B-1)-dimensional space whose Gram matrix is

    q_r . q_l = -1 + delta_rl / sqrt(y_r * y_l)

With this encoding the weighted centroid sum(y_r q_r) vanishes, the weighted
norm sum equals B-1, and a node's congestion payoff becomes a dot product
against the aggregate bet vector of all players.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStrengthsError, ValidationError

WEIGHT_SUM_TOL = 1e-12
ZERO_MODE_RTOL = 1e-9
DEFAULT_PROPERNESS_THRESHOLD = 10.0
MAX_PROPER_DRAWS = 10_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StrengthDistribution:
    """Normalized node strengths: all weights positive, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size < 2:
            raise ValidationError(f"need at least 2 nodes, got {w.size}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("strengths must be finite")
        if np.any(w <= 0.0):
            raise ValidationError("every strength must be > 0")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"strengths must sum to 1 (got {float(w.sum())!r})")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def node_count(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, node_count: int) -> "StrengthDistribution":
        if node_count < 2:
            raise ValidationError(f"need at least 2 nodes, got {node_count}")
        return cls(np.full(node_count, 1.0 / node_count))

    @classmethod
    def from_efficiencies(cls, raw: np.ndarray) -> "StrengthDistribution":
        """Normalize raw per-node spectral efficiencies (e.g. Mbps) to strengths."""
        raw = np.asarray(raw, dtype=float).reshape(-1)
        if raw.size < 2 or np.any(raw <= 0.0) or not np.all(np.isfinite(raw)):
            raise ValidationError("efficiencies must be >= 2 positive finite values")
        return cls(raw / raw.sum())

    @classmethod
    def random_proper(cls, node_count, rng, threshold=DEFAULT_PROPERNESS_THRESHOLD,
                      alpha=1.0) -> "StrengthDistribution":
        """Draw Dirichlet(alpha) strengths; reject degenerate ones, up to MAX_PROPER_DRAWS."""
        for _ in range(MAX_PROPER_DRAWS):
            y = cls(rng.dirichlet(np.full(node_count, float(alpha))))
            if properness(y, threshold).is_proper:
                return y
        raise DegenerateStrengthsError(f"no proper strengths in {MAX_PROPER_DRAWS} draws")


@dataclass(frozen=True)
class Simplex:
    """B vertices in (B-1)-dim space realizing the weighted Gram condition."""

    vertices: np.ndarray  # shape (B, B-1), row r is q_r in node order
    strengths: StrengthDistribution

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        b = self.strengths.node_count
        if v.shape != (b, b - 1):
            raise ValidationError(f"vertices must have shape {(b, b - 1)}, got {v.shape}")
        object.__setattr__(self, "vertices", _readonly(v))

    @property
    def node_count(self) -> int:
        return self.strengths.node_count

    @property
    def squared_norms(self) -> np.ndarray:
        return np.einsum("rd,rd->r", self.vertices, self.vertices)


@dataclass(frozen=True)
class PropernessReport:
    index: float
    is_proper: bool


def target_gram(y: StrengthDistribution) -> np.ndarray:
    """The Gram matrix -1 + delta_rl / sqrt(y_r y_l) the vertices must realize."""
    g = np.full((y.node_count, y.node_count), -1.0)
    np.fill_diagonal(g, -1.0 + 1.0 / y.weights)
    return g


def build_simplex(y: StrengthDistribution) -> Simplex:
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


def isometry_defect(s: Simplex, x: np.ndarray) -> float:
    """|sum_r y_r (q_r . x)^2 - |x|^2|, zero for an exact simplex."""
    x = np.asarray(x, dtype=float).reshape(-1)
    dim = s.node_count - 1
    if x.size != dim:
        raise ValidationError(f"x must have dimension {dim}, got {x.size}")
    proj = s.vertices @ x
    return float(abs(s.strengths.weights @ (proj * proj) - x @ x))


def properness(y: StrengthDistribution,
               threshold: float = DEFAULT_PROPERNESS_THRESHOLD) -> PropernessReport:
    """Degeneracy index (1/(B-1)) sum_r (1/y_r - B); zero iff y is uniform."""
    if threshold <= 0.0:
        raise ValidationError("threshold must be > 0")
    b = y.node_count
    index = float(np.sum(1.0 / y.weights - b) / (b - 1))
    return PropernessReport(index=index, is_proper=index <= threshold)


def debug_dict(s: Simplex) -> dict:
    """JSON-ready dump of a simplex: strengths, vertices, and Gram defect."""
    return {
        "strengths": s.strengths.weights.tolist(),
        "vertices": s.vertices.tolist(),
        "gram_defect": gram_defect(s),
    }
