"""Analytic predictions: the anarchy onset and the closed-form frustration curve.

The steady-state frustration of a large game depends only on the number of
strategies S and the combination lambda * (B - 1).  The critical training
parameter is lambda_c = zeta(S)^2 / (B - 1), where zeta(S) is the expected
minimum of S independent standard normal draws; above it the predicted
frustration is (1 - sqrt(lambda_c / lambda))^2, below it zero.

zeta(S) is one 1-D integral, evaluated by the trapezoid rule on QUAD_POINTS
equally spaced nodes over [-QUAD_LIMIT, QUAD_LIMIT].  The integrand is smooth
and below 1e-27 at both ends, so the rule converges spectrally; the rule on
every other node (half the resolution) gives the error estimate, and an
estimate above QUAD_TOL raises ArithmeticError instead of returning a value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, check_allocation

QUAD_LIMIT = 8.0    # integrand carries exp(-z^2); tail beyond |z|=8 is < 1e-27
QUAD_POINTS = 1025  # trapezoid nodes, step 2 * QUAD_LIMIT / 1024 = 1/64
QUAD_TOL = 1e-8     # largest accepted fine-minus-coarse difference


@dataclass(frozen=True)
class AnarchyPrediction:
    """zeta(S), the critical lambda for (S, B), and the closed-form curve."""

    strategies: int
    nodes: int
    zeta: float
    lambda_c: float

    def curve(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        above = lam > self.lambda_c
        out[above] = (1.0 - np.sqrt(self.lambda_c / lam[above])) ** 2
        return out


@lru_cache(maxsize=None)
def zeta(strategies: int) -> float:
    """Expected minimum of `strategies` independent standard normals.

    Integrates S * sqrt(2/pi) * z exp(-z^2) (erfc(z)/2)^(S-1) over z, writing
    the survival factor as (erfc(z)/2)^(S-1) in [0, 1] so the integrand stays
    well scaled for any S.  Zero for a single draw by symmetry; negative and
    strictly decreasing for S >= 2.  `zeta_monte_carlo` samples it instead.
    """
    if strategies < 1:
        raise ValidationError("strategies must be >= 1")
    if strategies == 1:
        return 0.0
    z = np.linspace(-QUAD_LIMIT, QUAD_LIMIT, QUAD_POINTS)
    survival = np.array([0.5 * math.erfc(x) for x in z.tolist()])
    f = z * np.exp(-z * z) * survival ** (strategies - 1)
    h = z[1] - z[0]
    ends = 0.5 * (f[0] + f[-1])
    fine = h * (f.sum() - ends)
    coarse = 2.0 * h * (f[::2].sum() - ends)
    if abs(fine - coarse) > QUAD_TOL:
        raise ArithmeticError(f"quadrature error {abs(fine - coarse):.3e} above tolerance")
    return float(strategies * math.sqrt(2.0 / math.pi) * fine)


def zeta_monte_carlo(strategies: int, samples: int = 10**6, seed=None,
                     chunk: int = 10**6) -> tuple[float, float]:
    """Sampling estimate of zeta(S): (mean of per-draw minima, standard error)."""
    if strategies < 1:
        raise ValidationError("strategies must be >= 1")
    if samples < 2:
        raise ValidationError("need at least 2 samples")
    check_allocation(min(samples, chunk) * strategies * 8,
                     f"a chunk of {min(samples, chunk)} x {strategies} normal draws")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        take = min(remaining, chunk)
        m = rng.standard_normal((take, strategies)).min(axis=1)
        total += float(m.sum())
        total_sq += float((m * m).sum())
        remaining -= take
    mean = total / samples
    var = (total_sq - samples * mean * mean) / (samples - 1)
    return mean, float(np.sqrt(var / samples))


def critical_lambda(strategies: int, nodes: int) -> float:
    """lambda_c = zeta(S)^2 / (B - 1): the training ratio where anarchy emerges."""
    if nodes < 2:
        raise ValidationError("nodes must be >= 2")
    z = zeta(strategies)
    return z * z / (nodes - 1)


def predicted_anarchy(lam: float, strategies: int, nodes: int) -> float:
    """Closed-form steady-state frustration at training parameter lam."""
    if lam <= 0.0:
        raise ValidationError("lambda must be > 0")
    return float(prediction_for(strategies, nodes).curve(lam))


def prediction_for(strategies: int, nodes: int) -> AnarchyPrediction:
    return AnarchyPrediction(strategies=strategies, nodes=nodes, zeta=zeta(strategies),
                             lambda_c=critical_lambda(strategies, nodes))
