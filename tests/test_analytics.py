import numpy as np
import pytest

from simplexgame import (ValidationError, analytics, critical_lambda, predicted_anarchy, zeta,
                         zeta_monte_carlo)


def test_zeta_single_draw_is_exactly_zero():
    assert zeta(1) == 0.0


def test_zeta_two_draws_closed_form():
    assert zeta(2) == pytest.approx(-1.0 / np.sqrt(np.pi), abs=1e-12)


def test_zeta_three_draws_closed_form():
    assert zeta(3) == pytest.approx(-1.5 / np.sqrt(np.pi), abs=1e-12)


def test_zeta_four_and_five_draws_closed_form():
    a = np.arcsin(1.0 / 3.0)
    z4 = -(3.0 / (2.0 * np.sqrt(np.pi))) * (1.0 + (2.0 / np.pi) * a)
    z5 = -(5.0 / (4.0 * np.sqrt(np.pi))) * (1.0 + (6.0 / np.pi) * a)
    assert zeta(4) == pytest.approx(z4, abs=1e-12)
    assert zeta(5) == pytest.approx(z5, abs=1e-12)


def test_zeta_matches_high_precision_references():
    # 40-digit quadratures of S x phi(x) (1 - Phi(x))^(S-1), the density of the minimum
    assert zeta(22) == pytest.approx(-1.9096923216814163261, abs=1e-13)
    assert zeta(1000) == pytest.approx(-3.2414357691334408614, abs=1e-12)


def test_zeta_refuses_an_unresolved_rule(monkeypatch):
    # 9 nodes (step 2) cannot resolve the integrand: the half-resolution check trips
    monkeypatch.setattr(analytics, "QUAD_POINTS", 9)
    zeta.cache_clear()
    with pytest.raises(ArithmeticError):
        zeta(9)
    zeta.cache_clear()


def test_zeta_rejects_no_strategies():
    with pytest.raises(ValidationError):
        zeta(0)


def test_counts_are_checked_before_the_cache():
    # the cache is typed, so no cached count answers a float: untyped, the keys
    # of np.int64(2) and 2.0 are equal, as are those of strategies=2 and =2.0
    zeta(2), zeta(np.int64(2)), zeta(strategies=2), zeta(strategies=1)
    for strategies in (2.0, 2.5, True, np.float64(2.0)):
        with pytest.raises(ValidationError, match="^strategies must be an integer"):
            zeta(strategies)
        with pytest.raises(ValidationError, match="^strategies must be an integer"):
            zeta(strategies=strategies)
    with pytest.raises(ValidationError, match="^nodes must be an integer"):
        critical_lambda(2, 2.5)
    with pytest.raises(ValidationError, match="^samples must be an integer"):
        zeta_monte_carlo(2, samples=2.5)
    with pytest.raises(ValidationError, match="^samples must be >= 2"):
        zeta_monte_carlo(2, samples=1)


def test_zeta_strictly_decreasing():
    values = [zeta(s) for s in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("strategies", [2, 3, 4, 5, 6])
def test_zeta_quadrature_vs_monte_carlo(strategies):
    estimate, stderr = zeta_monte_carlo(strategies, samples=10**6, seed=strategies)
    # quadrature error budget is 1e-8, negligible next to the sampling error
    assert abs(zeta(strategies) - estimate) <= 4 * stderr


def test_zeta_monte_carlo_draws_chunks_from_one_stream(monkeypatch):
    # chunks of 3 rows read the normals one (10, 2) draw gives, in row order
    minima = np.random.default_rng(5).standard_normal((10, 2)).min(axis=1)
    monkeypatch.setattr(analytics, "MC_CHUNK", 3)
    estimate, stderr = zeta_monte_carlo(2, samples=10, seed=5)
    assert estimate == pytest.approx(minima.mean(), abs=1e-15)
    assert stderr == pytest.approx(minima.std(ddof=1) / np.sqrt(10), rel=1e-12)


def test_critical_lambda_values():
    assert critical_lambda(1, 7) == 0.0
    assert critical_lambda(2, 2) == pytest.approx(1.0 / np.pi, abs=1e-12)
    assert critical_lambda(2, 5) == pytest.approx(1.0 / (4 * np.pi), abs=1e-12)


def test_predicted_anarchy_boundary_and_limits():
    lc = critical_lambda(2, 2)
    assert predicted_anarchy(lc, 2, 2) == 0.0
    assert predicted_anarchy(0.5 * lc, 2, 2) == 0.0
    assert predicted_anarchy(4 * lc, 2, 2) == pytest.approx(0.25, abs=1e-12)
    assert predicted_anarchy(1e9, 2, 2) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValidationError):
        predicted_anarchy(0.0, 2, 2)


def test_predicted_anarchy_continuous_monotone_bounded():
    lc = critical_lambda(2, 5)
    grid = np.linspace(lc * 0.5, lc * 40, 400)
    values = np.array([predicted_anarchy(v, 2, 5) for v in grid])
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == 0.0
    assert np.all((values >= 0.0) & (values < 1.0))
    # continuity at the critical point
    assert predicted_anarchy(lc * (1 + 1e-9), 2, 5) <= 1e-9


def test_prediction_invariants():
    lambda_c = critical_lambda(2, 5)
    assert lambda_c == pytest.approx(zeta(2) ** 2 / 4, abs=1e-15)
    assert zeta(2) <= 0.0
    assert predicted_anarchy(lambda_c / 2, 2, 5) == 0.0
    assert predicted_anarchy(lambda_c * 9, 2, 5) == pytest.approx((1 - 1 / 3) ** 2, abs=1e-12)


def test_predicted_anarchy_across_the_onset():
    grid = critical_lambda(3, 4) * np.array([0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 1e6])
    values = np.array([predicted_anarchy(lam, 3, 4) for lam in grid])
    assert values[:4].tolist() == [0.0] * 4 and np.all(values[4:] > 0.0)


def test_reduction_leaves_predicted_curve_invariant():
    for lam in np.geomspace(0.01, 50, 40):
        direct = predicted_anarchy(lam, 2, 5)
        reduced = predicted_anarchy(lam * 4, 2, 2)
        assert abs(direct - reduced) <= 1e-12
