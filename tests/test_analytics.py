import numpy as np
import pytest

from simplexgame import (ValidationError, analytics, critical_lambda, predicted_anarchy,
                         prediction_for, zeta, zeta_monte_carlo)


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


def test_zeta_strictly_decreasing():
    values = [zeta(s) for s in range(1, 7)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("strategies", [2, 3, 4, 5, 6])
def test_zeta_quadrature_vs_monte_carlo(strategies):
    estimate, stderr = zeta_monte_carlo(strategies, samples=10**6, seed=strategies)
    # quadrature error budget is 1e-8, negligible next to the sampling error
    assert abs(zeta(strategies) - estimate) <= 4 * stderr


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


def test_prediction_for_invariants():
    pred = prediction_for(2, 5)
    assert pred.lambda_c == pytest.approx(pred.zeta ** 2 / 4, abs=1e-15)
    assert pred.zeta <= 0.0
    curve = pred.curve(np.array([pred.lambda_c / 2, pred.lambda_c * 9]))
    assert curve[0] == 0.0
    assert curve[1] == pytest.approx((1 - 1 / 3) ** 2, abs=1e-12)


def test_curve_and_predicted_anarchy_agree_across_the_onset():
    pred = prediction_for(3, 4)
    grid = pred.lambda_c * np.array([0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 1e6])
    curve = pred.curve(grid)
    assert curve[:4].tolist() == [0.0] * 4 and np.all(curve[4:] > 0.0)
    assert curve.tolist() == [predicted_anarchy(lam, 3, 4) for lam in grid]


def test_reduction_leaves_predicted_curve_invariant():
    for lam in np.geomspace(0.01, 50, 40):
        direct = predicted_anarchy(lam, 2, 5)
        reduced = predicted_anarchy(lam * 4, 2, 2)
        assert abs(direct - reduced) <= 1e-12
