import numpy as np
import pytest

from simplexgame import (DegenerateStrengthsError, Simplex, StrengthDistribution,
                         ValidationError, build_simplex, gram_defect, properness,
                         weighted_moments)
from simplexgame.geometry import debug_dict, target_gram

from conftest import random_proper_strengths
from references import isometry_defect


def test_binary_simplex_is_plus_minus_one():
    s = build_simplex(StrengthDistribution(np.array([0.5, 0.5])))
    v = s.vertices.reshape(-1)
    # scalars {+1, -1} up to a global sign
    assert np.allclose(np.sort(v), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(s.vertices @ s.vertices.T, [[1, -1], [-1, 1]], atol=1e-12)


def test_uniform_three_node_simplex():
    # three planar vectors of squared norm 2, pairwise dot -1 (120 degrees)
    s = build_simplex(StrengthDistribution.uniform(3))
    gram = s.vertices @ s.vertices.T
    assert np.allclose(np.diag(gram), 2.0, atol=1e-10)
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1.0, atol=1e-10)


def test_weighted_three_node_simplex():
    y = StrengthDistribution(np.array([0.5, 0.25, 0.25]))
    s = build_simplex(y)
    gram = s.vertices @ s.vertices.T
    assert np.allclose(np.diag(gram), [1.0, 3.0, 3.0], atol=1e-10)
    assert np.allclose(gram[~np.eye(3, dtype=bool)], -1.0, atol=1e-10)
    centroid_norm, _ = weighted_moments(s)
    assert centroid_norm <= 1e-10


def test_gram_defect_examples():
    y = StrengthDistribution(np.array([0.5, 0.5]))
    assert gram_defect(build_simplex(y)) <= 1e-10
    zero = Simplex(vertices=np.zeros((2, 1)), strengths=y)
    assert gram_defect(zero) == pytest.approx(1.0)
    hand = Simplex(vertices=np.array([[1.0], [-1.0]]), strengths=y)
    assert gram_defect(hand) == 0.0


def test_weighted_moments_examples(rng):
    s2 = build_simplex(StrengthDistribution(np.array([0.5, 0.5])))
    assert weighted_moments(s2) == pytest.approx((0.0, 1.0), abs=1e-12)

    s5 = build_simplex(random_proper_strengths(rng, 5))
    centroid, norm_sum = weighted_moments(s5)
    assert centroid <= 1e-10
    assert norm_sum == pytest.approx(4.0, abs=1e-10)

    s3 = build_simplex(StrengthDistribution(np.array([0.5, 0.25, 0.25])))
    centroid, norm_sum = weighted_moments(s3)
    assert centroid <= 1e-10
    assert norm_sum == pytest.approx(2.0, abs=1e-10)


def test_isometry_defect_zero_vector():
    s = build_simplex(StrengthDistribution.uniform(4))
    assert isometry_defect(s, np.zeros(3)) == 0.0


def test_isometry_defect_binary_exact():
    s = build_simplex(StrengthDistribution(np.array([0.5, 0.5])))
    for t in (0.3, -2.5, 17.0):
        assert isometry_defect(s, np.array([t])) == 0.0


def test_isometry_defect_random(rng):
    for _ in range(100):
        b = int(rng.integers(3, 11))
        s = build_simplex(random_proper_strengths(rng, b))
        x = rng.standard_normal(b - 1)
        x /= np.linalg.norm(x)
        assert isometry_defect(s, x) <= 1e-9


def test_isometry_dimension_mismatch():
    s = build_simplex(StrengthDistribution.uniform(3))
    with pytest.raises(ValidationError):
        isometry_defect(s, np.zeros(3))


def test_properness_examples():
    assert properness(StrengthDistribution.uniform(7)).index == pytest.approx(0.0, abs=1e-12)
    assert properness(StrengthDistribution.uniform(7)).is_proper

    report = properness(StrengthDistribution(np.array([0.5, 0.25, 0.25])))
    assert report.index == pytest.approx(0.5)
    assert report.is_proper

    rep = properness(StrengthDistribution(np.array([0.98, 0.01, 0.01])), threshold=10.0)
    assert rep.index == pytest.approx(96.01, abs=0.01)
    assert not rep.is_proper


def test_properness_threshold_validation():
    with pytest.raises(ValidationError):
        properness(StrengthDistribution.uniform(3), threshold=0.0)


def test_strength_validation():
    with pytest.raises(ValidationError):
        StrengthDistribution(np.array([0.5]))
    with pytest.raises(ValidationError):
        StrengthDistribution(np.array([0.7, -0.2, 0.5]))
    with pytest.raises(ValidationError):
        StrengthDistribution(np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        StrengthDistribution(np.array([0.5, 0.5 + 1e-9]))


def test_random_proper_gives_up_after_max_draws():
    # only the exactly uniform distribution has index 0, so no draw passes
    with pytest.raises(DegenerateStrengthsError):
        StrengthDistribution.random_proper(3, np.random.default_rng(0), threshold=1e-300)


def test_random_proper_accepts_the_same_draw_as_unbounded_rejection():
    # a strict threshold rejects many draws first; the accepted one and the
    # generator state afterwards match a plain rejection loop
    for seed in range(5):
        expect_rng = np.random.default_rng(seed)
        while True:
            y = StrengthDistribution(expect_rng.dirichlet(np.ones(4)))
            if properness(y, 2.0).is_proper:
                break
        rng = np.random.default_rng(seed)
        got = StrengthDistribution.random_proper(4, rng, threshold=2.0)
        assert got.weights.tobytes() == y.weights.tobytes()
        assert rng.random() == expect_rng.random()


def test_build_rejects_numerically_degenerate():
    # one near-zero weight drives the eigenvalue spread past the zero-mode cut
    delta = 1e-10
    w = np.array([0.5 - delta / 2, 0.5 - delta / 2, delta])
    with pytest.raises(DegenerateStrengthsError):
        build_simplex(StrengthDistribution(w))


def test_construction_invariants_random(rng):
    for _ in range(50):
        b = int(rng.integers(2, 13))
        y = random_proper_strengths(rng, b)
        s = build_simplex(y)
        assert gram_defect(s) <= 1e-10
        centroid, norm_sum = weighted_moments(s)
        assert centroid <= 1e-10
        assert abs(norm_sum - (b - 1)) <= 1e-10


def test_cauchy_schwarz_feasibility(rng):
    # (q_r^2)(q_l^2) >= (q_r . q_l)^2 must hold for every valid y
    for _ in range(20):
        b = int(rng.integers(2, 10))
        s = build_simplex(random_proper_strengths(rng, b))
        gram = s.vertices @ s.vertices.T
        sq = np.diag(gram)
        assert np.all(np.outer(sq, sq) - gram ** 2 >= -1e-9)


def test_determinism():
    y1 = StrengthDistribution(np.array([0.3, 0.45, 0.25]))
    y2 = StrengthDistribution(np.array([0.3, 0.45, 0.25]))
    a = build_simplex(y1).vertices
    b = build_simplex(y2).vertices
    assert a.tobytes() == b.tobytes()


def test_vertices_are_immutable():
    s = build_simplex(StrengthDistribution.uniform(3))
    with pytest.raises(ValueError):
        s.vertices[0, 0] = 5.0


def test_debug_dict_roundtrip():
    s = build_simplex(StrengthDistribution.uniform(3))
    d = debug_dict(s)
    assert d["gram_defect"] <= 1e-10
    assert np.allclose(np.array(d["vertices"]), s.vertices)
    assert np.allclose(np.array(d["strengths"]), s.strengths.weights)


def test_target_gram_matches_definition():
    y = StrengthDistribution(np.array([0.2, 0.3, 0.5]))
    g = target_gram(y)
    for r in range(3):
        for l in range(3):
            expect = -1.0 + (1.0 if r == l else 0.0) / np.sqrt(y.weights[r] * y.weights[l])
            assert g[r, l] == pytest.approx(expect, abs=1e-12)
