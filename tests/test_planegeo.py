import math
import warnings

import numpy as np
import pytest

from projlab import (DegeneracyError, InputDomainError, agreement_precision,
                     contains, fiber_hyperplane, fiber_sample, from_basis,
                     line_through, metric_rho, orthogonal_complement,
                     project_point, sample_uniform, smallest_singular_value,
                     span_from_points)


def test_span_from_points_plane():
    res = span_from_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert res.sigma == pytest.approx(1.0)
    assert np.allclose(res.plane.direction.proj, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(res.plane.offset, 0.0)


def test_span_from_points_line():
    res = span_from_points([[1.0, 1.0], [2.0, 2.0]])
    assert res.sigma == pytest.approx(math.sqrt(2.0))
    assert np.allclose(res.plane.direction.proj, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(res.plane.offset, 0.0, atol=1e-12)
    for p in ([1.0, 1.0], [2.0, 2.0]):
        assert res.plane.contains_point(p)


def test_span_from_points_collinear_rejected():
    with pytest.raises(DegeneracyError):
        span_from_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_span_from_points_needs_two_points():
    with pytest.raises(InputDomainError, match="at least two points"):
        span_from_points([[0.0, 0.0]])


@pytest.mark.parametrize("scale", [1e7, 1e9])
def test_span_from_points_far_from_the_origin(scale):
    # The offset check and contains_point once used absolute tolerances: the
    # span of points 1e7 from the origin was refused for its offset, and a
    # point of it could read as not contained (residual 1.1e-8 > 1e-9).
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = scale * rng.standard_normal((3, 4))
        plane = span_from_points(pts).plane
        assert all(plane.contains_point(p) for p in pts)
        normal = np.linalg.svd(np.column_stack([pts[1] - pts[0], pts[2] - pts[0]]))[0][:, -1]
        for p in pts:
            assert not plane.contains_point(p + 1e-3 * np.linalg.norm(p) * normal)


def test_span_from_points_follows_the_point_rule():
    # Points of different lengths once ended in a raw ValueError, and a numpy
    # complex point lost its imaginary part.
    with pytest.raises(InputDomainError, match=r"finite point of R\^2"):
        span_from_points([[0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InputDomainError, match="finite point of R"):
        span_from_points([np.array([0.0, 1j]), [1.0, 0.0]])
    with pytest.raises(InputDomainError, match="finite point of R"):
        line_through([0.0, np.nan], [1.0, 0.0])


def test_span_from_points_sigma_matches_svd_oracle():
    rng = np.random.default_rng(2)
    pts = [rng.standard_normal(4) for _ in range(4)]
    res = span_from_points(pts)
    diffs = np.column_stack([p - pts[0] for p in pts[1:]])
    assert res.sigma == pytest.approx(smallest_singular_value(diffs), abs=1e-10)
    for p in pts:
        assert res.plane.contains_point(p)


def test_line_through_examples():
    ell = line_through([0.0, 0.0], [1.0, 0.0])
    assert np.allclose(ell.direction.proj, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ell.offset, 0.0)

    ell = line_through([0.0, 1.0], [1.0, 1.0])
    assert np.allclose(ell.offset, [0.0, 1.0])

    ell = line_through([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    d = np.ones(3) / math.sqrt(3.0)
    assert np.allclose(ell.direction.proj, np.outer(d, d))


def test_line_through_coincident_points():
    with pytest.raises(DegeneracyError):
        line_through([1.0, 2.0], [1.0, 2.0])


def test_line_and_fiber_hyperplane_of_close_points():
    # Points 3 * 2^-30 apart once raised DegeneracyError in from_basis's
    # absolute rank test, though span_from_points' scale-free test passed them.
    z = np.array([0.25, -1.0, 3.0])
    w = z + 2.0**-30 * np.array([1.0, 2.0, -2.0])
    d = np.array([1.0, 2.0, -2.0]) / 3.0
    assert np.allclose(line_through(z, w).direction.proj, np.outer(d, d), atol=1e-12)
    assert np.allclose(fiber_hyperplane(z, w).proj, np.eye(3) - np.outer(d, d), atol=1e-12)
    assert span_from_points([z, w]).sigma == pytest.approx(2.0**-30 * 3.0)


def test_fiber_hyperplane_examples():
    h = fiber_hyperplane([0.0, 0.0], [1.0, 0.0])
    assert np.allclose(h.proj, [[0.0, 0.0], [0.0, 1.0]])
    h = fiber_hyperplane([0.0, 0.0, 0.0], [0.0, 0.0, 2.0])
    assert np.allclose(h.proj, np.diag([1.0, 1.0, 0.0]))


def test_fiber_hyperplane_equalizes_projections():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z, w = rng.standard_normal(4), rng.standard_normal(4)
        h = fiber_hyperplane(z, w)
        assert h.k == 3
        assert np.linalg.norm(project_point(h, z) - project_point(h, w)) <= 1e-9


def test_line_direction_is_complement_of_fiber_hyperplane():
    rng = np.random.default_rng(11)
    z, w = rng.standard_normal(5), rng.standard_normal(5)
    h = fiber_hyperplane(z, w)
    ell = line_through(z, w)
    assert metric_rho(ell.direction, orthogonal_complement(h)) <= 1e-9


def test_fiber_sample_contract():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = sample_uniform(4, 2, rng)
        z = rng.standard_normal(4)
        w = fiber_sample(v, z, radius=0.5, rng=rng)
        dist = np.linalg.norm(w - z)
        assert 0.0 < dist <= 0.5
        assert np.linalg.norm(project_point(v, w) - project_point(v, z)) <= 1e-9
        # Displacement orthogonal to V.
        assert np.linalg.norm(v.proj @ (w - z)) <= 1e-9
        # V sits inside the hyperplane of equal projections.
        assert contains(fiber_hyperplane(z, w), v)


def test_fiber_sample_axis_example():
    x_axis = from_basis(np.array([[1.0], [0.0]]))
    rng = np.random.default_rng(17)
    w = fiber_sample(x_axis, [0.0, 0.0], radius=1.0, rng=rng)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < abs(w[1]) <= 1.0


def test_fiber_sample_radius_validation():
    x_axis = from_basis(np.array([[1.0], [0.0]]))
    with pytest.raises(InputDomainError):
        fiber_sample(x_axis, [0.0, 0.0], radius=0.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("z, radius, message", [
    ([0.0, 0.0], math.nan, "radius"),
    ([0.0, 0.0], math.inf, "radius"),
    ([0.0, 0.0], "1", "radius"),
    ([0.0, math.nan], 1.0, "finite point"),
    ([0.0, 0.0, 0.0], 1.0, "finite point"),
    (["a", "b"], 1.0, "finite point"),
], ids=["radius-nan", "radius-inf", "radius-string", "z-nan", "z-length", "z-string"])
def test_fiber_sample_refuses_non_finite_input(z, radius, message):
    # A NaN radius once returned a NaN point, an infinite one +-inf, and a
    # string radius died in a raw TypeError.
    x_axis = from_basis(np.array([[1.0], [0.0]]))
    with pytest.raises(InputDomainError, match=message):
        fiber_sample(x_axis, z, radius=radius, rng=np.random.default_rng(0))


@pytest.mark.parametrize("z, w", [([math.nan, 0.0], [0.0, 0.0]),
                                  ([0.0, 0.0], [0.0, -math.inf]),
                                  ([0.0, 0.0], [0.0, 0.0, 0.0]),
                                  (np.array([1.0, 2j]), [1.0, 0.0]),
                                  ([0.0], np.array([1j]))],
                         ids=["nan", "inf", "lengths", "complex-z", "complex-w"])
def test_agreement_precision_refuses_non_finite_points(z, w):
    # agreement_precision([nan, 0], [0, 0]) once returned nan, and points of
    # different lengths ended in a raw ValueError.
    with pytest.raises(InputDomainError, match="must be a finite point of R"):
        agreement_precision(z, w)


def test_agreement_precision_of_far_points():
    # np.linalg.norm squared the difference and overflowed to -inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = agreement_precision([1e200, 1e200], [0.0, 0.0])
    assert t == pytest.approx(-math.log2(math.sqrt(2.0) * 1e200))
    assert t == pytest.approx(-664.8, abs=0.1)


@pytest.mark.parametrize("z, w", [([1e308], [-1e308]),
                                  ([1.7e308, -1.7e308], [-1.7e308, 1.7e308]),
                                  ([1.5e308, 1.5e308], [0.0, 0.0])],
                         ids=["opposite", "opposite-2d", "hypot-overflow"])
def test_agreement_precision_near_the_float_maximum(z, w):
    # z - w overflowed to inf for coordinates of opposite sign near the float
    # maximum, and hypot did for far points in more than one coordinate.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = agreement_precision(z, w)
    quarter = np.array(z) / 4.0 - np.array(w) / 4.0
    assert t == pytest.approx(-2.0 - math.log2(math.hypot(*quarter)), abs=1e-12)
    assert t == pytest.approx(agreement_precision(np.array(z) / 4.0, np.array(w) / 4.0) - 2.0)
    if len(z) == 1:
        assert t == pytest.approx(-1.0 - math.log2(1e308), abs=1e-12)  # about -1024.15


def test_agreement_precision_keeps_small_differences_beside_large_coordinates():
    # Only an overflowing distance is scaled: points far from the origin keep
    # the bits of a small difference.
    assert agreement_precision([1e300, 1e-300], [1e300, 0.0]) == -math.log2(1e-300)
    assert agreement_precision([1e308, 5e-324], [1e308, 0.0]) == 1074.0


def test_agreement_precision():
    assert agreement_precision([0.0], [2.0**-5]) == pytest.approx(5.0)
    assert agreement_precision([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
    assert agreement_precision([0.0], [3.0]) == pytest.approx(-math.log2(3.0))
    assert agreement_precision([1.0, 2.0], [1.0, 2.0]) == math.inf
