import math

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


def test_agreement_precision():
    assert agreement_precision([0.0], [2.0**-5]) == pytest.approx(5.0)
    assert agreement_precision([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
    assert agreement_precision([0.0], [3.0]) == pytest.approx(-math.log2(3.0))
    assert agreement_precision([1.0, 2.0], [1.0, 2.0]) == math.inf
