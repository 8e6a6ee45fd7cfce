import json
import math

import numpy as np
import pytest

from projlab import (AffinePlane, DegeneracyError, InputDomainError, Subspace,
                     chart_stability, contains, from_basis, metric_rho,
                     orthogonal_complement, perturb_within, project_point,
                     sample_uniform)
from projlab.grassmann import check_projections


def line(theta, n=2):
    v = np.zeros(n)
    v[0], v[1] = math.cos(theta), math.sin(theta)
    return from_basis(v[:, None])


X_AXIS_2D = from_basis(np.array([[1.0], [0.0]]))
Y_AXIS_2D = from_basis(np.array([[0.0], [1.0]]))


def test_from_basis_coordinate_axis():
    assert np.allclose(X_AXIS_2D.proj, [[1.0, 0.0], [0.0, 0.0]])


def test_from_basis_diagonal():
    v = from_basis(np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert np.allclose(v.proj, [[0.5, 0.5], [0.5, 0.5]])


def test_from_basis_fixes_columns():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((5, 2))
    v = from_basis(cols)
    assert v.k == 2
    assert np.allclose(v.proj @ cols, cols, atol=1e-10)


def test_from_basis_rejects_dependent_columns():
    e1 = np.array([1.0, 0.0])
    with pytest.raises(DegeneracyError) as exc:
        from_basis(np.column_stack([e1, e1]))
    assert exc.value.sigma <= 1e-8


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**-27, 2.0**600],
                         ids=["2^-600", "2^-27", "2^600"])
def test_from_basis_decides_rank_at_any_scale(scale):
    # An absolute sigma <= 1e-8 test once refused a well-conditioned basis at
    # 2^-27.  Scaling by a power of two is exact, so the projection's bits do
    # not move, and a basis dependent up to 1e-10 of its largest entry is
    # refused at every scale.
    a = np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]])
    assert from_basis(scale * a).proj.tobytes() == from_basis(a).proj.tobytes()
    with pytest.raises(DegeneracyError, match="linearly dependent"):
        from_basis(scale * np.column_stack([a[:, 0], 3.0 * a[:, 0]]))
    with pytest.raises(DegeneracyError, match="linearly dependent"):
        from_basis(scale * np.array([[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0]]))


def test_from_basis_of_huge_entries():
    # a^T a once overflowed and failed the Subspace check as "trace(proj)=0".
    assert np.array_equal(from_basis(1e200 * np.eye(3)[:, :2]).proj, np.diag([1.0, 1.0, 0.0]))


def test_from_basis_of_an_ill_conditioned_basis():
    # The normal equations square cond(A): this basis passes the rank test
    # (sigma 3.5e-7 after scaling), and its P = A (A^T A)^-1 A^T once failed
    # the Subspace check as "proj is not idempotent".
    v = from_basis([[1.0, 1.0], [0.0, 1e-6], [0.0, 0.0]])
    assert metric_rho(v, from_basis(np.eye(3)[:, :2])) <= 1e-12


@pytest.mark.parametrize("shape", [(2, 3), (3, 5)])
def test_from_basis_rejects_wide_matrix(shape):
    # More columns than rows are dependent; once a raw LinAlgError (2 x 3)
    # or a trace message (3 x 5).
    a = np.random.default_rng(1).standard_normal(shape)
    with pytest.raises(DegeneracyError, match="linearly dependent") as exc:
        from_basis(a)
    assert exc.value.sigma == 0.0


def test_project_point_examples():
    assert np.allclose(project_point(X_AXIS_2D, [3.0, 4.0]), [3.0, 0.0])
    diag = from_basis(np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert np.allclose(project_point(diag, [1.0, 0.0]), [0.5, 0.5])
    # Points of V are fixed.
    x = diag.proj @ np.array([2.0, -3.0])
    assert np.allclose(project_point(diag, x), x, atol=1e-12)


def test_project_point_dimension_mismatch():
    with pytest.raises(InputDomainError):
        project_point(X_AXIS_2D, [1.0, 2.0, 3.0])


def test_metric_rho_examples():
    assert metric_rho(X_AXIS_2D, X_AXIS_2D) == pytest.approx(0.0, abs=1e-12)
    assert metric_rho(X_AXIS_2D, Y_AXIS_2D) == pytest.approx(1.0)
    assert metric_rho(X_AXIS_2D, line(math.pi / 6)) == pytest.approx(0.5, abs=1e-12)


def test_metric_rho_is_sine_of_angle():
    for theta in np.linspace(0.01, math.pi - 0.01, 50):
        assert metric_rho(X_AXIS_2D, line(theta)) == pytest.approx(
            abs(math.sin(theta)), abs=1e-9)


def test_metric_rho_dimension_mismatch():
    v3 = from_basis(np.eye(3)[:, :1])
    with pytest.raises(InputDomainError):
        metric_rho(X_AXIS_2D, v3)


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        u, v, w = (sample_uniform(4, 2, rng) for _ in range(3))
        duv, dvw, duw = metric_rho(u, v), metric_rho(v, w), metric_rho(u, w)
        assert duv >= 0.0
        assert duv == pytest.approx(metric_rho(v, u), abs=1e-12)
        assert duw <= duv + dvw + 1e-10
        assert max(duv, dvw, duw) <= 1.0 + 1e-12


def test_projection_is_one_lipschitz():
    rng = np.random.default_rng(8)
    v = sample_uniform(5, 2, rng)
    for _ in range(200):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        lhs = np.linalg.norm(project_point(v, x) - project_point(v, y))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_orthogonal_complement():
    x_axis_3d = from_basis(np.eye(3)[:, :1])
    comp = orthogonal_complement(x_axis_3d)
    assert comp.k == 2
    assert np.allclose(comp.proj, np.diag([0.0, 1.0, 1.0]))
    assert np.trace(comp.proj) == pytest.approx(2.0, abs=1e-12)
    # Exact involution on coordinate subspaces, one-ulp on generic ones.
    assert np.array_equal(orthogonal_complement(comp).proj, x_axis_3d.proj)
    rng = np.random.default_rng(4)
    v = sample_uniform(5, 3, rng)
    assert np.allclose(orthogonal_complement(orthogonal_complement(v)).proj,
                       v.proj, atol=1e-15)


def test_contains():
    x_axis = from_basis(np.eye(3)[:, :1])
    xy_plane = from_basis(np.eye(3)[:, :2])
    yz_plane = from_basis(np.eye(3)[:, 1:])
    assert contains(xy_plane, x_axis)
    assert not contains(yz_plane, x_axis)
    assert contains(x_axis, x_axis)


def test_double_containment_implies_equality():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = sample_uniform(4, 2, rng)
        w = Subspace(n=4, k=2, proj=v.proj.copy())
        if contains(v, w) and contains(w, v):
            assert metric_rho(v, w) <= 1e-7


def test_sample_uniform_deterministic_under_seed():
    a = sample_uniform(2, 1, np.random.default_rng(123))
    b = sample_uniform(2, 1, np.random.default_rng(123))
    assert np.array_equal(a.proj, b.proj)


def test_sample_uniform_valid_invariants():
    v = sample_uniform(3, 2, np.random.default_rng(5))
    assert np.trace(v.proj) == pytest.approx(2.0, abs=1e-8)


def test_sample_uniform_k_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(InputDomainError):
        sample_uniform(3, 3, rng)
    with pytest.raises(InputDomainError):
        sample_uniform(3, 0, rng)


@pytest.mark.parametrize("n, k, name", [(2.5, 1, "n"), (3, 1.0, "k"), ("3", 1, "n"),
                                         (3, None, "k")],
                         ids=["n-fractional", "k-float", "n-string", "k-none"])
def test_sample_uniform_refuses_non_integer_dimensions(n, k, name):
    # 2.5 once died in a raw TypeError inside standard_normal.
    rng = np.random.default_rng(0)
    with pytest.raises(InputDomainError, match=f"^{name} must be an integer, got "):
        sample_uniform(n, k, rng)
    # Refused before anything is drawn.
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_sample_uniform_rotation_invariance():
    # Two-sample check: statistics of rho(V, x-axis)^2 match when every
    # sample is conjugated by a fixed rotation.
    rng = np.random.default_rng(99)
    theta = 0.73
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    plain, conjugated = [], []
    for _ in range(10000):
        v = sample_uniform(2, 1, rng)
        plain.append(metric_rho(v, X_AXIS_2D) ** 2)
        w = Subspace(n=2, k=1, proj=rot @ v.proj @ rot.T)
        conjugated.append(metric_rho(w, X_AXIS_2D) ** 2)
    m1, m2 = np.mean(plain), np.mean(conjugated)
    assert abs(m1 - m2) <= 0.02 * max(m1, m2)


def test_perturb_within_meets_metric_target():
    rng = np.random.default_rng(21)
    v = sample_uniform(4, 2, rng)
    for eps in (2.0**-10, 2.0**-20):
        w = perturb_within(v, eps, rng)
        rho = metric_rho(w, v)
        assert 0.0 < rho <= eps


def test_perturb_within_distinct_seeds_give_distinct_results():
    v = sample_uniform(3, 1, np.random.default_rng(1))
    w1 = perturb_within(v, 1e-4, np.random.default_rng(2))
    w2 = perturb_within(v, 1e-4, np.random.default_rng(3))
    assert metric_rho(w1, w2) > 0.0


def test_perturb_within_chart_coordinates_stay_close():
    # Cross-check against the chart module's stability constant.
    rng = np.random.default_rng(31)
    v = sample_uniform(4, 2, rng)
    eps = 2.0**-20
    max_observed, constant = chart_stability(v, eps, trials=20, rng=rng)
    assert max_observed <= constant * eps


def test_perturb_within_eps_out_of_range():
    v = sample_uniform(3, 1, np.random.default_rng(1))
    with pytest.raises(InputDomainError):
        perturb_within(v, 0.0, np.random.default_rng(1))
    with pytest.raises(InputDomainError):
        perturb_within(v, 1.5, np.random.default_rng(1))


def test_subspace_rejects_broken_invariants():
    with pytest.raises(InputDomainError, match="symmetric"):
        Subspace(n=2, k=1, proj=np.array([[1.0, 0.1], [0.0, 0.0]]))
    with pytest.raises(InputDomainError, match="idempotent"):
        Subspace(n=2, k=1, proj=np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(InputDomainError, match="trace"):
        Subspace(n=3, k=2, proj=np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: Subspace(n=2, k=2, proj=np.eye(2)), "need 0 < k < n"),
    (lambda: Subspace(n=3, k=1, proj=X_AXIS_2D.proj), r"shape \(2, 2\) does not match n=3"),
    (lambda: from_basis(np.eye(2)), "need 0 < k < n"),
    (lambda: from_basis(np.random.default_rng(3).standard_normal((3, 3))), "need 0 < k < n"),
    (lambda: contains(X_AXIS_2D, line(0.0, n=3)), "same ambient dimension"),
    (lambda: AffinePlane(X_AXIS_2D, np.zeros(3)), r"offset must be a finite point of R\^2"),
    # NaN > tol is False, so a NaN offset once passed the orthogonality test.
    (lambda: AffinePlane(X_AXIS_2D, [np.nan, np.nan]), "offset must be a finite point"),
    (lambda: AffinePlane.through(X_AXIS_2D, [0.0, np.inf]), "point must be a finite point"),
    # Each of these once ended in a raw ValueError, and a NaN point was
    # reported as not contained.
    (lambda: AffinePlane(X_AXIS_2D, ["a", "b"]), "offset must be a finite point"),
    (lambda: AffinePlane.through(X_AXIS_2D, ["a", "b"]), "point must be a finite point"),
    (lambda: AffinePlane(X_AXIS_2D).contains_point([0.0, 0.0, 0.0]), "finite point of R\\^2"),
    (lambda: AffinePlane(X_AXIS_2D).contains_point(["a", "b"]), "finite point of R\\^2"),
    (lambda: AffinePlane(X_AXIS_2D).contains_point([np.nan, 0.0]), "finite point of R\\^2"),
    (lambda: project_point(X_AXIS_2D, ["a", "b"]), "finite point of R\\^2"),
    # A numpy complex array once lost its imaginary part: this projected to [1, 0].
    (lambda: project_point(X_AXIS_2D, np.array([1 + 5j, 2j])), "finite point of R\\^2"),
    (lambda: AffinePlane(X_AXIS_2D, np.array([0.0, 1j])), "offset must be a finite point"),
    (lambda: AffinePlane.through(X_AXIS_2D, np.array([1j, 0.0])), "point must be a finite point"),
    (lambda: AffinePlane(X_AXIS_2D).contains_point(np.array([1 + 1j, 0.0])),
     "finite point of R\\^2"),
    # The matrix doors once dropped the imaginary part of a complex array, so
    # these were the x-axis, and a complex list died in a raw TypeError.
    (lambda: Subspace(n=2, k=1, proj=np.array([[1, 5j], [0, 0]])),
     "projection matrix entries must be real"),
    (lambda: Subspace(n=2, k=1, proj=[[1, 5j], [0, 0]]), "projection matrix entries must be real"),
    (lambda: from_basis(np.array([[1 + 1j], [0]])), "matrix entries must be real"),
], ids=["subspace-k-not-below-n", "subspace-shape", "from_basis-k-not-below-n",
        "from_basis-square", "contains-across-n", "affine-offset-length", "affine-offset-nan",
        "affine-through-inf", "affine-offset-string", "affine-through-string",
        "contains-point-length", "contains-point-string", "contains-point-nan",
        "project-point-string", "project-point-complex", "affine-offset-complex",
        "affine-through-complex", "contains-point-complex", "subspace-complex-array",
        "subspace-complex-list", "from_basis-complex"])
def test_subspace_arguments_out_of_domain(call, message):
    with pytest.raises(InputDomainError, match=message):
        call()


@pytest.mark.parametrize("n, k, name", [(2, 1.0, "k"), (2.0, 1, "n"), (2, "1", "k")],
                         ids=["k-float", "n-float", "k-string"])
def test_subspace_refuses_non_integer_dimensions(n, k, name):
    # Subspace(n=2, k=1.0) was once accepted; to_chart and good_basis then
    # died in a raw TypeError, and to_json wrote "k": 1.0.
    with pytest.raises(InputDomainError, match=f"^{name} must be an integer, got "):
        Subspace(n=n, k=k, proj=X_AXIS_2D.proj)


def test_subspace_stores_integer_dimensions():
    v = Subspace(n=np.int64(2), k=np.int32(1), proj=X_AXIS_2D.proj)
    assert (type(v.n), type(v.k)) == (int, int)
    assert json.loads(v.to_json())["k"] == 1


def test_subspace_json_round_trip():
    rng = np.random.default_rng(77)
    v = sample_uniform(4, 2, rng)
    w = Subspace.from_json(v.to_json())
    assert w.n == 4 and w.k == 2
    assert metric_rho(v, w) == pytest.approx(0.0, abs=1e-12)


def test_subspace_json_rejects_with_diagnostic():
    with pytest.raises(InputDomainError, match="field proj: missing from subspace JSON"):
        Subspace.from_json(json.dumps({"n": 2, "k": 1}))
    bad = json.dumps({"n": 2, "k": 1, "proj": [1.0, 0.1, 0.0, 0.0]})
    with pytest.raises(InputDomainError, match="symmetric"):
        Subspace.from_json(bad)


def test_affine_plane_offset_canonical():
    plane = AffinePlane.through(X_AXIS_2D, np.array([3.0, 4.0]))
    assert np.allclose(plane.offset, [0.0, 4.0])
    assert plane.contains_point([7.0, 4.0])
    with pytest.raises(InputDomainError, match="orthogonal"):
        AffinePlane(X_AXIS_2D, np.array([1.0, 1.0]))


@pytest.mark.parametrize("scale", [1e7, 1e8, 1e10, 1e12])
def test_affine_plane_through_far_points(scale):
    # through() checked the offset p - P p it had just built against an
    # absolute 1e-10, so points 1e7 from the origin were refused.
    v = from_basis(np.array([[0.6], [-0.8], [0.0]]))
    p = scale * np.array([0.3, 0.7, -0.9])
    plane = AffinePlane.through(v, p)
    assert np.abs(plane.offset - (p - v.proj @ p)).max() == 0.0
    assert plane.contains_point(p) and plane.contains_point(p + 1e-3 * scale * v.basis[:, 0])
    assert not plane.contains_point(p + 1e-3 * scale * plane.offset / np.linalg.norm(plane.offset))
    # The door for an outside offset scales its tolerance by max(1, ||t||).
    assert np.array_equal(AffinePlane(v, plane.offset).offset, plane.offset)


def test_affine_plane_tolerances_are_relative():
    far = np.array([1e-3, 1e8])
    assert np.array_equal(AffinePlane(X_AXIS_2D, far).offset, far)
    with pytest.raises(InputDomainError, match="orthogonal"):
        AffinePlane(X_AXIS_2D, np.array([1.0, 1e8]))
    with pytest.raises(InputDomainError, match="orthogonal"):
        AffinePlane(X_AXIS_2D, np.array([1e-9, 1e-3]))
    plane = AffinePlane(X_AXIS_2D, [0.0, 1e8])
    assert plane.contains_point([5e9, 1e8 + 2.0]) and not plane.contains_point([5e9, 1e8 + 10.0])
    assert plane.contains_point([0.0, 1e8 + 0.05]) and not plane.contains_point([0.0, 1e8 + 0.2])
    near = AffinePlane(X_AXIS_2D, [0.0, 1e-3])
    assert near.contains_point([0.5, 1e-3 + 9e-10]) and not near.contains_point([0.5, 1e-3 + 2e-9])


def test_check_projections_rejects_any_broken_member():
    # check_projections takes one matrix; it once took a stack, left over
    # from the deleted projection stacks.
    good = sample_uniform(3, 1, np.random.default_rng(3)).proj
    check_projections(good, 1)
    cases = [("finite", np.full((3, 3), np.nan)),
             ("symmetric", good + np.triu(np.full((3, 3), 1e-6), 1)),
             ("idempotent", 0.5 * np.eye(3)),
             ("trace", good + (np.eye(3) - good))]
    for message, bad in cases:
        with pytest.raises(InputDomainError, match=message):
            check_projections(bad, 1)


def tolerance_edge_projections(size):
    """Two 4 x 4 matrices near the rank-2 coordinate projection whose defect,
    P - P^T for the first and P^2 - P for the second, has spectral norm about
    ``size`` and Frobenius norm about 2 * ``size``."""
    base = np.diag([1.0, 1.0, 0.0, 0.0])
    skew = np.zeros((4, 4))
    skew[0, 1] = skew[2, 3] = size
    return base + (skew - skew.T) / 2.0, base + size * np.eye(4)


def test_check_projections_spectral_not_frobenius_norm(monkeypatch):
    svd_calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: svd_calls.append(a.shape) or real_svd(a, *args, **kw))
    check_projections(sample_uniform(4, 2, np.random.default_rng(5)).proj, 2)
    # A matrix whose Frobenius norms pass needs no SVD.
    assert svd_calls == []
    asymmetric, non_idempotent = tolerance_edge_projections(0.9e-10)
    for p in (asymmetric, non_idempotent):
        # Spectral norm 0.9e-10 <= 1e-10 < Frobenius norm 1.8e-10: accepted.
        check_projections(p, 2)
        Subspace(n=4, k=2, proj=p)
    assert len(svd_calls) == 4
    asymmetric, non_idempotent = tolerance_edge_projections(1.1e-10)
    with pytest.raises(InputDomainError, match="^invariant violated: proj is not symmetric$"):
        check_projections(asymmetric, 2)
    with pytest.raises(InputDomainError, match="^invariant violated: proj is not idempotent$"):
        Subspace(n=4, k=2, proj=non_idempotent)
    # A rank-one defect has equal spectral and Frobenius norms.
    check_projections(np.diag([1.0 + 0.999e-10, 1.0, 0.0, 0.0]), 2)
    with pytest.raises(InputDomainError, match="^invariant violated: proj is not idempotent$"):
        check_projections(np.diag([1.0 + 1.001e-10, 1.0, 0.0, 0.0]), 2)
