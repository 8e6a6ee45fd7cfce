import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projlab import (DegeneracyError, InputDomainError, SingularityError,
                     cauchy_binet, determinant, from_basis, good_submatrix, inverse,
                     perturbation_inverse_bound, row_submatrix, singular_values,
                     smallest_singular_value, span_from_points, spectral_norm)
from projlab.charts import chart_bases


def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])


def test_singular_values_diagonal():
    assert np.allclose(singular_values(np.diag([2.0, 0.5])), [2.0, 0.5])


def test_singular_values_tall_matrix():
    # Oracle: squared singular values are the eigenvalues of A^T A.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    eigs = np.linalg.eigvalsh(a.T @ a)[::-1]
    assert np.allclose(singular_values(a), np.sqrt(eigs))
    assert np.allclose(singular_values(a), [math.sqrt(3.0), 1.0])


def test_singular_values_descending_and_product_is_det():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 7)
        m = rng.standard_normal((n, n))
        s = singular_values(m)
        assert np.all(np.diff(s) <= 0)
        assert math.isclose(abs(determinant(m)), float(np.prod(s)),
                            rel_tol=1e-8, abs_tol=1e-12)


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
    proj = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert spectral_norm(proj) == pytest.approx(1.0)
    assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)


def test_row_submatrix():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    assert np.array_equal(row_submatrix(m, (0, 1)), np.eye(2))
    assert np.array_equal(row_submatrix(m, (0, 1, 2)), m)
    m2 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(row_submatrix(m2, (0, 2)), [[1.0, 2.0], [5.0, 6.0]])


def test_row_submatrix_rejects_bad_index_sets():
    m = np.eye(3)
    with pytest.raises(InputDomainError):
        row_submatrix(m, (0, 3))
    with pytest.raises(InputDomainError):
        row_submatrix(m, (1, 1))
    with pytest.raises(InputDomainError):
        row_submatrix(m, (2, 0))
    # int() once read row 1.5 as row 1.
    with pytest.raises(InputDomainError, match="index set entry must be an integer, got 1.5"):
        row_submatrix(m, (0, 1.5))
    assert np.array_equal(row_submatrix(m, np.array([0, 2])), m[[0, 2]])


def test_inverse_examples():
    assert np.allclose(inverse(np.eye(3)), np.eye(3))
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    inv = inverse(m)
    assert np.allclose(inv, [[1.0, -1.0], [0.0, 1.0]])
    assert np.allclose(m @ inv, np.eye(2), atol=1e-12)


def test_inverse_norm_is_reciprocal_smallest_singular_value():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.standard_normal((4, 4))
        assert spectral_norm(inverse(m)) == pytest.approx(
            1.0 / smallest_singular_value(m), rel=1e-8)


@pytest.mark.parametrize("call, message", [
    (lambda: determinant(np.ones((2, 3))), "square"),
    (lambda: inverse(np.ones((2, 3))), "square"),
    (lambda: cauchy_binet(np.ones((1, 2))), "need rows >= cols"),
    (lambda: perturbation_inverse_bound(np.eye(2), np.eye(3)), "same size"),
    # A numpy complex array once lost its imaginary part: this returned [[1.0]].
    (lambda: inverse(np.array([[1 + 1j]])), "matrix entries must be real"),
    (lambda: inverse([[1 + 1j]]), "matrix entries must be real"),
    (lambda: singular_values(np.array([[1.0, 2j]])), "matrix entries must be real"),
    # A non-numeric or ragged entry once ended in numpy's raw ValueError.
    (lambda: inverse([["a"]]), "^matrix must be a 2-d array of real numbers: "),
    (lambda: inverse([[1, 2], [3]]), "^matrix must be a 2-d array of real numbers: "),
], ids=["determinant", "inverse", "cauchy_binet", "perturbation_inverse_bound",
        "inverse-complex-array", "inverse-complex-list", "singular_values-complex",
        "inverse-string", "inverse-ragged"])
def test_shape_errors_are_typed(call, message):
    with pytest.raises(InputDomainError, match=message):
        call()


def test_inverse_rejects_singular():
    with pytest.raises(SingularityError) as exc:
        inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert exc.value.sigma >= 0.0


def test_cauchy_binet_hand_example():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lhs, terms = cauchy_binet(a)
    assert lhs == pytest.approx(3.0)
    # Subsets in lexicographic order: {0,1}, {0,2}, {1,2}.
    assert np.allclose(terms, [1.0, 1.0, 1.0])


def test_cauchy_binet_identity_columns():
    a = np.eye(4)[:, :2]
    lhs, terms = cauchy_binet(a)
    assert lhs == pytest.approx(1.0)
    assert terms[0] == pytest.approx(1.0)
    assert np.allclose(terms[1:], 0.0)


def test_cauchy_binet_zero_column():
    a = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    lhs, terms = cauchy_binet(a)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(terms, 0.0)


def test_cauchy_binet_residual_random():
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        for m in range(1, min(n, 4) + 1):
            for _ in range(30):
                a = rng.standard_normal((n, m))
                lhs, terms = cauchy_binet(a)
                assert abs(lhs - sum(terms)) <= 1e-9 * max(1.0, lhs)


def test_perturbation_bound_hand_example():
    res = perturbation_inverse_bound(np.eye(2), 1.1 * np.eye(2))
    assert res.premise_holds
    assert res.actual == pytest.approx(1.0 - 1.0 / 1.1)
    assert res.bound == pytest.approx(0.1 / 0.9)
    assert res.actual <= res.bound


def test_perturbation_bound_identical_matrices():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    res = perturbation_inverse_bound(m, m)
    assert res.premise_holds
    assert res.actual == pytest.approx(0.0, abs=1e-14)
    assert res.bound == pytest.approx(0.0, abs=1e-14)


def test_perturbation_bound_premise_fails():
    res = perturbation_inverse_bound(np.eye(2), 3.0 * np.eye(2))
    assert not res.premise_holds
    assert res.bound == math.inf


def test_perturbation_bound_of_small_matrices():
    # The premise-false branch once tested A2 against max(sigma_max, 1), an
    # absolute threshold, and read this well-conditioned A2 as singular:
    # actual was inf.
    res = perturbation_inverse_bound(1e-20 * np.eye(2), 3e-20 * np.eye(2))
    assert not res.premise_holds and res.bound == math.inf
    assert res.actual == pytest.approx(1e20 - 1e20 / 3, rel=1e-12)
    # A2 singular by the rank rule: no claim and no value.
    res = perturbation_inverse_bound(np.eye(2), np.diag([1.0, 0.0]))
    assert res == (math.inf, math.inf, False)


def test_perturbation_bound_random_trials():
    rng = np.random.default_rng(23)
    holds = 0
    for _ in range(2000):
        a = rng.standard_normal((3, 3))
        a2 = a + 0.05 * rng.standard_normal((3, 3))
        res = perturbation_inverse_bound(a, a2)
        if res.premise_holds:
            holds += 1
            assert res.actual <= res.bound + 1e-10
    assert holds > 100


def test_submatrix_norm_never_exceeds_full_norm():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = rng.standard_normal((5, 3))
        idx = tuple(sorted(rng.choice(5, size=rng.integers(1, 6), replace=False)))
        assert spectral_norm(row_submatrix(m, idx)) <= spectral_norm(m) + 1e-10


@settings(max_examples=50, deadline=None)
@given(b=arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       c=arrays(np.float64, (4, 2), elements=st.floats(-10, 10)))
def test_spectral_norm_submultiplicative(b, c):
    assert spectral_norm(b @ c) <= spectral_norm(b) * spectral_norm(c) + 1e-9


def test_column_bound():
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = rng.standard_normal((4, 3))
        a2 = rng.standard_normal((4, 3))
        col_bound = math.sqrt(sum(np.linalg.norm(a[:, j] - a2[:, j]) ** 2
                                  for j in range(3)))
        assert spectral_norm(a - a2) <= col_bound + 1e-10


def test_smallest_singular_value_lipschitz():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        gap = abs(smallest_singular_value(a) - smallest_singular_value(b))
        assert gap <= spectral_norm(a - b) + 1e-10


def test_minimum_stretch():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 200))
        x /= np.linalg.norm(x, axis=0)
        assert float(np.min(np.linalg.norm(a @ x, axis=0))) >= \
            smallest_singular_value(a) - 1e-8


def test_rejects_nonfinite_entries():
    with pytest.raises(InputDomainError):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))


def rank_verdicts(doors: dict) -> dict:
    """Whether each door refuses its matrix; every rank refusal is a DegeneracyError."""
    verdicts = {}
    for name, door in doors.items():
        try:
            door()
            verdicts[name] = False
        except DegeneracyError:
            verdicts[name] = True
    return verdicts


def rank_doors(a: np.ndarray) -> dict:
    """The doors that decide the rank of a tall matrix by the rank rule."""
    return {"from_basis": lambda: from_basis(a),
            "good_submatrix": lambda: good_submatrix(a),
            "span_from_points": lambda: span_from_points([np.zeros(len(a)), *a.T])}


@pytest.mark.parametrize("small, refused", [(1e-9, False), (1e-11, True)])
def test_one_basis_gets_one_rank_verdict(small, refused):
    # from_basis once refused sigma_min <= 1e-8 of its scaled matrix: it and
    # span_from_points refused the 1e-9 basis that good_submatrix, chart_bases
    # and inverse (of its top 2 x 2 block) accepted.
    b = np.array([[1.0, 1.0], [0.0, small], [0.0, 0.0]])
    doors = rank_doors(b) | {"chart_bases": lambda: chart_bases(b[None]),
                             "inverse": lambda: inverse(b[:2])}
    assert rank_verdicts(doors) == dict.fromkeys(doors, refused)
    assert issubclass(SingularityError, DegeneracyError)


@st.composite
def conditioned_matrices(draw, square=False):
    """U diag(sigma) V^T, tall unless ``square``, with k >= 2 columns,
    sigma_max / sigma_min log-uniform in [1e8, 1e12] and sigma_max in
    [1e-200, 1e200]: about half are rank deficient by the rank rule."""
    k = draw(st.integers(2, 4))
    n = k if square else draw(st.integers(k + 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 10.0 ** draw(st.floats(-200.0, 200.0))
    cond = 10.0 ** draw(st.floats(8.0, 12.0))
    sigma = top * cond ** -np.sort(np.r_[0.0, 1.0, rng.uniform(size=k - 2)])
    u, v = (np.linalg.qr(rng.standard_normal((m, k)))[0] for m in (n, k))
    return (u * sigma) @ v.T


@settings(max_examples=200, deadline=None)
@given(a=conditioned_matrices())
def test_doors_refuse_by_one_rank_rule(a):
    # Each door refuses exactly when numpy's SVD gives sigma_min <= 1e-10 sigma_max.
    s = np.linalg.svd(a, compute_uv=False)
    doors = rank_doors(a)
    assert rank_verdicts(doors) == dict.fromkeys(doors, bool(s[-1] <= 1e-10 * s[0]))


@settings(max_examples=100, deadline=None)
@given(a=conditioned_matrices(square=True))
def test_inverse_refuses_by_the_rank_rule(a):
    s = np.linalg.svd(a, compute_uv=False)
    assert rank_verdicts({"inverse": lambda: inverse(a)}) == {
        "inverse": bool(s[-1] <= 1e-10 * s[0])}
