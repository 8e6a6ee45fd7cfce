import itertools
import json
import math
import re
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projlab import charts, grassmann, lab, planegeo
from projlab import (Chart, DegeneracyError, IFSSpec, InputDomainError,
                     Subspace, chart_stability, contains, embed_relative, fiber_hyperplane,
                     from_basis, from_chart, good_basis, good_submatrix, metric_rho,
                     perturb_within, relative_chart, sample_uniform, smallest_singular_value,
                     spectral_norm, stability_constant, to_chart)


def diag_line_2d():
    return from_basis(np.array([[1.0], [1.0]]) / math.sqrt(2))


def loop_good_basis_index(v):
    """Reference selector: one SVD per column subset, first strict maximum."""
    best_sigma, best_idx = -1.0, None
    for idx in itertools.combinations(range(v.n), v.k):
        sigma = float(np.linalg.svd(v.proj[:, list(idx)], compute_uv=False)[-1])
        if sigma > best_sigma:
            best_sigma, best_idx = sigma, idx
    return best_idx, best_sigma


def loop_eigvalsh_good_basis_index(v):
    """The batched selector's loop: one eigvalsh per principal block of
    (P + P^T) / 2, first strict maximum of its least eigenvalue lambda, and
    sigma = sqrt(max(lambda, 0))."""
    sym = (v.proj + v.proj.T) / 2.0
    best_lam, best_idx = -math.inf, None
    for idx in itertools.combinations(range(v.n), v.k):
        lam = float(np.linalg.eigvalsh(sym[np.ix_(idx, idx)])[0])
        if lam > best_lam:
            best_lam, best_idx = lam, idx
    return best_idx, math.sqrt(max(best_lam, 0.0))


def loop_good_submatrix_index(a):
    """Reference selector: one det per row subset, first strict maximum."""
    best_det, best_idx = -1.0, None
    for idx in itertools.combinations(range(a.shape[0]), a.shape[1]):
        # A subnormal entry can make LAPACK divide by zero inside det.
        with np.errstate(divide="ignore"):
            d = abs(float(np.linalg.det(a[list(idx), :])))
        if d > best_det:
            best_det, best_idx = d, idx
    return best_idx


def assert_selection_matches_loop(v):
    a, idx, report = good_basis(v)
    assert (idx, report.sigma_min) == loop_eigvalsh_good_basis_index(v)
    assert good_submatrix(a)[0] == loop_good_submatrix_index(a)


@st.composite
def subspaces(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, min(n - 1, 4)))
    seed = draw(st.integers(0, 2**32 - 1))
    return sample_uniform(n, k, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(v=subspaces())
def test_batched_selection_matches_loop(v):
    assert_selection_matches_loop(v)


def tie_bases():
    perm = np.eye(5)[:, [3, 0, 4, 1, 2]]
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return [np.eye(4)[:, [1, 3]],               # coordinate planes
            np.eye(5)[:, [0, 2, 4]],
            np.eye(3)[:, :2],
            perm[:, :3],                        # permutation-matrix basis
            np.array([[1.0], [1.0]]) / math.sqrt(2),  # every subset ties
            np.ones((4, 1)) / 2.0,
            np.kron(np.eye(3), np.ones((2, 1))),     # 8 tied best subsets
            np.kron(np.kron(h2, h2), h2)[:, :4]]     # Hadamard columns


def tie_subspaces():
    return [from_basis(b) for b in tie_bases()]


@pytest.mark.parametrize("v", tie_subspaces())
def test_batched_selection_ties_match_loop(v):
    assert_selection_matches_loop(v)


@st.composite
def near_tie_bases(draw):
    """A tie basis turned by a Cayley rotation of angle at most 1e-15..1e-9:
    its tied subsets now differ at about the rounding level, where eigvalsh
    and the SVD may order them differently."""
    basis = draw(st.sampled_from(tie_bases()))
    n = basis.shape[0]
    angle = 10.0 ** draw(st.floats(-15.0, -9.0))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, n))
    skew = angle / 2.0 * (g - g.T) / spectral_norm(g - g.T)
    return np.linalg.solve(np.eye(n) - skew, np.eye(n) + skew) @ basis


def near_tie_subspaces():
    return near_tie_bases().map(from_basis)


@settings(max_examples=150, deadline=None)
@given(v=near_tie_subspaces())
def test_batched_selection_near_ties_match_loop(v):
    assert_selection_matches_loop(v)


@st.composite
def perturbed_subspaces(draw):
    """A Haar or tie plane plus a symmetric perturbation of spectral norm up
    to 5e-11, which Subspace still accepts: sigma(P[:, I])^2 and the
    eigenvalue of P[I, I] then differ by up to about that much, so the tie
    planes separate the two scores well above the rounding level."""
    v = draw(st.one_of(subspaces(), st.sampled_from(tie_subspaces())))
    size = draw(st.floats(0.0, 5e-11))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((v.n, v.n))
    e = g + g.T
    return Subspace(n=v.n, k=v.k, proj=v.proj + size * e / spectral_norm(e))


def subnormal_subspace():
    """The coordinate plane of rows 0 and 1, with subnormal entries that
    make LAPACK's LU divide by zero inside det of the row block (1, 2)."""
    return Subspace(n=3, k=2, proj=np.array([[1.0, 0.0, 5e-324],
                                             [0.0, 1.0, 0.0],
                                             [5e-324, 0.0, 0.0]]))


@settings(max_examples=150, deadline=None)
@given(v=perturbed_subspaces())
@example(v=subnormal_subspace())
def test_batched_selection_within_tolerance_matches_loop(v):
    assert_selection_matches_loop(v)


def test_batched_selection_tie_examples():
    assert good_basis(from_basis(np.eye(4)[:, [1, 3]]))[1] == (1, 3)
    assert good_basis(from_basis(np.eye(5)[:, [3, 0, 4]]))[1] == (0, 3, 4)
    assert good_basis(from_basis(np.ones((4, 1)) / 2.0))[1] == (0,)
    assert good_submatrix(np.eye(5)[:, [4, 2]])[0] == (2, 4)


def test_batched_selection_across_blocks(monkeypatch):
    monkeypatch.setattr(charts, "_SUBSET_BLOCK", 3)
    # The maximum sits in the second block of three.
    assert good_submatrix(np.array([[1.0], [2.0], [1.0], [3.0], [0.0]]))[0] == (3,)
    # Equal maxima in the first and second block: the first one wins.
    assert good_submatrix(np.array([[1.0], [2.0], [3.0], [3.0], [2.0]]))[0] == (2,)
    # All four singletons of the diagonal line tie across the boundary.
    assert good_basis(from_basis(np.ones((4, 1)) / 2.0))[1] == (0,)
    # (1, 3) is the fifth of the six 2-subsets of range(4).
    assert good_basis(from_basis(np.eye(4)[:, [1, 3]]))[1] == (1, 3)
    rng = np.random.default_rng(47)
    for n, k in [(5, 2), (6, 3), (7, 2)]:
        for _ in range(10):
            assert_selection_matches_loop(sample_uniform(n, k, rng))


def test_good_basis_coordinate_plane():
    xy_plane = from_basis(np.eye(3)[:, :2])
    a, idx, report = good_basis(xy_plane)
    assert idx == (0, 1)
    assert np.allclose(a, np.eye(3)[:, :2])
    assert report.sigma_min == pytest.approx(1.0)


def test_good_basis_diagonal_line():
    a, idx, report = good_basis(diag_line_2d())
    assert idx == (0,)  # tie broken lexicographically
    assert np.allclose(a, [[0.5], [0.5]])
    assert report.sigma_min == pytest.approx(1.0 / math.sqrt(2))


def test_good_basis_norm_at_most_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = sample_uniform(5, 2, rng)
        a, _, report = good_basis(v)
        assert spectral_norm(a) <= 1.0 + 1e-10
        assert report.sigma_min > 0.0


def test_good_basis_maximizes_sigma_exhaustively():
    rng = np.random.default_rng(3)
    v = sample_uniform(5, 2, rng)
    _, idx, report = good_basis(v)
    best = max(smallest_singular_value(v.proj[:, list(s)])
               for s in itertools.combinations(range(5), 2))
    assert report.sigma_min == pytest.approx(best, abs=1e-12)


def test_good_submatrix_examples():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    idx, report = good_submatrix(a)
    assert idx == (0, 1)
    assert abs(report.det_AI) == pytest.approx(1.0)
    assert report.inv_norm_bound == pytest.approx(math.sqrt(3.0))
    assert spectral_norm(np.linalg.inv(a[list(idx), :])) <= report.inv_norm_bound

    ident = np.eye(5)[:, :3]
    idx, _ = good_submatrix(ident)
    assert idx == (0, 1, 2)


def test_good_submatrix_attains_max_det():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 3))
    idx, report = good_submatrix(a)
    # Brute-force oracle over all 20 subsets.
    best = max(abs(np.linalg.det(a[list(s), :]))
               for s in itertools.combinations(range(6), 3))
    assert abs(report.det_AI) == pytest.approx(best, rel=1e-12)


def test_good_submatrix_bound_and_det_lower_bound():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        a = rng.standard_normal((n, m))
        idx, report = good_submatrix(a)
        inv_norm = spectral_norm(np.linalg.inv(a[list(idx), :]))
        assert inv_norm <= report.inv_norm_bound + 1e-8
        gram_det = float(np.linalg.det(a.T @ a))
        assert report.det_AI**2 >= gram_det / math.comb(n, m) - 1e-10


def test_good_submatrix_rejects_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(Exception, match="rank deficient"):
        good_submatrix(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-11, 1.0, 1e11, 1e160, 1e300])
def test_good_submatrix_rank_rule_is_scale_free(scale):
    # The rank test was absolute, sigma_min <= 1e-10: a perfectly conditioned
    # matrix at scale 1e-11 was refused, though chart_bases charted it.
    a = scale * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    idx, report = good_submatrix(a)
    assert idx == (0, 1) and report.sigma_min == report.sigma_max == pytest.approx(scale)
    # sqrt(binom(3, 2)) ||A|| / sigma^2 = sqrt(3) / scale, with no sigma^2 to
    # underflow to 0 or overflow.
    assert report.inv_norm_bound == pytest.approx(math.sqrt(3.0) / scale)
    # With m = 10 columns, sigma^m underflows to 0 from sigma < 1e-33.
    idx, report = good_submatrix(scale * np.eye(11, 10))
    assert idx == tuple(range(10))
    assert report.inv_norm_bound == pytest.approx(math.sqrt(11.0) / scale)
    # |det| 6 scale^2 of rows (0, 2) beats 3 scale^2 and 2 scale^2, also where
    # scale^2 leaves the float range.
    b = scale * np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    assert good_submatrix(b)[0] == (0, 2)
    # sigma_min / sigma_max just above and at the tolerance 1e-10.
    good_submatrix(a @ np.diag([1.0, 2e-10]))
    with pytest.raises(DegeneracyError, match="rank deficient"):
        good_submatrix(a @ np.diag([1.0, 1e-10]))
    with pytest.raises(DegeneracyError, match="rank deficient"):
        good_submatrix(a @ np.diag([1.0, 0.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: good_submatrix(np.ones((1, 2))), "need rows >= cols"),
    (lambda: relative_chart(sample_uniform(4, 2, np.random.default_rng(0)),
                            sample_uniform(4, 2, np.random.default_rng(1))),
     "need k1 < k2"),
    (lambda: chart_stability(diag_line_2d(), 1e-6, 2.5, np.random.default_rng(0)),
     r"^trials must be an integer, got 2.5$"),
    (lambda: chart_stability(diag_line_2d(), 1e-6, 0, np.random.default_rng(0)),
     r"^trials must be at least 1, got 0$"),
    (lambda: chart_stability(diag_line_2d(), 1e-6, -1, np.random.default_rng(0)),
     r"^trials must be at least 1, got -1$"),
    (lambda: stability_constant(2, 1, 0.0), r"^c_hat must be positive, got 0.0$"),
    (lambda: stability_constant(3, 5, 0.5), r"^need 0 < k < n, got k=5, n=3$"),
    (lambda: stability_constant(2, 2, 0.5), r"^need 0 < k < n, got k=2, n=2$"),
    (lambda: stability_constant(2.5, 1, 0.5), r"^n must be an integer, got 2.5$"),
    (lambda: stability_constant(3, None, 0.5), r"^k must be an integer, got None$"),
    (lambda: stability_constant(2, 1, "0.5"), r"^c_hat must be positive, got '0.5'$"),
    (lambda: stability_constant(2, 1, 0.5j), r"^c_hat must be positive, got 0.5j$"),
    (lambda: embed_relative(to_chart(sample_uniform(4, 2, np.random.default_rng(0))),
                            sample_uniform(5, 3, np.random.default_rng(1))),
     r"^a chart in G\(4, 2\) does not fit a containing plane of dimension 3$"),
    # A numpy complex array once lost its imaginary part: good_submatrix
    # returned (0,) here though |2j| > |1 + 1j|, and the chart kept [[1.0]].
    (lambda: good_submatrix(np.array([[1 + 1j], [2j]])), "matrix entries must be real"),
    (lambda: Chart(n=2, k=1, I=(0,), free=np.array([[1 + 2j]])),
     "free block entries must be real"),
    (lambda: Chart(n=2, k=1, I=(0,), free=[[1 + 2j]]), "free block entries must be real"),
    # A string entry once ended in numpy's raw ValueError.
    (lambda: Chart(n=2, k=1, I=(0,), free=[["x"]]),
     "^free block must be a 2-d array of real numbers: "),
], ids=["good_submatrix-wide", "relative_chart-k1-not-below-k2",
        "chart_stability-fractional-trials", "chart_stability-zero-trials",
        "chart_stability-negative-trials", "stability_constant-zero-sigma",
        "stability_constant-k-above-n", "stability_constant-k-equals-n",
        "stability_constant-fractional-n", "stability_constant-none-k",
        "stability_constant-string-sigma", "stability_constant-complex-sigma",
        "embed_relative-size-mismatch", "good_submatrix-complex", "chart-complex-array",
        "chart-complex-list", "chart-string-entry"])
def test_chart_arguments_out_of_domain(call, message):
    # Fractional trials once raised a raw TypeError, trials <= 0 returned a
    # vacuous (0.0, constant), c_hat = 0 divided by zero, and a chart of the
    # wrong size died in a raw ValueError from matmul.  stability_constant
    # returned 0.0 for k > n (binom(3, 5) = 0) and raised a raw TypeError for
    # a fractional n or a string c_hat.
    with pytest.raises(InputDomainError, match=message):
        call()


@st.composite
def haar_qr_bases(draw):
    """The QR factor of a Gaussian (n, k) draw, n <= 8."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grassmann.haar_bases(rng.standard_normal((n, k)))


# Measured on 20000 planes of each kind: no free entry above 1 for the Haar
# and tie bases, and at most 1 + 4 eps for the near-tie bases, whose best row
# blocks differ by rounding.
_CERTIFICATE_EPS = 8


@settings(max_examples=200, deadline=None)
@given(basis=st.one_of(haar_qr_bases(), st.sampled_from(tie_bases()), near_tie_bases()))
def test_max_det_chart_free_entries_at_most_one(basis):
    # Cramer's rule: free entry (r, c) of A A_I^-1 is det(A_I with its row c
    # replaced by row r of A) / det A_I.  No single row swap raises a maximal
    # |det A_I|, so no free entry of a max-|det| chart exceeds 1.
    bound = 1.0 + _CERTIFICATE_EPS * np.finfo(float).eps
    (chart,) = charts.charts_of(*charts.chart_bases(basis[None]))
    assert np.abs(chart.free).max() <= bound
    assert np.abs(to_chart(from_basis(basis)).free).max() <= bound


def test_to_chart_examples():
    x_axis = from_basis(np.array([[1.0], [0.0]]))
    c = to_chart(x_axis)
    assert c.I == (0,)
    assert np.allclose(c.free, [[0.0]])

    c = to_chart(diag_line_2d())
    assert c.I == (0,)
    assert np.allclose(c.free, [[1.0]])

    xy_plane = from_basis(np.eye(3)[:, :2])
    c = to_chart(xy_plane)
    assert c.I == (0, 1)
    assert np.allclose(c.free, np.zeros((1, 2)))


def test_from_chart_examples():
    v = from_chart(Chart(n=2, k=1, I=(0,), free=np.array([[0.0]])))
    assert np.allclose(v.proj, [[1.0, 0.0], [0.0, 0.0]])
    v = from_chart(Chart(n=2, k=1, I=(0,), free=np.array([[1.0]])))
    assert metric_rho(v, diag_line_2d()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("entry", [1e9, 1e150])
def test_from_chart_of_a_wide_free_block(entry):
    # from_chart went through from_basis's rank test, which scaled the chart
    # basis to max 1 and then read its identity block as sigma 9.3e-10.
    c = Chart(n=3, k=2, I=(0, 1), free=[[entry, 0.0]])
    v = from_chart(c)
    d = np.array([1.0, 0.0, entry]) / math.hypot(1.0, entry)
    exact = Subspace(n=3, k=2, proj=np.outer(d, d) + np.diag([0.0, 1.0, 0.0]))
    assert metric_rho(v, exact) <= 1e-15
    assert to_chart(v).I == (1, 2)


def test_chart_round_trip_random():
    rng = np.random.default_rng(17)
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for _ in range(100):
            v = sample_uniform(n, k, rng)
            c = to_chart(v)
            assert metric_rho(from_chart(c), v) <= 1e-9
            a_prime = c.reconstruct()
            assert smallest_singular_value(a_prime) >= 1.0 - 1e-10


@st.composite
def scaled_bases(draw):
    """A Gaussian (n, k) basis, n <= 10, with each column scaled by
    10^[-7, 7] and the whole basis by 10^[-100, 100]."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n - 1))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, k))
    cols = draw(st.lists(st.floats(-7.0, 7.0), min_size=k, max_size=k))
    return g * 10.0 ** np.array(cols) * 10.0 ** draw(st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(a=scaled_bases(), seed=st.integers(0, 2**32 - 1))
def test_planes_built_from_a_basis_pass_the_check_they_skip(a, seed):
    # sample_uniform, from_basis, from_chart, embed_relative and
    # orthogonal_complement set P = sym(Q Q^T) from an orthonormal Q and run
    # no check_projections; AffinePlane.through does not check its offset.
    n, k = a.shape
    rng = np.random.default_rng(seed)
    built = [sample_uniform(n, k, rng)]
    try:
        built.append(from_basis(a))
    except DegeneracyError:
        pass
    built.append(from_chart(Chart(n=n, k=k, I=tuple(range(k)),
                                  free=a[k:] / np.abs(a).max())))
    # An unnormalized free block, entries up to 1e150: from_basis's rank test
    # once refused many of these, though a chart basis always has full rank.
    wide = a[k:] * 10.0 ** (150.0 - np.log10(np.abs(a).max()))
    built.append(from_chart(Chart(n=n, k=k, I=tuple(range(k)), free=wide)))
    if k > 1:
        inner = sample_uniform(k, int(rng.integers(1, k)), rng)
        built.append(embed_relative(to_chart(inner), built[-1]))
    built += [grassmann.orthogonal_complement(v) for v in built]
    for v in built:
        grassmann.check_projections(v.proj, v.k)
        assert v.basis.shape == (v.n, v.k)
        assert np.abs(v.basis.T @ v.basis - np.eye(v.k)).max() <= 1e-13
        assert np.abs(v.proj @ v.basis - v.basis).max() <= 1e-13
    for v in built:
        # Offsets of points 1e7 to 1e12 from the origin, some inside v's plane.
        p = a[:, 0] * 10.0 ** (7.0 + 5.0 * rng.random() - np.log10(np.abs(a[:, 0]).max()))
        plane = grassmann.AffinePlane.through(v, p)
        assert np.linalg.norm(v.proj @ plane.offset) <= 1e-13 * np.linalg.norm(p)
        assert plane.contains_point(p)


def test_chart_free_round_trip_same_index_set():
    rng = np.random.default_rng(19)
    v = sample_uniform(5, 2, rng)
    c = to_chart(v)
    c2 = to_chart(from_chart(c))
    if c2.I == c.I:
        assert np.allclose(c2.free, c.free, atol=1e-9)


def test_chart_injective_in_free_block():
    rng = np.random.default_rng(23)
    base = Chart(n=4, k=2, I=(0, 1), free=rng.standard_normal((2, 2)))
    other = Chart(n=4, k=2, I=(0, 1),
                  free=base.free + 0.1 * rng.standard_normal((2, 2)))
    assert metric_rho(from_chart(base), from_chart(other)) > 0.0


def test_chart_stability_contract():
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = sample_uniform(4, 2, rng)
        max_observed, constant = chart_stability(v, 2.0**-30, trials=20, rng=rng)
        assert max_observed <= constant * 2.0**-30


def test_chart_stability_coordinate_plane():
    xy_plane = from_basis(np.eye(3)[:, :2])
    rng = np.random.default_rng(31)
    max_observed, constant = chart_stability(xy_plane, 2.0**-20, trials=20, rng=rng)
    assert constant >= 1.0
    assert max_observed <= constant * 2.0**-20


def test_chart_stability_charts_once(monkeypatch):
    calls = []
    monkeypatch.setattr(charts, "to_chart", lambda v, _real=charts.to_chart:
                        calls.append(v) or _real(v))
    v = sample_uniform(4, 2, np.random.default_rng(41))
    max_observed, constant = chart_stability(v, 2.0**-30, 50, np.random.default_rng(5))
    assert calls == [v]
    assert max_observed <= constant * 2.0**-30


def test_chart_stability_takes_each_spectral_norm_once(monkeypatch):
    # ||A_I^-1|| of the fixed row block was once an SVD in every trial's
    # Neumann-premise check: 50 trials took it 50 times.
    seen = []
    monkeypatch.setattr(charts.mk, "spectral_norm", lambda m, _real=charts.mk.spectral_norm:
                        seen.append(np.asarray(m).tobytes()) or _real(m))
    v = sample_uniform(4, 2, np.random.default_rng(41))
    chart_stability(v, 2.0**-30, 50, np.random.default_rng(5))
    assert len(seen) >= 3 * 50
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("n, k, seed, eps, trials, expected", [
    (4, 2, 29, 2.0**-30, 20, 9.306724206584459e-10),
    (8, 4, 3, 2.0**-25, 10, 2.878849697512586e-08),
], ids=["4-2-29", "8-4-3"])
def test_chart_stability_deviation_bits(n, k, seed, eps, trials, expected):
    # Every trial perturbs from the same chart of v, whether v is charted
    # once per call or once per trial, so these bits stay.  They moved in
    # the 8th digit when from_basis, which builds each perturbed plane,
    # took its basis from QR instead of the normal equations.
    v = sample_uniform(n, k, np.random.default_rng(seed))
    assert chart_stability(v, eps, trials, np.random.default_rng(5))[0] == expected


@pytest.mark.parametrize("eps", ["0.1", "1e-6", None, 0.5j, 0.0, 1.0, math.nan])
def test_bad_eps_is_refused_before_any_draw(eps):
    # A string, None or complex eps once ended in a raw TypeError.
    v = sample_uniform(4, 2, np.random.default_rng(43))
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    message = rf"^eps must lie in \(0, 1\), got {re.escape(repr(eps))}$"
    with pytest.raises(InputDomainError, match=message):
        perturb_within(v, eps, rng)
    with pytest.raises(InputDomainError, match=message):
        chart_stability(v, eps, 3, rng)
    assert rng.bit_generator.state == state


def test_chart_stability_ratio_stable_across_eps():
    rng = np.random.default_rng(37)
    v = sample_uniform(4, 2, rng)
    ratios = []
    for eps in (2.0**-20, 2.0**-25, 2.0**-30):
        max_observed, _ = chart_stability(v, eps, trials=50,
                                          rng=np.random.default_rng(5))
        ratios.append(max_observed / eps)
    assert max(ratios) <= 4.0 * min(ratios)


def test_relative_chart_axis_in_plane():
    x_axis = from_basis(np.eye(3)[:, :1])
    xy_plane = from_basis(np.eye(3)[:, :2])
    c = relative_chart(x_axis, xy_plane)
    assert (c.n, c.k) == (2, 1)
    assert np.allclose(c.free, [[0.0]])


def test_relative_chart_diagonal_in_plane():
    diag = from_basis(np.array([[1.0], [1.0], [0.0]]) / math.sqrt(2))
    xy_plane = from_basis(np.eye(3)[:, :2])
    c = relative_chart(diag, xy_plane)
    assert np.allclose(c.free, [[1.0]])
    assert metric_rho(embed_relative(c, xy_plane), diag) <= 1e-8


def test_relative_chart_free_entry_count():
    rng = np.random.default_rng(41)
    for _ in range(20):
        w = sample_uniform(6, 4, rng)
        cols = (w.proj @ rng.standard_normal((6, 2)))
        v = from_basis(cols)
        c = relative_chart(v, w)
        assert c.free.size == 2 * (4 - 2)
        assert metric_rho(embed_relative(c, w), v) <= 1e-8


def test_relative_chart_requires_containment():
    rng = np.random.default_rng(43)
    v = sample_uniform(4, 1, rng)
    w = sample_uniform(4, 3, rng)
    if not contains(w, v):
        with pytest.raises(InputDomainError):
            relative_chart(v, w)


def test_chart_json_round_trip():
    c = Chart(n=4, k=2, I=(1, 3), free=np.array([[0.5, -1.0], [2.0, 0.25]]))
    c2 = Chart.from_json(c.to_json())
    assert c2.I == c.I
    assert np.array_equal(c2.free, c.free)


@pytest.mark.parametrize("document, message", [
    ({"n": "two", "k": 1, "I": [0], "free": [1.0]}, "chart JSON field n: invalid literal"),
    ({"n": 2, "k": 1, "I": [0], "free": [1.0, 2.0]}, r"free block shape \(2,\)"),
    ({"n": 2, "k": 1, "I": ["a"], "free": [1.0]}, "chart JSON field I: invalid literal"),
    ({"n": 2, "k": 1, "I": 5, "free": [1.0]}, "chart JSON field I: 'int' object"),
    ({"n": 2, "k": 1, "I": [0], "free": [math.nan]}, "free block entries must be finite"),
], ids=["n-string", "free-length", "I-string", "I-int", "free-nan"])
def test_chart_json_rejects_with_typed_error(document, message):
    with pytest.raises(InputDomainError, match=message):
        Chart.from_json(json.dumps(document))


def test_chart_json_rejects_fractional_index():
    # int() would read 0.9 as row 0.
    with pytest.raises(InputDomainError, match="chart JSON field I: not an integer: 0.9"):
        Chart.from_json(json.dumps({"n": 2, "k": 1, "I": [0.9], "free": [1.0]}))


def test_json_readers_reject_invalid_text_with_typed_error():
    with pytest.raises(InputDomainError, match="chart JSON is not valid JSON"):
        Chart.from_json('{"n": 2')
    with pytest.raises(InputDomainError, match="subspace JSON is not valid JSON"):
        Subspace.from_json('{"n": 2, "k": ')
    with pytest.raises(InputDomainError, match="IFS JSON is not valid JSON"):
        IFSSpec.from_json("[1, 2")


def test_chart_rejects_bad_shapes():
    with pytest.raises(InputDomainError):
        Chart(n=4, k=2, I=(0,), free=np.zeros((2, 2)))
    with pytest.raises(InputDomainError):
        Chart(n=4, k=2, I=(0, 1), free=np.zeros((3, 2)))


@pytest.mark.parametrize("n, k, index_set, free, message", [
    # A fractional entry was once truncated: I=(0.5,) became (0,).
    (2, 1, (0.5,), [[1.0]], "index set entry must be an integer, got 0.5"),
    (2, 1, ("0",), [[1.0]], "index set entry must be an integer, got '0'"),
    # A string n once ended in a raw TypeError, and k = n was accepted.
    ("2", 1, (0,), [[1.0]], "n must be an integer, got '2'"),
    (2, 1.0, (0,), [[1.0]], "k must be an integer, got 1.0"),
    (2, 2, (0, 1), np.zeros((0, 2)), "need 0 < k < n, got k=2, n=2"),
    (2, 0, (), np.zeros((2, 0)), "need 0 < k < n, got k=0, n=2"),
    # An index set that is not iterable once ended in a raw TypeError.
    (3, 1, 5, [[0], [0]], "index set must be iterable, got 5"),
], ids=["I-fractional", "I-string", "n-string", "k-float", "k-equals-n", "k-zero",
        "I-not-iterable"])
def test_chart_types_its_fields(n, k, index_set, free, message):
    with pytest.raises(InputDomainError, match=re.escape(message)):
        Chart(n=n, k=k, I=index_set, free=free)


def test_chart_stores_typed_fields():
    c = Chart(n=np.int64(3), k=np.int32(1), I=(np.int64(2),), free=[[0.5], [0.25]])
    assert (type(c.n), type(c.k), type(c.I[0])) == (int, int, int)
    assert c.I == (2,) and c.free.shape == (2, 1)


def test_to_chart_scores_blocks_once(monkeypatch):
    v = sample_uniform(8, 4, np.random.default_rng(53))
    calls = {"eigh": [], "eigvalsh": [], "svd": [], "det": [], "check_projections": []}
    for name in calls:
        module = grassmann if name == "check_projections" else np.linalg
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, _real=getattr(module, name), **kw:
                            calls[_name].append(np.shape(a[0])) or _real(*a, **kw))
    # A plane built from a basis is charted from that basis: of its 70 row
    # blocks Hadamard's inequality leaves only the best-bounded one for det.
    # No eigh, no check and no column selection runs.
    c = to_chart(v)
    assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "det": [(1, 4, 4)],
                     "check_projections": []}
    # A plane given by its projection is checked and takes its basis from one
    # eigh when it is constructed, and to_chart runs neither again.
    u = Subspace(n=8, k=4, proj=v.proj)
    assert calls["eigh"] == [(8, 8)] and calls["check_projections"] == [(8, 8)]
    assert to_chart(u).I == c.I
    assert calls["eigh"] == [(8, 8)] and calls["check_projections"] == [(8, 8)]
    assert calls["det"] == [(1, 4, 4)] * 2
    assert metric_rho(from_chart(c), v) <= 1e-9


def test_planes_from_checked_values_run_no_check(monkeypatch):
    # Each route builds its plane from an already-checked value through
    # grassmann._from_orthonormal: no projection check and no eigh, no
    # from_basis, Chart or AffinePlane check, and from_chart no rank SVD.
    # fiber_hyperplane spans its two points by from_basis's route, the door
    # for outside values, and builds the complement unchecked: one SVD for the
    # rank rule, whose sigma span_from_points reports (there were two).
    rng = np.random.default_rng(67)
    v, w = sample_uniform(6, 3, rng), sample_uniform(6, 4, rng)
    c, inner = to_chart(v), to_chart(sample_uniform(4, 2, rng))
    z, y = rng.standard_normal(6), rng.standard_normal(6)
    calls = []
    for owner, name, label in [(grassmann, "check_projections", "check_projections"),
                               (grassmann, "from_basis", "from_basis"),
                               (planegeo, "_basis_span", "_basis_span"),
                               (np.linalg, "eigh", "eigh"), (np.linalg, "svd", "svd"),
                               (Chart, "__post_init__", "Chart check"),
                               (grassmann.AffinePlane, "__post_init__", "AffinePlane check")]:
        monkeypatch.setattr(owner, name, lambda *a, _label=label, _real=getattr(owner, name),
                            **kw: calls.append(_label) or _real(*a, **kw))
    routes = {"from_chart": lambda: from_chart(c),
              "embed_relative": lambda: embed_relative(inner, w),
              "orthogonal_complement": lambda: grassmann.orthogonal_complement(v),
              "AffinePlane.through": lambda: grassmann.AffinePlane.through(v, z)}
    for name, route in routes.items():
        calls.clear()
        route()
        assert calls == [], name
    calls.clear()
    h = fiber_hyperplane(z, y)
    assert calls == ["_basis_span", "svd"]
    # perturb_within charts v from its basis (one det) and runs an SVD for
    # the step's norm and for each trial's metric, nothing else.
    trials = []
    monkeypatch.setattr(charts, "_from_orthonormal", lambda q, _real=charts._from_orthonormal:
                        trials.append(q) or _real(q))
    calls.clear()
    u = perturb_within(v, 1e-3, rng)
    assert trials and calls == ["svd"] * (1 + len(trials))
    assert 0.0 < metric_rho(u, v) <= 1e-3
    assert np.abs(h.proj @ (z - y)).max() <= 1e-12 * np.linalg.norm(z - y)


def test_chart_bases_subnormal_entries_do_not_warn():
    v = subnormal_subspace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, bases = charts.chart_bases(charts._good_columns(v.proj[None], 2)[2])
    assert rows.tolist() == [[0, 1]]
    assert bases[0, :2].tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_score_table_bounds_submatrices_per_call(monkeypatch):
    # 2000 projections of G(4, 2): more projections than one call may take.
    rng = np.random.default_rng(59)
    p = np.stack([sample_uniform(4, 2, rng).proj for _ in range(2000)])
    monkeypatch.setattr(charts, "_SUBSET_BLOCK", 10**9)
    whole_rows, whole_bases = charts.chart_bases(charts._good_columns(p, 2)[2])
    monkeypatch.setattr(charts, "_SUBSET_BLOCK", 1024)
    stacks = []
    for name in ("eigvalsh", "svd", "det"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _real=real, **kw:
                            stacks.append(math.prod(np.shape(a)[:-2])) or _real(a, *args, **kw))
    rows, bases = charts.chart_bases(charts._good_columns(p, 2)[2])
    assert stacks and max(stacks) <= 1024
    # Each projection's best-bounded principal block and row block, 2000 of
    # each: 2 eigvalsh and 2 det calls.  For k = 2 the interlacing bound is
    # the eigenvalue, so no other principal block is left for eigvalsh, and
    # no SVD runs; Hadamard's inequality leaves 378 more row blocks (1 det
    # call): 5 calls in all.
    assert stacks == [1024, 976, 1024, 976, 378]
    assert rows.tobytes() == whole_rows.tobytes()
    assert bases.tobytes() == whole_bases.tobytes()


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_pruned_selection_coordinate_planes_match_loop(n, k):
    # Every principal block is 0 or 1 on its diagonal, so bounds and scores
    # tie across many index sets.
    for idx in itertools.combinations(range(n), k):
        assert_selection_matches_loop(from_basis(np.eye(n)[:, list(idx)]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pruned_selection_half_diagonal_planes_match_loop(k):
    # span{(e_i + e_{i+k}) / sqrt(2)}: every diagonal entry of P is 1/2, so
    # every 1 x 1 bound ties, and the 2 x 2 bounds tie in two classes.  P is
    # given exactly, as a QR basis of that span does not give P's 1/2s.
    half = np.eye(k) / 2.0
    v = Subspace(n=2 * k, k=k, proj=np.block([[half, half], [half, half]]))
    assert np.all(np.diag(v.proj) == 0.5)
    assert_selection_matches_loop(v)


@st.composite
def tolerance_edge_subspaces(draw):
    """A Haar plane plus a perturbation E of spectral norm up to 3e-11, not
    symmetric: ||P - P^T|| <= 6e-11 and ||P^2 - P|| <= about 9e-11, both
    within the check_projections tolerances of 1e-10."""
    v = draw(subspaces())
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((v.n, v.n))
    e = draw(st.floats(0.0, 3e-11)) * g / spectral_norm(g)
    return Subspace(n=v.n, k=v.k, proj=v.proj + e)


@settings(max_examples=100, deadline=None)
@given(v=tolerance_edge_subspaces())
def test_pruned_selection_at_tolerance_edge_matches_loop(v):
    assert_selection_matches_loop(v)


# sigma(P[:, I])^2 and lambda_min(S[I, I]) differ by rounding on a projection
# and by up to a few times the perturbation on one that check_projections only
# accepts.  Measured on 12000 planes of each strategy below: |sigma - SVD
# sigma| at most 8.3e-15 on Haar, tie and near-tie planes and 3.7e-11 on the
# perturbed ones; the selected set's SVD sigma at most 2.9e-11 below the SVD
# best, and 0 on Haar and tie planes.  Near ties may select another set.
_SVD_SIGMA_TOL = 1e-10
_SVD_BEST_TOL = 2e-10


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(subspaces(), st.sampled_from(tie_subspaces()), near_tie_subspaces(),
                   perturbed_subspaces(), tolerance_edge_subspaces()))
@example(v=subnormal_subspace())
def test_eigvalsh_selection_against_svd_reference(v):
    _, idx, report = good_basis(v)
    svd_sigma = float(np.linalg.svd(v.proj[:, list(idx)], compute_uv=False)[-1])
    assert abs(report.sigma_min - svd_sigma) <= _SVD_SIGMA_TOL
    assert svd_sigma >= loop_good_basis_index(v)[1] - _SVD_BEST_TOL
    assert report.inv_norm_bound == 1.0 / report.sigma_min**2


@st.composite
def general_matrices(draw):
    """Full-rank matrices that are not orthonormal: rows scaled over twelve
    orders of magnitude, some rows zero, some entries small integers (ties)."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, min(n, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(-2, 3, size=(n, m)).astype(float)
    else:
        a = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 1))
    a[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    s = np.linalg.svd(a, compute_uv=False)
    # good_submatrix refuses sigma_min <= 1e-10 sigma_max, at any scale.
    assume(s[-1] > 1e-10 * s[0])
    return a


@settings(max_examples=200, deadline=None)
@given(a=general_matrices())
@example(a=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
@example(a=np.array([[1e-6, 0.0], [0.0, 1e6], [1.0, 1.0], [0.0, 0.0]]))
def test_pruned_row_selection_on_general_matrices_matches_loop(a):
    assert good_submatrix(a)[0] == loop_good_submatrix_index(a)


def test_pruned_selection_scores_few_blocks(monkeypatch):
    # 150 Haar planes of G(8, 4): 70 column and 70 row blocks per plane.
    # Charted from the column blocks that good_basis selects from their
    # projections, a run measured 4.43 principal blocks for eigvalsh and
    # 13.78 row blocks for det, counting each plane's best-bounded block, and
    # no SVD.  Charted from their QR factors, as a sweep-g84 call charts
    # them, there is no column selection.
    q = grassmann.haar_bases(np.random.default_rng(61).standard_normal((150, 8, 4)))
    p = q @ q.swapaxes(-1, -2)
    p = (p + p.swapaxes(-1, -2)) / 2.0
    scored = {"eigvalsh": 0, "det": 0, "svd": 0}
    for name in scored:
        def wrapped(a, *args, _name=name, _real=getattr(np.linalg, name), **kw):
            scored[_name] += math.prod(np.shape(a)[:-2])
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, wrapped)
    charts.chart_bases(charts._good_columns(p, 4)[2])
    assert scored["eigvalsh"] / 150 <= 6.0
    assert scored["det"] / 150 <= 18.0
    assert scored["svd"] == 0
    scored.update(eigvalsh=0, det=0, svd=0)
    charts.chart_bases(q)
    assert scored["eigvalsh"] == scored["svd"] == 0
    assert scored["det"] / 150 <= 18.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_batched_linalg_bits_do_not_depend_on_batch(k):
    # The pruned selection scores a block in a batch with other blocks than
    # an exhaustive search would (each projection's best-bounded block first,
    # then the blocks its bound lets through); it makes the same choice only
    # if each block's eigvalsh and det bits depend on that block alone.
    rng = np.random.default_rng(67 + k)
    p = np.stack([sample_uniform(2 * k + 1, k, rng).proj for _ in range(40)])
    sym = ((p + p.swapaxes(-1, -2)) / 2.0)[:, :k, :k]
    order = rng.permutation(len(p))
    for fn, stack in [(lambda b: np.linalg.eigvalsh(b)[..., 0], sym),
                      (lambda b: np.abs(np.linalg.det(b)), p[:, :k, :k])]:
        whole = fn(stack)
        alone = np.concatenate([fn(stack[i:i + 1]) for i in range(len(stack))])
        shuffled = np.empty_like(whole)
        shuffled[order] = fn(stack[order])
        halves = np.concatenate([fn(stack[:7]), fn(stack[7:])])
        assert whole.tobytes() == alone.tobytes() == shuffled.tobytes() == halves.tobytes()


def test_charts_of_equals_validated_construction():
    rng = np.random.default_rng(61)
    for n, k in [(2, 1), (4, 2), (6, 3)]:
        p = np.stack([sample_uniform(n, k, rng).proj for _ in range(7)])
        rows, bases = charts.chart_bases(charts._good_columns(p, k)[2])
        built = charts.charts_of(rows, bases)
        assert len(built) == len(p)
        for chart in built:
            checked = Chart(n=chart.n, k=chart.k, I=chart.I, free=chart.free)
            assert (type(chart.n), type(chart.k)) == (int, int)
            assert (chart.n, chart.k) == (checked.n, checked.k) == (n, k)
            assert chart.I == checked.I and all(type(i) is int for i in chart.I)
            assert chart.free.dtype == checked.free.dtype == np.float64
            assert chart.free.shape == (n - k, k)
            assert chart.free.tobytes() == checked.free.tobytes()
            assert chart.to_json() == checked.to_json()
    # A chart built by hand keeps every check.
    with pytest.raises(InputDomainError, match="not strictly increasing"):
        Chart(n=4, k=2, I=(1, 0), free=np.zeros((2, 2)))
    with pytest.raises(InputDomainError, match="out of range"):
        Chart(n=4, k=2, I=(0, 4), free=np.zeros((2, 2)))
    with pytest.raises(InputDomainError, match="free block shape"):
        Chart(n=4, k=2, I=(0, 1), free=np.zeros((2, 3)))
    # A NaN or infinite free entry was once accepted here and refused only
    # later, by from_basis.
    for bad in (np.nan, np.inf):
        with pytest.raises(InputDomainError, match="free block entries must be finite"):
            Chart(n=4, k=2, I=(0, 1), free=[[0.0, bad], [1.0, 0.0]])


@st.composite
def planes_with_bases(draw):
    """A Haar plane of G(n, k), n <= 8, as the QR factor of a Gaussian draw,
    and the same plane as the Subspace that sample_uniform draws."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    q = grassmann.haar_bases(np.random.default_rng(seed).standard_normal((1, n, k)))
    return q, sample_uniform(n, k, np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(plane=planes_with_bases())
def test_chart_does_not_depend_on_the_basis(plane):
    # |det (A M)_J| = |det A_J| |det M| and (A M)(A M)_J^-1 = A A_J^-1: the
    # QR factor and the projection's eigenbasis chart the same plane alike,
    # up to rounding, unless its two best row blocks nearly tie.
    q, v = plane
    _, n, k = q.shape
    dets = sorted(abs(np.linalg.det(q[0, list(s)]))
                  for s in itertools.combinations(range(n), k))
    assume(len(dets) == 1 or dets[-2] < dets[-1] * (1.0 - 1e-9))
    rows, bases = charts.chart_bases(q)
    (chart,) = charts.charts_of(rows, bases)
    expected = to_chart(v)
    assert chart.I == expected.I
    assert np.abs(chart.free - expected.free).max() <= 1e-12


def assert_chart_bases_precondition(a):
    """:func:`charts.chart_bases`' precondition on a (D, n, k) stack: every
    basis has a row block of |det| at least binom(n, k)^(-1/2), up to rounding."""
    _, n, k = a.shape
    assert charts._good_rows(a)[1].min() >= (1.0 - 1e-12) * math.comb(n, k) ** -0.5


@st.composite
def grassmannians(draw):
    """Dimensions 0 < k < n <= 10 and a random generator."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n - 1))
    return n, k, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(gr=grassmannians(), d=st.integers(1, 6))
def test_haar_bases_meet_the_chart_precondition(gr, d):
    n, k, rng = gr
    assert_chart_bases_precondition(grassmann.haar_bases(rng.standard_normal((d, n, k))))


@settings(max_examples=100, deadline=None)
@given(gr=grassmannians())
def test_subspace_bases_meet_the_chart_precondition(gr):
    # The bases that to_chart and orthonormal_frame hand chart_bases: of a
    # Haar plane, of a projection's eigenvectors and of a Gaussian basis's plane.
    n, k, rng = gr
    v = sample_uniform(n, k, rng)
    planes = [v, Subspace(n=n, k=k, proj=v.proj), from_basis(rng.standard_normal((n, k)))]
    assert_chart_bases_precondition(np.stack([w.basis for w in planes]))


@settings(max_examples=100, deadline=None)
@given(gr=grassmannians(), data=st.data())
def test_relative_chart_bases_meet_the_chart_precondition(gr, data):
    # The k2 x k1 basis Q_W^T Q_V that relative_chart hands chart_bases.
    n, k2, rng = gr
    assume(k2 >= 2)
    k1 = data.draw(st.integers(1, k2 - 1))
    w = sample_uniform(n, k2, rng)
    v = from_basis(w.basis @ rng.standard_normal((k2, k1)))
    with mock.patch.object(charts, "chart_bases", wraps=charts.chart_bases) as spy:
        relative_chart(v, w)
    assert_chart_bases_precondition(spy.call_args.args[0])


def feasible_scans():
    """Every (n, k) that a scan config accepts: at least 8 cells on each of
    the k(n - k) chart axes within num_directions <= 2^32, so k(n - k) <= 11."""
    return [(n, k) for n in range(2, 14) for k in range(1, n)
            if lab._scan_cells_per_axis(n, k, 2**32) >= 8]


@settings(max_examples=100, deadline=None)
@given(nk=st.sampled_from(feasible_scans()), data=st.data())
def test_scan_grid_bases_meet_the_chart_precondition(nk, data):
    # _grid_directions reads n, k and num_directions alone.  A grid of 8
    # cells per axis holds up to 8^11 bases, so the grids here have at most
    # 4096 bases, and fewer cells per axis past k(n - k) = 4; each of their
    # bases has the identity block of every scan grid basis.
    n, k = nk
    axes = k * (n - k)
    most = max(2, int(4096 ** (1.0 / axes)))
    cells = data.draw(st.integers(min(8, most), most))
    config = types.SimpleNamespace(n=n, k=k, num_directions=cells**axes)
    bases, params = lab._grid_directions(config)
    assert len(bases) == len(params) == cells**axes
    assert_chart_bases_precondition(bases)
