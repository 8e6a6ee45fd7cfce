import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import charts
from projlab import (Chart, DegeneracyError, InputDomainError,
                     chart_stability, contains, embed_relative, from_basis,
                     from_chart, good_basis, good_submatrix, metric_rho,
                     relative_chart, sample_uniform, smallest_singular_value,
                     spectral_norm, to_chart)


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


def loop_good_submatrix_index(a):
    """Reference selector: one det per row subset, first strict maximum."""
    best_det, best_idx = -1.0, None
    for idx in itertools.combinations(range(a.shape[0]), a.shape[1]):
        d = abs(float(np.linalg.det(a[list(idx), :])))
        if d > best_det:
            best_det, best_idx = d, idx
    return best_idx


def assert_selection_matches_loop(v):
    a, idx, report = good_basis(v)
    assert (idx, report.sigma_min) == loop_good_basis_index(v)
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


def tie_subspaces():
    perm = np.eye(5)[:, [3, 0, 4, 1, 2]]
    return [from_basis(np.eye(4)[:, [1, 3]]),   # coordinate planes
            from_basis(np.eye(5)[:, [0, 2, 4]]),
            from_basis(np.eye(3)[:, :2]),
            from_basis(perm[:, :3]),            # permutation-matrix basis
            diag_line_2d(),                     # every subset ties
            from_basis(np.ones((4, 1)) / 2.0)]


@pytest.mark.parametrize("v", tie_subspaces())
def test_batched_selection_ties_match_loop(v):
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


@pytest.mark.parametrize("call, message", [
    (lambda: good_submatrix(np.ones((1, 2))), "need rows >= cols"),
    (lambda: relative_chart(sample_uniform(4, 2, np.random.default_rng(0)),
                            sample_uniform(4, 2, np.random.default_rng(1))),
     "need k1 < k2"),
], ids=["good_submatrix-wide", "relative_chart-k1-not-below-k2"])
def test_chart_arguments_out_of_domain(call, message):
    with pytest.raises(InputDomainError, match=message):
        call()


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


def test_chart_round_trip_random():
    rng = np.random.default_rng(17)
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for _ in range(100):
            v = sample_uniform(n, k, rng)
            c = to_chart(v)
            assert metric_rho(from_chart(c), v) <= 1e-9
            a_prime = c.reconstruct()
            assert smallest_singular_value(a_prime) >= 1.0 - 1e-10


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
], ids=["n-string", "free-length", "I-string", "I-int"])
def test_chart_json_rejects_with_typed_error(document, message):
    with pytest.raises(InputDomainError, match=message):
        Chart.from_json(json.dumps(document))


def test_chart_rejects_bad_shapes():
    with pytest.raises(InputDomainError):
        Chart(n=4, k=2, I=(0,), free=np.zeros((2, 2)))
    with pytest.raises(InputDomainError):
        Chart(n=4, k=2, I=(0, 1), free=np.zeros((3, 2)))


def test_to_chart_makes_one_svd_call(monkeypatch):
    v = sample_uniform(8, 4, np.random.default_rng(53))
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: calls.append(np.shape(a[0])) or real(*a, **kw))
    c = to_chart(v)
    # One batched SVD scores all 70 column blocks; the rank check reuses it.
    assert calls == [(1, 70, 8, 4)]
    assert metric_rho(from_chart(c), v) <= 1e-9


def test_chart_bases_rejects_rank_deficient_basis():
    # No column block of the zero matrix has a positive singular value.
    with pytest.raises(DegeneracyError, match="rank deficient"):
        charts.chart_bases(np.zeros((2, 3, 3)), 1)
