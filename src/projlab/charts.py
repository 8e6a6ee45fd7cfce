"""Stable k(n-k)-parameter coordinate charts on G(n, k).

A chart fixes a row index set I and normalizes a basis matrix A of the
plane to A' = A * A_I^{-1}, so the I-rows of A' form the identity and the
remaining (n-k) x k block carries all free parameters.  I is the row
block of largest |det| (:func:`_good_rows`), which makes the chart a
function of the plane alone: any other basis A M has |det (A M)_J| =
|det A_J| |det M| and (A M)(A M)_J^{-1} = A A_J^{-1}.  By Cramer's rule no
free entry exceeds 1 in absolute value, up to rounding.  :func:`chart_bases`
charts a stack of bases at once, and :func:`to_chart` one subspace from the
orthonormal basis Q that it carries; as det P[I, I] = det(Q_I)^2, its I is
also the max-det principal block of P.  :func:`good_basis` and
:func:`chart_stability` take instead the columns of P whose principal block
has the largest least eigenvalue, sigma(P[:, I])^2 (:func:`_good_columns`).
Both selections score only the index sets that a bound lets win.  A
:class:`Chart` of outside values is checked when it is made; the charts of
checked bases (:func:`charts_of`) are not.  A chart basis has full rank by its
identity block, so :func:`from_chart`, :func:`embed_relative` and
:func:`perturb_within` take the plane of its QR factor unchecked.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .errors import (DegeneracyError, InputDomainError, PremiseViolationError,
                     integer, integer_argument, parse_json, read_fields)
from .grassmann import Subspace, _dimensions, _from_orthonormal, contains, haar_bases, metric_rho

# A matrix whose smallest singular value relative to its largest (at most 1 for
# a projection's columns), or whose largest row-block |det| relative to the
# product of its column norms, is at most this is rank deficient.
_RANK_TOL = 1e-10
# Submatrices per batched eigvalsh/det call: memory stays at 1024 x n x k
# floats whatever binom(n, k) and the number of projections are.
_SUBSET_BLOCK = 1024
# eigvalsh gives the eigenvalues of S[I, I] + E, ||E|| <= p(k) eps ||S[I, I]||,
# p(k) a modest multiple of k (LAPACK Users' Guide, sec. 4.7), ||S[I, I]|| <= 1 +
# 2e-10 for a checked projection, and the 2 x 2 bound's sums and hypot add a few
# eps: 1e-12 = 4500 eps covers p(k) < 4000 (at most 1 eps on Haar G(10, 5)).
_EIG_SLACK = 1e-12
# Hadamard: |det(A_J)| <= the product of A_J's row norms.  LU with partial
# pivoting gives det(A_J + E), |E| <= gamma_k |L||U|, |L| <= 1, |U| <= 2^(k-1)
# max|A_J| (Higham 2002, Thms 9.3, 9.7): _good_rows pads each row norm by
# k^2.5 2^k eps max|A_J| >= |row of E|.  numpy's exp(sum of log pivots) and
# the bound's rounding add a relative (710 k^2 + n + k) eps, < 1e-9 for k < 20.
_DET_SLACK = 1e-9


def _chart_basis(idx: tuple, free: np.ndarray) -> np.ndarray:
    """Identity rows at idx, rows of ``free`` elsewhere: row j goes before free row idx[j] - j."""
    return np.insert(free, np.subtract(idx, range(len(idx))), np.eye(len(idx)), axis=0)


@dataclass(frozen=True, eq=False)
class Chart:
    """Coordinate representation of a k-plane: index set plus free block."""

    n: int
    k: int
    I: tuple  # noqa: E741 - mirrors the standard index-set notation
    free: np.ndarray

    def __post_init__(self):
        n, k = _dimensions(self.n, self.k)
        idx = mk.validate_index_set(self.I, n)
        if len(idx) != k:
            raise InputDomainError(f"index set must have {k} entries, got {len(idx)}")
        f = np.asarray(self.free, dtype=float)
        if f.shape != (n - k, k):
            raise InputDomainError(f"free block shape {f.shape}, expected {(n - k, k)}")
        if not np.isfinite(f).all():
            raise InputDomainError("free block entries must be finite")
        self.__dict__.update(n=n, k=k, I=idx, free=f)

    def reconstruct(self) -> np.ndarray:
        """The n x k basis A' with identity rows at I (:func:`_chart_basis`)."""
        return _chart_basis(self.I, self.free)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "I": list(self.I),
                           "free": self.free.ravel().tolist()})

    @classmethod
    def from_json(cls, text) -> "Chart":
        casts = {"n": integer, "k": integer, "I": lambda i: tuple(map(integer, i)),
                 "free": lambda f: np.asarray(f, dtype=float)}
        n, k, idx, free = read_fields(parse_json(text, InputDomainError, "chart JSON"),
                                      casts, InputDomainError, "chart JSON")
        # A free list of the wrong length is left to the shape check.
        free = free.reshape(n - k, k) if free.size == (n - k) * k else free
        return cls(n=n, k=k, I=idx, free=free)


@dataclass(frozen=True)
class ConditionReport:
    """Conditioning of a basis/submatrix selection."""

    sigma_min: float
    sigma_max: float
    det_AI: float
    inv_norm_bound: float


def _index_subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in lexicographic order, as a
    (binom(n, k), k) index array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(n, k) * k).reshape(-1, k)


def _fill(table: np.ndarray, items: np.ndarray, kept: np.ndarray, subsets, score) -> np.ndarray:
    """Put score(items, subsets[kept]) at table[items, kept], _SUBSET_BLOCK at a time."""
    table[items, kept] = np.concatenate([
        score(items[i:i + _SUBSET_BLOCK], subsets[kept[i:i + _SUBSET_BLOCK]])
        for i in range(0, len(items), _SUBSET_BLOCK)])
    return table


def _pruned_scores(subsets: np.ndarray, bound: np.ndarray, floor, score) -> np.ndarray:
    """The (D, binom(n, k)) scores at the sets whose ``bound`` reaches ``floor`` of
    the score of the item's best-bounded set, else -inf; ties keep subset order."""
    rows, first = np.arange(len(bound)), np.argmax(bound, axis=1)
    table = _fill(np.full(bound.shape, -math.inf), rows, first, subsets, score)
    keep = bound >= floor(table[rows, first])[:, None]
    keep[rows, first] = False
    if keep.any():
        _fill(table, *np.nonzero(keep), subsets, score)
    return table


def _good_columns(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column selection of each projection of a (D, n, n) stack: the (D, k)
    index sets I maximizing the smallest singular value of P[:, I], those
    (D,) singular values, and the (D, n, k) bases P[:, I].

    For a projection sigma(P[:, I])^2 = lambda_min(P[I, I]): eigvalsh of S[I, I],
    S = (P + P^T) / 2, scores each I, and sigma = sqrt(max(lambda, 0)).  By Cauchy
    interlacing lambda is at most the bound (a + c)/2 - hypot((a - c)/2, b) of
    each 2 x 2 block of I, so a block bounded over ``_EIG_SLACK`` below a scored
    lambda is skipped.  A rank-k P has a best sigma >= binom(n, k)^(-1/2); one at
    the rank tolerance raises DegeneracyError.
    """
    d, n, _ = p.shape
    subsets = _index_subsets(n, k)
    sym = (p + p.swapaxes(-1, -2)) / 2.0
    t = np.diagonal(sym, axis1=1, axis2=2)[:, :, None]
    pair = (t + t.swapaxes(1, 2) - np.hypot(t - t.swapaxes(1, 2), 2.0 * sym)) / 2.0
    # A running minimum over the pairs of each I, from S[i, i] of I's first i.
    bound = functools.reduce(np.minimum, (pair[:, subsets[:, i], subsets[:, j]] for i, j
                                          in itertools.combinations(range(k), 2)),
                             t[:, subsets[:, 0], 0])
    lam = _pruned_scores(subsets, bound, lambda top: top - _EIG_SLACK, lambda i, s: (
        np.linalg.eigvalsh(sym[i[:, None, None], s[:, :, None], s[:, None]])[..., 0]))
    best = np.argmax(lam, axis=1)
    cols, sigma = subsets[best], np.sqrt(np.maximum(lam[np.arange(d), best], 0.0))
    if sigma.min() <= _RANK_TOL:
        raise DegeneracyError("matrix is rank deficient", sigma=float(sigma.min()))
    return cols, sigma, p[np.arange(d)[:, None, None], np.arange(n)[:, None], cols[:, None]]


def _good_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row selection of each basis of a (D, n, k) stack: the (D, k) index
    sets I maximizing |det(A_I)| and those (D,) |det|, scoring the blocks
    whose padded Hadamard bound reaches (1 - ``_DET_SLACK``) |det| of the
    best-bounded block."""
    _, n, k = a.shape
    subsets = _index_subsets(n, k)
    norms = np.sqrt(np.einsum("dij,dij->di", a, a))
    norms += k**2.5 * 2.0 ** (k - 52) * norms.max(axis=1, keepdims=True)
    bound = functools.reduce(np.multiply, (norms[:, s] for s in subsets.T))
    # A subnormal entry can make LU divide by zero yet give a finite det.
    with np.errstate(divide="ignore"):
        dets = _pruned_scores(subsets, bound, lambda top: top * (1.0 - _DET_SLACK),
                              lambda i, s: np.abs(np.linalg.det(a[i[:, None], s])))
    best = np.argmax(dets, axis=1)
    return subsets[best], dets[np.arange(len(a)), best]


def good_basis(v: Subspace) -> tuple[np.ndarray, tuple, ConditionReport]:
    """Well-conditioned basis of projected standard vectors.

    Returns (A, I, report) where the columns of A are P_V e_i for i in I and
    I maximizes their smallest singular value sigma = lambda_min(P[I, I])^(1/2)
    (:func:`_good_columns`, lexicographically first on ties).  A_I = P[I, I] is
    symmetric positive definite, so ||A_I^{-1}|| = 1 / sigma^2; ||A|| <= 1.
    """
    cols, sigma, a = _good_columns(v.proj[None], v.k)
    a, best_idx, sigma = a[0], tuple(cols[0].tolist()), float(sigma[0])
    return a, best_idx, ConditionReport(
        sigma_min=sigma, sigma_max=mk.spectral_norm(a),
        det_AI=float(np.linalg.det(a[list(best_idx), :])), inv_norm_bound=1.0 / sigma**2)


def good_submatrix(a) -> tuple[tuple, ConditionReport]:
    """Row index set maximizing |det(A_I)|, with the conditioning guarantee
    ||A_I^{-1}|| <= sqrt(binom(n, m)) * ||A||^{m-1} / sigma(A)^m.

    The maximum is over all binom(n, m) row blocks (the lexicographically
    first on ties); :func:`_good_rows` scores, at most 1024 per batched det,
    only the blocks that Hadamard's inequality lets win.
    """
    a = mk.as_matrix(a)
    n, m = a.shape
    if n < m:
        raise InputDomainError(f"need rows >= cols, got {n}x{m}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= _RANK_TOL * s[0]:
        raise DegeneracyError("matrix is rank deficient", sigma=float(s[-1]))
    # Where the best |det| leaves the normal range, I is that of A scaled exactly by 2^-e,
    # max |A| in [1/2, 1).  Values past the range read inf; no s1^m is formed to underflow.
    with np.errstate(over="ignore"):
        rows, dets = _good_rows(a[None])
        if not np.finfo(float).tiny <= dets[0] < np.inf:
            rows = _good_rows(np.ldexp(a, -np.frexp(np.abs(a).max())[1])[None])[0]
        return tuple(rows[0].tolist()), ConditionReport(
            sigma_min=float(s[-1]), sigma_max=float(s[0]), det_AI=float(np.linalg.det(a[rows[0]])),
            inv_norm_bound=float(math.sqrt(math.comb(n, m)) * math.prod([s[0] / s[-1]] * (m - 1))
                                 / s[-1]))


def chart_bases(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charts of the planes spanned by a (D, n, k) stack of bases.

    Returns the (D, k) row index sets I maximizing |det(A_I)|
    (:func:`_good_rows`) and the (D, n, k) chart bases A' = A A_I^{-1}, with
    the identity at the I-rows and the free block elsewhere; one batched
    inverse normalizes the row blocks.  By Hadamard's inequality every
    |det(A_I)| is at most the product of A's column norms, so a basis whose
    best |det| is at most ``_RANK_TOL`` times that product has dependent
    columns and raises :class:`DegeneracyError`.
    """
    k = a.shape[2]
    rows, dets = _good_rows(a)
    low = dets <= _RANK_TOL * np.prod(np.linalg.norm(a, axis=1), axis=1)
    if low.any():
        raise DegeneracyError("basis is rank deficient", sigma=float(dets[low].min()))
    a_prime = a @ np.linalg.inv(a[np.arange(len(a))[:, None], rows])
    a_prime[np.arange(len(a))[:, None], rows] = np.eye(k)
    return rows, a_prime


def charts_of(rows: np.ndarray, bases: np.ndarray) -> list[Chart]:
    """The :class:`Chart` of each row index set and chart basis of
    :func:`chart_bases`, valid by construction: made without checks."""
    d, n, k = bases.shape
    free_rows = np.ones((d, n), dtype=bool)
    free_rows[np.arange(d)[:, None], rows] = False
    free = bases[free_rows].reshape(d, n - k, k)
    charts = [object.__new__(Chart) for _ in range(d)]
    for chart, i, f in zip(charts, rows.tolist(), free):
        # A frozen dataclass's fields live in its __dict__.
        chart.__dict__.update(n=n, k=k, I=tuple(i), free=f)
    return charts


def to_chart(v: Subspace) -> Chart:
    """Chart of a subspace: :func:`chart_bases` of its orthonormal basis."""
    return charts_of(*chart_bases(v.basis[None]))[0]


def from_chart(c: Chart) -> Subspace:
    """Subspace spanned by the chart's basis, of full rank by its identity block:
    its QR factor is the plane's basis, with no rank test and no projection check."""
    return _from_orthonormal(haar_bases(c.reconstruct()))


def perturb_within(v: Subspace, eps: float, rng: np.random.Generator) -> Subspace:
    """A genuine rank-k projection at metric distance in (0, eps] from ``v``.

    Moves in chart coordinates by a random free-block offset, shrinking the
    step until the metric target is met; this keeps the result exactly on
    the Grassmannian, unlike naive perturbation of the projection matrix.
    """
    return _perturb(to_chart(v), v, eps, rng)


def _perturb(c: Chart, v: Subspace, eps, rng: np.random.Generator) -> Subspace:
    """:func:`perturb_within` of ``v`` from its chart ``c``; eps is checked first."""
    if not isinstance(eps, numbers.Real) or not 0.0 < eps < 1.0:
        raise InputDomainError(f"eps must lie in (0, 1), got {eps!r}")
    g = rng.standard_normal(c.free.shape)
    g /= mk.spectral_norm(g)
    t = eps
    for _ in range(200):
        w = _from_orthonormal(haar_bases(_chart_basis(c.I, c.free + t * g)))
        if 0.0 < metric_rho(w, v) <= eps:
            return w
        t /= 2.0
    raise DegeneracyError("could not realize a perturbation below eps", sigma=eps)


def stability_constant(n: int, k: int, c_hat: float) -> float:
    """Per-instance Lipschitz constant for chart coordinates under metric
    perturbations, with c_hat > 0 the smallest singular value of the good basis."""
    n, k = _dimensions(n, k)
    if not isinstance(c_hat, numbers.Real) or not c_hat > 0.0:
        raise InputDomainError(f"c_hat must be positive, got {c_hat!r}")
    binom = math.comb(n, k)
    return (math.sqrt(k * binom) / c_hat**k
            + (1.0 + math.sqrt(k)) * 2.0 * math.sqrt(k) * binom / c_hat ** (2 * k))


def chart_stability(v: Subspace, eps: float, trials: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Measure chart-coordinate deviation under metric-eps perturbations.

    Every trial perturbs ``v`` from its one :func:`to_chart`.  With P = Q Q^T,
    the good basis a = P[:, J] has |det a_I| = |det Q_I| |det Q_J|, so its
    max-det row block is the chart's I.  Both index sets are held fixed
    (re-selection could jump charts at decision boundaries).  Returns (max_observed, constant); the contract is
    max_observed <= constant * eps, provided the premise ||A_I^{-1}|| *
    ||A_I - A~_I|| < 1/2 holds in every trial, of which there must be one.
    """
    if integer_argument("trials", trials) < 1:
        raise InputDomainError(f"trials must be at least 1, got {trials}")
    chart = to_chart(v)
    cols, sigma, a = _good_columns(v.proj[None], v.k)
    a, basis_idx, rows = a[0], cols[0].tolist(), list(chart.I)
    a_i_inv = np.linalg.inv(a[rows, :])
    a_prime, inv_norm = a @ a_i_inv, mk.spectral_norm(a_i_inv)
    constant = stability_constant(v.n, v.k, float(sigma[0]))
    max_observed = 0.0
    for trial in range(trials):
        a_t = _perturb(chart, v, eps, rng).proj[:, basis_idx]
        if inv_norm * mk.spectral_norm(a[rows, :] - a_t[rows, :]) >= 0.5:
            raise PremiseViolationError(
                "perturbed row block left the Neumann-premise region", trial=trial)
        a_t_prime = a_t @ np.linalg.inv(a_t[rows, :])
        deviation = float(np.max(np.linalg.norm(a_prime - a_t_prime, axis=0)))
        max_observed = max(max_observed, deviation)
    return max_observed, constant


def orthonormal_frame(v: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis of a subspace: the frame of the chart
    basis of :func:`to_chart`, see :func:`orthonormal_frames`."""
    return orthonormal_frames(chart_bases(v.basis[None])[1])[0]


def orthonormal_frames(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spans of a (D, n, k) stack.

    Modified Gram-Schmidt over the columns in fixed order, so each frame
    depends only on its basis.  The dot products and norms are per-frame
    matrix products, the same BLAS dot a single frame would use.
    """
    q = np.array(bases, dtype=float)
    for j in range(q.shape[2]):
        for i in range(j):
            q[:, :, j] -= _dots(q[:, :, i], q[:, :, j])[:, None] * q[:, :, i]
        col = np.ascontiguousarray(q[:, :, j])
        q[:, :, j] /= np.sqrt(_dots(col, col))[:, None]
    return q


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (D, n) arrays."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def relative_chart(v: Subspace, w: Subspace) -> Chart:
    """Chart of a k1-plane inside a containing k2-plane, taken in G(k2, k1)."""
    if not (v.k < w.k):
        raise InputDomainError(f"need k1 < k2, got k1={v.k}, k2={w.k}")
    if not contains(w, v):
        raise InputDomainError("the first subspace is not contained in the second")
    return charts_of(*chart_bases((orthonormal_frame(w).T @ v.basis)[None]))[0]


def embed_relative(c: Chart, w: Subspace) -> Subspace:
    """Inverse of :func:`relative_chart` for the same containing plane: the QR
    factor of W's frame times the chart's full-rank basis, unchecked."""
    if c.n != w.k:
        raise InputDomainError(f"a chart in G({c.n}, {c.k}) does not fit a "
                               f"containing plane of dimension {w.k}")
    return _from_orthonormal(haar_bases(orthonormal_frame(w) @ c.reconstruct()))

