"""Stable k(n-k)-parameter coordinate charts on G(n, k).

A chart fixes a row index set I and normalizes a basis matrix A of the
plane to A' = A * A_I^{-1}, so the I-rows of A' form the identity and the
remaining (n-k) x k block carries all free parameters.  Index sets are
chosen exhaustively for conditioning: the basis columns maximize the
smallest singular value, the row block maximizes |det|.  Subsets are
scored by one batched SVD or determinant per block of at most 1024
submatrices, and a stack of projections is charted at once
(:func:`chart_bases`); :func:`to_chart` is its one-projection case.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .errors import (DegeneracyError, InputDomainError, PremiseViolationError,
                     read_fields)
from .grassmann import Subspace, contains, from_basis

# A basis whose smallest singular value is at most this is rank deficient.
_RANK_TOL = 1e-10
# Submatrices scored per batched svd/det call; bounds the stacked
# submatrices at 1024 x n x k floats whatever binom(n, k) and the number of
# projections are.
_SUBSET_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Chart:
    """Coordinate representation of a k-plane: index set plus free block."""

    n: int
    k: int
    I: tuple  # noqa: E741 - mirrors the standard index-set notation
    free: np.ndarray

    def __post_init__(self):
        idx = mk.validate_index_set(self.I, self.n)
        if len(idx) != self.k:
            raise InputDomainError(f"index set must have {self.k} entries, got {len(idx)}")
        object.__setattr__(self, "I", idx)
        f = np.asarray(self.free, dtype=float)
        if f.shape != (self.n - self.k, self.k):
            raise InputDomainError(
                f"free block shape {f.shape}, expected {(self.n - self.k, self.k)}")
        object.__setattr__(self, "free", f)

    def reconstruct(self) -> np.ndarray:
        """The n x k basis matrix A' with identity rows at I."""
        a = np.empty((self.n, self.k))
        others = [i for i in range(self.n) if i not in set(self.I)]
        a[list(self.I), :] = np.eye(self.k)
        a[others, :] = self.free
        return a

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "I": list(self.I),
                           "free": self.free.ravel().tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Chart":
        casts = {"n": int, "k": int, "I": lambda i: tuple(map(int, i)),
                 "free": lambda f: np.asarray(f, dtype=float)}
        n, k, idx, free = read_fields(json.loads(text), casts, InputDomainError,
                                      "chart JSON")
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


@functools.lru_cache(maxsize=16)
def _index_subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in lexicographic order, as a read-only
    (binom(n, k), k) index array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    subsets = np.fromiter(flat, dtype=np.intp, count=math.comb(n, k) * k)
    subsets = subsets.reshape(-1, k)
    subsets.flags.writeable = False
    return subsets


def _best_subsets(n: int, k: int, count: int, score) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``count`` items, the k-subset of range(n) with the
    largest score: a (count, k) index array and the (count,) scores.

    ``score`` maps a (B, k) block of subsets to the (count, B) scores of
    every item; a call scores at most ``_SUBSET_BLOCK`` submatrices in all
    (at least one subset per item).  Ties go to the lexicographically first
    subset: ``argmax`` keeps the first maximum within a block, and a later
    block wins only with a strictly larger score.
    """
    subsets = _index_subsets(n, k)
    step = max(1, _SUBSET_BLOCK // count)
    best_score = np.full(count, -math.inf)
    best_row = np.zeros(count, dtype=np.intp)
    for start in range(0, len(subsets), step):
        scores = score(subsets[start:start + step])
        j = np.argmax(scores, axis=1)
        top = np.take_along_axis(scores, j[:, None], axis=1)[:, 0]
        better = top > best_score
        best_score[better] = top[better]
        best_row[better] = start + j[better]
    return subsets[best_row], best_score


def _good_columns(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column selection of each projection of a (D, n, n) stack: the (D, k)
    index sets I maximizing the smallest singular value of P[:, I], those
    (D,) singular values, and the (D, n, k) bases P[:, I].  The best I of a
    rank-k projection has sigma(P[:, I]) >= binom(n, k)^(-1/2), so a maximum
    at the rank tolerance raises :class:`DegeneracyError`."""
    cols, sigma = _best_subsets(
        p.shape[-1], k, len(p),
        lambda block: np.linalg.svd(p[:, :, block].transpose(0, 2, 1, 3),
                                    compute_uv=False)[..., -1])
    if sigma.min() <= _RANK_TOL:
        raise DegeneracyError("matrix is rank deficient", sigma=float(sigma.min()))
    return cols, sigma, np.take_along_axis(p, cols[:, None, :], axis=2)


def _good_rows(a: np.ndarray) -> np.ndarray:
    """Row selection of each basis of a (D, n, k) stack: the (D, k) index
    sets I maximizing |det(A_I)|."""
    d, n, k = a.shape
    return _best_subsets(n, k, d, lambda block: np.abs(np.linalg.det(a[:, block])))[0]


def good_basis(v: Subspace) -> tuple[np.ndarray, tuple, ConditionReport]:
    """Well-conditioned basis of projected standard vectors.

    Returns (A, I, report) where the columns of A are P_V e_i for i in I and
    I maximizes the smallest singular value over all binom(n, k) choices
    (lexicographically first on ties).  The choice is exhaustive: the
    column blocks of every subset are stacked and scored by one batched SVD
    per block of at most 1024 subsets, so memory stays bounded for large
    binom(n, k).  Always ||A|| <= 1 and sigma(A) > 0.
    """
    cols, sigma, a = _good_columns(v.proj[None], v.k)
    a, best_idx = a[0], tuple(cols[0].tolist())
    a_rows = a[list(best_idx), :]
    s_rows = np.linalg.svd(a_rows, compute_uv=False)
    report = ConditionReport(
        sigma_min=float(sigma[0]),
        sigma_max=mk.spectral_norm(a),
        det_AI=float(np.linalg.det(a_rows)),
        inv_norm_bound=float(1.0 / s_rows[-1]) if s_rows[-1] > 0 else math.inf,
    )
    return a, best_idx, report


def good_submatrix(a) -> tuple[tuple, ConditionReport]:
    """Row index set maximizing |det(A_I)|, with the conditioning guarantee
    ||A_I^{-1}|| <= sqrt(binom(n, m)) * ||A||^{m-1} / sigma(A)^m.

    The choice is exhaustive over all binom(n, m) row blocks, scored by one
    batched determinant per block of at most 1024 subsets; ties go to the
    lexicographically first index set.
    """
    a = mk.as_matrix(a)
    n, m = a.shape
    if n < m:
        raise InputDomainError(f"need rows >= cols, got {n}x{m}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= _RANK_TOL:
        raise DegeneracyError("matrix is rank deficient", sigma=float(s[-1]))
    best_idx = tuple(_good_rows(a[None])[0].tolist())
    k1, k2 = float(s[0]), float(s[-1])
    report = ConditionReport(
        sigma_min=k2,
        sigma_max=k1,
        det_AI=float(np.linalg.det(a[list(best_idx), :])),
        inv_norm_bound=math.sqrt(math.comb(n, m)) * k1 ** (m - 1) / k2**m,
    )
    return best_idx, report


def chart_bases(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Charts of a (D, n, n) stack of checked rank-k projections.

    Returns the (D, k) row index sets I and the (D, n, k) chart bases A',
    with the identity at the I-rows and the free block elsewhere.  Per
    projection this is :func:`good_basis` followed by :func:`good_submatrix`,
    for the whole stack at once: one batched SVD scores every column block,
    one batched determinant every row block, and one batched inverse
    normalizes the row blocks.  The rank check reuses the smallest singular
    value of the chosen basis, which that SVD has already computed.
    """
    a = _good_columns(p, k)[2]
    rows = _good_rows(a)
    a_prime = a @ np.linalg.inv(np.take_along_axis(a, rows[:, :, None], axis=1))
    np.put_along_axis(a_prime, rows[:, :, None], np.eye(k), axis=1)
    return rows, a_prime


def charts_of(rows: np.ndarray, bases: np.ndarray) -> list[Chart]:
    """The :class:`Chart` of each row index set and chart basis of
    :func:`chart_bases`."""
    d, n, k = bases.shape
    free_rows = np.ones((d, n), dtype=bool)
    np.put_along_axis(free_rows, rows, False, axis=1)
    free = bases[free_rows].reshape(d, n - k, k)
    return [Chart(n=n, k=k, I=tuple(i), free=f) for i, f in zip(rows.tolist(), free)]


def to_chart(v: Subspace) -> Chart:
    """Chart of a subspace: good basis, then the best-conditioned row block."""
    return charts_of(*chart_bases(v.proj[None], v.k))[0]


def from_chart(c: Chart) -> Subspace:
    """Subspace spanned by the chart's reconstructed basis columns."""
    return from_basis(c.reconstruct())


def stability_constant(n: int, k: int, c_hat: float) -> float:
    """Per-instance Lipschitz constant for chart coordinates under metric
    perturbations, with c_hat the smallest singular value of the good basis."""
    binom = math.comb(n, k)
    return (math.sqrt(k * binom) / c_hat**k
            + (1.0 + math.sqrt(k)) * 2.0 * math.sqrt(k) * binom / c_hat ** (2 * k))


def chart_stability(v: Subspace, eps: float, trials: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Measure chart-coordinate deviation under metric-eps perturbations.

    Both index sets are held fixed across perturbations (re-selection could
    jump charts at decision boundaries).  Returns (max_observed, constant);
    the contract is max_observed <= constant * eps, provided the premise
    ||A_I^{-1}|| * ||A_I - A~_I|| < 1/2 holds in every trial.
    """
    from .grassmann import perturb_within

    cols, sigma, a = _good_columns(v.proj[None], v.k)
    a, basis_idx = a[0], cols[0].tolist()
    rows = _good_rows(a[None])[0].tolist()
    a_i_inv = np.linalg.inv(a[rows, :])
    a_prime = a @ a_i_inv
    constant = stability_constant(v.n, v.k, float(sigma[0]))

    max_observed = 0.0
    for trial in range(trials):
        w = perturb_within(v, eps, rng)
        a_t = w.proj[:, basis_idx]
        if mk.spectral_norm(a_i_inv) * mk.spectral_norm(a[rows, :] - a_t[rows, :]) >= 0.5:
            raise PremiseViolationError(
                "perturbed row block left the Neumann-premise region", trial=trial)
        a_t_prime = a_t @ np.linalg.inv(a_t[rows, :])
        deviation = float(np.max(np.linalg.norm(a_prime - a_t_prime, axis=0)))
        max_observed = max(max_observed, deviation)
    return max_observed, constant


def orthonormal_frame(v: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis of a subspace: the frame of its chart
    basis, see :func:`orthonormal_frames`."""
    return orthonormal_frames(chart_bases(v.proj[None], v.k)[1])[0]


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
    q = orthonormal_frame(w)
    inner = q.T @ v.proj @ q
    return to_chart(Subspace(n=w.k, k=v.k, proj=(inner + inner.T) / 2.0))


def embed_relative(c: Chart, w: Subspace) -> Subspace:
    """Inverse of :func:`relative_chart` for the same containing plane."""
    q = orthonormal_frame(w)
    inner = from_chart(c).proj
    p = q @ inner @ q.T
    return Subspace(n=w.n, k=c.k, proj=(p + p.T) / 2.0)

