"""Stable k(n-k)-parameter coordinate charts on G(n, k).

A chart fixes a row index set I and normalizes a basis matrix A of the
plane to A' = A * A_I^{-1}, so the I-rows of A' form the identity and the
remaining (n-k) x k block carries all free parameters.  Index sets are
chosen exhaustively for conditioning: the basis columns maximize the
smallest singular value, the row block maximizes |det|.  Subsets are
scored by one batched SVD or determinant per block of at most 4096.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .errors import DegeneracyError, InputDomainError, PremiseViolationError
from .grassmann import Subspace, contains, from_basis

_CHART_SIGMA_TOL = 1e-10
# Subsets scored per batched svd/det call; bounds the stacked submatrices
# at 4096 x n x k floats whatever binom(n, k) is.
_SUBSET_BLOCK = 4096


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
        obj = json.loads(text)
        for key in ("n", "k", "I", "free"):
            if key not in obj:
                raise InputDomainError(f"chart JSON missing field '{key}'")
        n, k = int(obj["n"]), int(obj["k"])
        free = np.asarray(obj["free"], dtype=float).reshape(n - k, k)
        return cls(n=n, k=k, I=tuple(obj["I"]), free=free)


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


def _best_subset(n: int, k: int, score) -> tuple[tuple, float]:
    """The k-subset of range(n) with the largest ``score`` and that score.

    ``score`` maps a (B, k) block of subsets to their B scores; blocks hold
    at most ``_SUBSET_BLOCK`` subsets.  Ties go to the lexicographically
    first subset: ``argmax`` keeps the first maximum within a block, and a
    later block wins only with a strictly larger score.
    """
    subsets = _index_subsets(n, k)
    best_score, best_row = -math.inf, 0
    for start in range(0, len(subsets), _SUBSET_BLOCK):
        scores = score(subsets[start:start + _SUBSET_BLOCK])
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score, best_row = float(scores[j]), start + j
    return tuple(int(i) for i in subsets[best_row]), best_score


def good_basis(v: Subspace) -> tuple[np.ndarray, tuple, ConditionReport]:
    """Well-conditioned basis of projected standard vectors.

    Returns (A, I, report) where the columns of A are P_V e_i for i in I and
    I maximizes the smallest singular value over all binom(n, k) choices
    (lexicographically first on ties).  The choice is exhaustive: the
    column blocks of every subset are stacked and scored by one batched SVD
    per block of at most 4096 subsets, so memory stays bounded for large
    binom(n, k).  Always ||A|| <= 1 and sigma(A) > 0.
    """
    p = v.proj
    best_idx, best_sigma = _best_subset(
        v.n, v.k,
        lambda block: np.linalg.svd(p[:, block].transpose(1, 0, 2),
                                    compute_uv=False)[:, -1])
    a = p[:, list(best_idx)]
    a_rows = a[list(best_idx), :]
    s_rows = np.linalg.svd(a_rows, compute_uv=False)
    report = ConditionReport(
        sigma_min=best_sigma,
        sigma_max=mk.spectral_norm(a),
        det_AI=float(np.linalg.det(a_rows)),
        inv_norm_bound=float(1.0 / s_rows[-1]) if s_rows[-1] > 0 else math.inf,
    )
    return a, best_idx, report


def good_submatrix(a) -> tuple[tuple, ConditionReport]:
    """Row index set maximizing |det(A_I)|, with the conditioning guarantee
    ||A_I^{-1}|| <= sqrt(binom(n, m)) * ||A||^{m-1} / sigma(A)^m.

    The choice is exhaustive over all binom(n, m) row blocks, scored by one
    batched determinant per block of at most 4096 subsets; ties go to the
    lexicographically first index set.
    """
    a = mk.as_matrix(a)
    n, m = a.shape
    if n < m:
        raise InputDomainError(f"need rows >= cols, got {n}x{m}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= 1e-10:
        raise DegeneracyError("matrix is rank deficient", sigma=float(s[-1]))
    best_idx, _ = _best_subset(n, m, lambda block: np.abs(np.linalg.det(a[block])))
    k1, k2 = float(s[0]), float(s[-1])
    report = ConditionReport(
        sigma_min=k2,
        sigma_max=k1,
        det_AI=float(np.linalg.det(a[list(best_idx), :])),
        inv_norm_bound=math.sqrt(math.comb(n, m)) * k1 ** (m - 1) / k2**m,
    )
    return best_idx, report


def to_chart(v: Subspace) -> Chart:
    """Chart of a subspace: good basis, then the best-conditioned row block."""
    a, _, _ = good_basis(v)
    idx, _ = good_submatrix(a)
    a_prime = a @ np.linalg.inv(a[list(idx), :])
    others = [i for i in range(v.n) if i not in set(idx)]
    return Chart(n=v.n, k=v.k, I=idx, free=a_prime[others, :])


def from_chart(c: Chart) -> Subspace:
    """Subspace spanned by the chart's reconstructed basis columns."""
    a_prime = c.reconstruct()
    # sigma(A') >= 1 because the I-rows alone already preserve every norm.
    if mk.smallest_singular_value(a_prime) < 1.0 - _CHART_SIGMA_TOL:
        raise InputDomainError("invariant violated: sigma(A') < 1")
    return from_basis(a_prime)


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

    a, basis_idx, _ = good_basis(v)
    sub_idx, _ = good_submatrix(a)
    rows = list(sub_idx)
    a_i_inv = np.linalg.inv(a[rows, :])
    a_prime = a @ a_i_inv
    constant = stability_constant(v.n, v.k, mk.smallest_singular_value(a))

    max_observed = 0.0
    for trial in range(trials):
        w = perturb_within(v, eps, rng)
        a_t = w.proj[:, list(basis_idx)]
        if mk.spectral_norm(a_i_inv) * mk.spectral_norm(a[rows, :] - a_t[rows, :]) >= 0.5:
            raise PremiseViolationError(
                "perturbed row block left the Neumann-premise region", trial=trial)
        a_t_prime = a_t @ np.linalg.inv(a_t[rows, :])
        deviation = float(np.max(np.linalg.norm(a_prime - a_t_prime, axis=0)))
        max_observed = max(max_observed, deviation)
    return max_observed, constant


def orthonormal_frame(v: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis of a subspace: the frame of its chart,
    see :func:`chart_frame`."""
    return chart_frame(to_chart(v))


def chart_frame(c: Chart) -> np.ndarray:
    """Orthonormal basis of the plane a chart describes.

    Modified Gram-Schmidt over the chart basis columns in fixed order, so
    the frame depends only on the chart.
    """
    q = c.reconstruct()
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


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


def min_conditioning_estimate(n: int, k: int, samples: int,
                              rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the worst-case good-basis conditioning over
    G(n, k); documentation aid for the universal positive lower bound."""
    from .grassmann import sample_uniform

    worst = math.inf
    for _ in range(samples):
        _, _, report = good_basis(sample_uniform(n, k, rng))
        worst = min(worst, report.sigma_min)
    return worst
