"""Dense-matrix toolbox: singular values, spectral norms, minors, and the
Neumann-series perturbation bound for inverses.

Everything here is a pure function of ndarrays.  Matrices are plain numpy
arrays; index sets are strictly increasing tuples of 0-based row positions.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import InputDomainError, SingularityError, integer_argument

# A square matrix with sigma_min <= SINGULARITY_RTOL * sigma_max is treated
# as singular; scale-relative so the test is unit-free.
SINGULARITY_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a float 2-d array and validate finiteness."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputDomainError(f"expected a 2-d matrix, got shape {getattr(a, 'shape', None)}")
    if not np.all(np.isfinite(a)):
        raise InputDomainError("matrix entries must be finite")
    return a


def validate_index_set(indices, nrows: int) -> tuple[int, ...]:
    """Validate a strictly increasing, in-range, duplicate-free index set of integers."""
    idx = tuple(integer_argument("index set entry", i) for i in indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise InputDomainError(f"index set {idx} is not strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] >= nrows):
        raise InputDomainError(f"index set {idx} out of range for {nrows} rows")
    return idx


def singular_values(m) -> np.ndarray:
    """All min(rows, cols) singular values, in descending order."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def spectral_norm(m) -> float:
    """Largest singular value (operator norm induced by l2)."""
    return float(singular_values(m)[0])


def smallest_singular_value(m) -> float:
    return float(singular_values(m)[-1])


def row_submatrix(m, indices) -> np.ndarray:
    """Rows of ``m`` selected by a strictly increasing index set."""
    a = as_matrix(m)
    idx = validate_index_set(indices, a.shape[0])
    return a[list(idx), :]


def determinant(m) -> float:
    """Determinant via LU with partial pivoting (sign tracked exactly)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError("determinant requires a square matrix")
    return float(np.linalg.det(a))


def inverse(m) -> np.ndarray:
    """Matrix inverse, rejecting numerically singular input.

    Raises :class:`SingularityError` carrying the smallest singular value
    when sigma_min <= SINGULARITY_RTOL * sigma_max.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError("inverse requires a square matrix")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= SINGULARITY_RTOL * s[0] or s[0] == 0.0:
        raise SingularityError("matrix is numerically singular", sigma=float(s[-1]))
    return np.linalg.inv(a)


def cauchy_binet(a) -> tuple[float, list[float]]:
    """det(A^T A) and its expansion over all maximal minors.

    Returns ``(lhs, terms)`` where ``lhs = det(A^T A)`` and ``terms`` lists
    ``det(A_S)**2`` for every row subset S of size m, in lexicographic order
    of S.  The identity lhs == sum(terms) holds exactly; numerically the
    residual stays within a small relative tolerance.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n < m:
        raise InputDomainError(f"need rows >= cols, got {n}x{m}")
    lhs = float(np.linalg.det(a.T @ a))
    terms = [float(np.linalg.det(a[list(s), :])) ** 2
             for s in itertools.combinations(range(n), m)]
    return lhs, terms


class PerturbationBound(NamedTuple):
    bound: float
    actual: float
    premise_holds: bool


def perturbation_inverse_bound(a, a2) -> PerturbationBound:
    """Neumann-series bound on ||A^-1 - A2^-1|| against the realized value.

    The premise is ||A^-1|| * ||A - A2|| < 1.  When it holds,
    ``bound = ||A^-1||^2 ||A-A2|| / (1 - ||A^-1|| ||A-A2||)`` and
    ``actual <= bound``.  When it fails, ``bound`` is +inf (no claim made).
    """
    a, a2 = as_matrix(a), as_matrix(a2)
    if a.shape != a2.shape or a.shape[0] != a.shape[1]:
        raise InputDomainError("need two square matrices of the same size")
    a_inv = inverse(a)
    inv_norm, diff_norm = spectral_norm(a_inv), spectral_norm(a - a2)
    premise = inv_norm * diff_norm < 1.0
    s2 = np.linalg.svd(a2, compute_uv=False)
    if premise and s2[-1] <= SINGULARITY_RTOL * s2[0]:
        # The premise guarantees A2 is invertible; a singular A2 here would
        # contradict the Neumann-series argument.
        raise SingularityError("perturbed matrix singular although the Neumann premise holds",
                               sigma=float(s2[-1]))
    if not premise and s2[-1] <= SINGULARITY_RTOL * max(s2[0], 1.0):
        return PerturbationBound(np.inf, np.inf, False)
    actual = spectral_norm(a_inv - np.linalg.inv(a2))
    bound = inv_norm**2 * diff_norm / (1.0 - inv_norm * diff_norm) if premise else np.inf
    return PerturbationBound(bound, actual, premise)
