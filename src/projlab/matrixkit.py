"""Dense-matrix toolbox: singular values, spectral norms, minors, and the
Neumann-series perturbation bound for inverses.

Everything here is a pure function of ndarrays.  Matrices are plain numpy
arrays; index sets are strictly increasing tuples of 0-based row positions.
Every door that refuses a singular or dependent matrix applies :func:`rank_deficient`
to its SVD, the package's one rank verdict.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import InputDomainError, SingularityError, integer_argument, real_array

# Rank relative to sigma_max, so unit-free (Golub & Van Loan, Matrix Computations, 5.4.1).
SINGULARITY_RTOL = 1e-10


def rank_deficient(s: np.ndarray) -> bool:
    """The rank rule: sigma_min <= SINGULARITY_RTOL * sigma_max of descending ``s``."""
    return bool(s[-1] <= SINGULARITY_RTOL * s[0])


def as_matrix(m, what: str = "matrix", shape: tuple | None = None) -> np.ndarray:
    """``m`` as a finite real 2-d array, nonempty or of ``shape``, else InputDomainError."""
    a = real_array(m, what, "a 2-d array")
    if a.ndim != 2 or a.size == 0 or shape not in (None, a.shape):
        raise InputDomainError(f"{what} shape {a.shape}, expected {shape or 'a 2-d matrix'}")
    if not np.all(np.isfinite(a)):
        raise InputDomainError(f"{what} entries must be finite")
    return a


def validate_index_set(indices, nrows: int) -> tuple[int, ...]:
    """Validate a strictly increasing, in-range, duplicate-free index set of integers."""
    try:
        entries = iter(indices)
    except TypeError:
        raise InputDomainError(f"index set must be iterable, got {indices!r}") from None
    idx = tuple(integer_argument("index set entry", i) for i in entries)
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
    """Matrix inverse; a matrix singular by :func:`rank_deficient` raises
    :class:`SingularityError` carrying its smallest singular value."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputDomainError("inverse requires a square matrix")
    s = np.linalg.svd(a, compute_uv=False)
    if rank_deficient(s):
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
    try:
        a2_inv = inverse(a2)
    except SingularityError:
        if premise:  # A2 is invertible by the premise yet singular by the rank rule.
            raise
        return PerturbationBound(np.inf, np.inf, False)
    actual = spectral_norm(a_inv - a2_inv)
    bound = inv_norm**2 * diff_norm / (1.0 - inv_norm * diff_norm) if premise else np.inf
    return PerturbationBound(bound, actual, premise)
