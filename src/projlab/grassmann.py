"""The Grassmannian G(n, k) as a computational object.

A k-plane is represented by its n x n orthogonal projection matrix.  The
metric is the spectral norm of the difference of projection matrices, which
coincides with the sup over unit vectors of the projected-image distance.
Projections are built in (D, n, n) stacks (:func:`haar_projections`,
:func:`basis_projections`) whose invariants are checked once per stack;
:func:`sample_uniform` and :func:`from_basis` are their one-matrix cases,
and these serve the one-subspace API.  The lab's sweeps take the
orthonormal n x k bases of :func:`haar_bases` instead and chart them
directly, with no projection matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .errors import (DegeneracyError, InputDomainError, integer, parse_json,
                     read_fields)

# contains() and AffinePlane.contains_point() accept residuals up to these.
_CONTAINMENT_TOL = 1e-8
_POINT_TOL = 1e-9

_SYMMETRY_TOL = 1e-10
_IDEMPOTENCY_TOL = 1e-10
_TRACE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-plane through the origin in R^n, stored as its projection matrix."""

    n: int
    k: int
    proj: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.proj, dtype=float)
        object.__setattr__(self, "proj", p)
        if not (0 < self.k < self.n):
            raise InputDomainError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if p.shape != (self.n, self.n):
            raise InputDomainError(
                f"projection matrix shape {p.shape} does not match n={self.n}")
        check_projections(p[None], self.k)

    @classmethod
    def _checked(cls, k: int, proj: np.ndarray) -> "Subspace":
        """Wrap a projection that :func:`check_projections` has passed,
        without checking it again."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", proj.shape[0])
        object.__setattr__(v, "k", k)
        object.__setattr__(v, "proj", proj)
        return v

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k,
                           "proj": self.proj.ravel().tolist()})

    @classmethod
    def from_json(cls, text) -> "Subspace":
        casts = {"n": integer, "k": integer, "proj": lambda p: np.asarray(p, dtype=float)}
        n, k, proj = read_fields(parse_json(text, InputDomainError, "subspace JSON"),
                                 casts, InputDomainError, "subspace JSON")
        if n < 1 or proj.size != n * n:
            raise InputDomainError(f"invariant violated: n={n} with {proj.size} proj "
                                   "entries; need n >= 1 and n * n entries")
        return cls(n=n, k=k, proj=proj.reshape(n, n))


@dataclass(frozen=True, eq=False)
class AffinePlane:
    """An affine k-plane V + t; the offset is canonicalized orthogonal to V."""

    direction: Subspace
    offset: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.zeros(self.direction.n) if self.offset is None \
            else np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "offset", t)
        if t.shape != (self.direction.n,):
            raise InputDomainError("offset dimension does not match the direction")
        if np.linalg.norm(self.direction.proj @ t) > 1e-10:
            raise InputDomainError("invariant violated: offset not orthogonal to direction")

    @classmethod
    def through(cls, direction: Subspace, point) -> "AffinePlane":
        """The affine plane with the given direction passing through a point."""
        p = np.asarray(point, dtype=float)
        return cls(direction, p - direction.proj @ p)

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - (self.direction.proj @ x + self.offset)) <= _POINT_TOL


def check_projections(p: np.ndarray, k: int) -> None:
    """Raise :class:`InputDomainError` unless every matrix of the (D, n, n)
    stack ``p`` is a rank-k orthogonal projection: finite, symmetric,
    idempotent and of trace k.  A spectral-norm test runs the batched SVD only if
    a Frobenius norm, its upper bound, exceeds (1 - 1e-9) tol: rounding is n^2 eps."""
    if not np.all(np.isfinite(p)):
        raise InputDomainError("projection matrix entries must be finite")
    if _norm_above(p - p.swapaxes(-1, -2), _SYMMETRY_TOL):
        raise InputDomainError("invariant violated: proj is not symmetric")
    if _norm_above(p @ p - p, _IDEMPOTENCY_TOL):
        raise InputDomainError("invariant violated: proj is not idempotent")
    trace = np.trace(p, axis1=-2, axis2=-1)
    off = np.abs(trace - k) > _TRACE_TOL
    if off.any():
        raise InputDomainError(
            f"invariant violated: trace(proj)={trace[off][0]:.6g} != k={k}")


def _norm_above(m: np.ndarray, tol: float) -> bool:
    return bool(np.linalg.norm(m, axis=(-2, -1)).max() > tol * (1.0 - 1e-9)
                and np.linalg.svd(m, compute_uv=False)[..., 0].max() > tol)


def _symmetrized_checked(p: np.ndarray, k: int) -> np.ndarray:
    p = (p + p.swapaxes(-1, -2)) / 2.0
    check_projections(p, k)
    return p


def basis_projections(a: np.ndarray) -> np.ndarray:
    """Orthogonal projections onto the column spans of a (D, n, k) stack of
    bases, as a checked (D, n, n) stack.  Dependent columns, as k > n
    columns always are, raise :class:`DegeneracyError`."""
    d, n, k = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)[..., -1] if k <= n else np.zeros(d)
    if sigma.min() <= 1e-8:
        raise DegeneracyError("basis columns are (nearly) linearly dependent",
                              sigma=float(sigma.min()))
    at = a.swapaxes(-1, -2)
    return _symmetrized_checked(a @ np.linalg.solve(at @ a, at), k)


def haar_bases(g: np.ndarray) -> np.ndarray:
    """Orthonormal bases of invariant-measure planes from a (D, n, k) stack
    of iid Gaussian draws: the Q factor of one batched QR."""
    return np.linalg.qr(g)[0]


def haar_projections(g: np.ndarray) -> np.ndarray:
    """The projections onto the planes of :func:`haar_bases`, as a checked
    (D, n, n) stack."""
    q = haar_bases(g)
    return _symmetrized_checked(q @ q.swapaxes(-1, -2), g.shape[-1])


def from_basis(a) -> Subspace:
    """Orthogonal projection onto the column span of an (n, k) matrix, 0 < k < n."""
    a = mk.as_matrix(a)
    p = basis_projections(a[None])[0]
    n, k = a.shape
    if not (0 < k < n):
        raise InputDomainError(f"need 0 < k < n, got k={k}, n={n}")
    return Subspace._checked(k, p)


def project_point(v: Subspace, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (v.n,):
        raise InputDomainError(f"point has shape {x.shape}, expected ({v.n},)")
    return v.proj @ x


def metric_rho(v1: Subspace, v2: Subspace) -> float:
    """Spectral norm of the difference of projection matrices; lies in [0, 1]."""
    if v1.n != v2.n or v1.k != v2.k:
        raise InputDomainError("metric requires subspaces of the same (n, k)")
    return mk.spectral_norm(v1.proj - v2.proj)


def orthogonal_complement(v: Subspace) -> Subspace:
    return Subspace(n=v.n, k=v.n - v.k, proj=np.eye(v.n) - v.proj)


def contains(w: Subspace, v: Subspace) -> bool:
    """Whether the plane of ``v`` lies inside ``w`` (any k's, same n)."""
    if w.n != v.n:
        raise InputDomainError("containment requires the same ambient dimension")
    return mk.spectral_norm(w.proj @ v.proj - v.proj) <= _CONTAINMENT_TOL


def sample_uniform(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Invariant-measure sample: orthonormalize k iid Gaussian vectors."""
    if not (0 < k < n):
        raise InputDomainError(f"need 0 < k < n, got k={k}, n={n}")
    g = rng.standard_normal((n, k))
    return Subspace._checked(k, haar_projections(g[None])[0])
