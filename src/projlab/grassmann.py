"""The Grassmannian G(n, k) as a computational object.

A k-plane is represented by its n x n orthogonal projection matrix.  The
metric is the spectral norm of the difference of projection matrices, which
coincides with the sup over unit vectors of the projected-image distance.
:func:`sample_uniform` and :func:`from_basis` each build one symmetrized
projection and construct the :class:`Subspace`, which checks it once.  These
serve the one-subspace API, which charts a plane through the eigenbasis of
its projection (:func:`projlab.charts.to_chart`).  The lab's sweeps take the
orthonormal n x k bases of :func:`haar_bases` instead and chart them
directly, with no projection matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .errors import (DegeneracyError, InputDomainError, integer, integer_argument,
                     parse_json, read_fields)

# contains() and AffinePlane.contains_point() accept residuals up to these.
_CONTAINMENT_TOL = 1e-8
_POINT_TOL = 1e-9

_SYMMETRY_TOL = 1e-10
_IDEMPOTENCY_TOL = 1e-10
_TRACE_TOL = 1e-8


def _dimensions(n, k) -> tuple[int, int]:
    """(n, k) as ints, refusing non-integers and any k outside 0 < k < n
    with :class:`InputDomainError`."""
    n, k = integer_argument("n", n), integer_argument("k", k)
    if not (0 < k < n):
        raise InputDomainError(f"need 0 < k < n, got k={k}, n={n}")
    return n, k


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-plane through the origin in R^n, stored as its projection matrix."""

    n: int
    k: int
    proj: np.ndarray

    def __post_init__(self):
        n, k = _dimensions(self.n, self.k)
        p = np.asarray(self.proj, dtype=float)
        # A frozen dataclass's fields live in its __dict__.
        self.__dict__.update(n=n, k=k, proj=p)
        if p.shape != (n, n):
            raise InputDomainError(f"projection matrix shape {p.shape} does not match n={n}")
        check_projections(p[None], k)

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


def haar_bases(g: np.ndarray) -> np.ndarray:
    """Orthonormal bases of invariant-measure planes from an (n, k) matrix or
    a (D, n, k) stack of iid Gaussian draws: the Q factor of one (batched) QR."""
    return np.linalg.qr(g)[0]


def from_basis(a) -> Subspace:
    """Orthogonal projection onto the column span of an (n, k) matrix, 0 < k < n.
    Dependent columns, as k > n columns always are, raise :class:`DegeneracyError`,
    at any scale: the test runs on A scaled exactly by 2^-e, max |A| in [2^(e-1), 2^e)."""
    a = mk.as_matrix(a)
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    n, k = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)[-1] if k <= n else 0.0
    if sigma <= 1e-8:
        raise DegeneracyError("basis columns are (nearly) linearly dependent",
                              sigma=float(sigma))
    p = a @ np.linalg.solve(a.T @ a, a.T)
    return Subspace(n=n, k=k, proj=(p + p.T) / 2.0)


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
    n, k = _dimensions(n, k)
    q = haar_bases(rng.standard_normal((n, k)))
    p = q @ q.T
    return Subspace(n=n, k=k, proj=(p + p.T) / 2.0)
