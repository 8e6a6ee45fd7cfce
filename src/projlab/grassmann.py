"""The Grassmannian G(n, k) as a computational object.

A k-plane is represented by its n x n orthogonal projection matrix P and an
orthonormal n x k basis Q of its span.  The metric is the spectral norm of
the difference of projection matrices, which coincides with the sup over
unit vectors of the projected-image distance.  A plane is checked once, at
the door for outside values: ``Subspace(n, k, proj)`` checks P and takes Q
from its top-k eigenvectors, :func:`from_basis` tests its matrix's rank, and
``AffinePlane(direction, offset)`` its offset.  Every plane built from a
checked value (:func:`sample_uniform`, :func:`from_basis`, :func:`orthogonal_complement`,
the charts' planes) takes Q from a QR factor and P = sym(Q Q^T) by
:func:`_from_orthonormal`, unchecked, as :meth:`AffinePlane.through` its offset p - P p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import matrixkit as mk
from .errors import (DegeneracyError, InputDomainError, integer, integer_argument,
                     parse_json, read_fields)

# Residuals accepted by contains() and, times max(1, ||x||), by contains_point().
_CONTAINMENT_TOL = 1e-8
_POINT_TOL = 1e-9

# check_projections bounds ||P - P^T|| and ||P^2 - P|| by this.
_PROJECTION_TOL = 1e-10
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
    """A k-plane through the origin in R^n: its projection matrix ``proj`` and an
    orthonormal (n, k) ``basis``, P's top-k eigenvectors when P is given."""

    n: int
    k: int
    proj: np.ndarray
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, k = _dimensions(self.n, self.k)
        p = np.asarray(self.proj, dtype=float)
        if p.shape != (n, n):
            raise InputDomainError(f"projection matrix shape {p.shape} does not match n={n}")
        check_projections(p, k)
        # A frozen dataclass's fields live in its __dict__.
        self.__dict__.update(n=n, k=k, proj=p, basis=np.linalg.eigh((p + p.T) / 2.0)[1][:, n - k:])

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
        t = (np.zeros(self.direction.n) if self.offset is None
             else _point("offset", self.offset, self.direction.n))
        object.__setattr__(self, "offset", t)
        if np.linalg.norm(self.direction.proj @ t) > 1e-10 * max(1.0, np.linalg.norm(t)):
            raise InputDomainError("invariant violated: offset not orthogonal to direction")

    @classmethod
    def through(cls, direction: Subspace, point) -> "AffinePlane":
        """The affine plane with the given direction passing through a point
        of R^n; anything else raises :class:`InputDomainError`.  Its offset
        p - P p is orthogonal to the direction by construction: not checked."""
        p = _point("point", point, direction.n)
        plane = object.__new__(cls)
        plane.__dict__.update(direction=direction, offset=p - direction.proj @ p)
        return plane

    def contains_point(self, x) -> bool:
        x = _point("point", x, self.direction.n)
        residual = np.linalg.norm(x - (self.direction.proj @ x + self.offset))
        return residual <= _POINT_TOL * max(1.0, np.linalg.norm(x))


def _point(name: str, x, n: int | None = None) -> np.ndarray:
    """``x`` as a float array of shape (n,), of any length n >= 1 if ``n`` is None;
    any other value, a complex one or a non-finite coordinate included, raises
    :class:`InputDomainError`."""
    try:
        p = np.empty(0) if np.iscomplexobj(x) else np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        p = np.empty(0)
    if p.ndim != 1 or p.size == 0 or n not in (None, p.size) or not np.isfinite(p).all():
        raise InputDomainError(
            f"{name} must be a finite point of R^{'n' if n is None else n}, got {x!r}")
    return p


def check_projections(p: np.ndarray, k: int) -> None:
    """Raise :class:`InputDomainError` unless the (n, n) matrix ``p`` is a rank-k
    orthogonal projection: finite, symmetric, idempotent and of trace k.  A
    spectral-norm test runs the SVD only if a Frobenius norm, its upper bound,
    exceeds (1 - 1e-9) tol: rounding is n^2 eps."""
    if not np.all(np.isfinite(p)):
        raise InputDomainError("projection matrix entries must be finite")
    for defect, name in ((p - p.T, "symmetric"), (p @ p - p, "idempotent")):
        if (np.linalg.norm(defect) > _PROJECTION_TOL * (1.0 - 1e-9)
                and np.linalg.svd(defect, compute_uv=False)[0] > _PROJECTION_TOL):
            raise InputDomainError(f"invariant violated: proj is not {name}")
    if abs(np.trace(p) - k) > _TRACE_TOL:
        raise InputDomainError(f"invariant violated: trace(proj)={np.trace(p):.6g} != k={k}")


def haar_bases(g: np.ndarray) -> np.ndarray:
    """Orthonormal bases of invariant-measure planes from an (n, k) matrix or
    a (D, n, k) stack of iid Gaussian draws: the Q factor of one (batched) QR."""
    return np.linalg.qr(g)[0]


def _from_orthonormal(q: np.ndarray) -> Subspace:
    """The :class:`Subspace` of the orthonormal columns of an (n, k) ``q``, 0 < k < n:
    P = sym(Q Q^T) is a projection by construction, so no check runs."""
    p = q @ q.T
    v = object.__new__(Subspace)
    v.__dict__.update(n=q.shape[0], k=q.shape[1], proj=(p + p.T) / 2.0, basis=q)
    return v


def from_basis(a) -> Subspace:
    """The span of an (n, k) matrix's columns, 0 < k < n, with its QR factor as basis.
    Dependent columns, as k > n columns always are, raise :class:`DegeneracyError`,
    at any scale: the test runs on A scaled exactly by 2^-e, max |A| in [2^(e-1), 2^e)."""
    a = mk.as_matrix(a)
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    n, k = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)[-1] if k <= n else 0.0
    if sigma <= 1e-8:
        raise DegeneracyError("basis columns are (nearly) linearly dependent",
                              sigma=float(sigma))
    _dimensions(n, k)
    return _from_orthonormal(haar_bases(a))


def project_point(v: Subspace, x) -> np.ndarray:
    return v.proj @ _point("point", x, v.n)


def metric_rho(v1: Subspace, v2: Subspace) -> float:
    """Spectral norm of the difference of projection matrices; lies in [0, 1]."""
    if v1.n != v2.n or v1.k != v2.k:
        raise InputDomainError("metric requires subspaces of the same (n, k)")
    return mk.spectral_norm(v1.proj - v2.proj)


def orthogonal_complement(v: Subspace) -> Subspace:
    """The plane orthogonal to ``v``: the last n - k columns of its basis's complete QR."""
    return _from_orthonormal(np.linalg.qr(v.basis, mode="complete")[0][:, v.k:])


def contains(w: Subspace, v: Subspace) -> bool:
    """Whether the plane of ``v`` lies inside ``w`` (any k's, same n)."""
    if w.n != v.n:
        raise InputDomainError("containment requires the same ambient dimension")
    return mk.spectral_norm(w.proj @ v.proj - v.proj) <= _CONTAINMENT_TOL


def sample_uniform(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Invariant-measure sample: orthonormalize k iid Gaussian vectors."""
    n, k = _dimensions(n, k)
    return _from_orthonormal(haar_bases(rng.standard_normal((n, k))))
