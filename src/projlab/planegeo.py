"""Constructive plane geometry: spans from points (by the rank rule), lines, fiber
hyperplanes, and dyadic agreement precision.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError
from .grassmann import AffinePlane, Subspace, _basis_span, _point, orthogonal_complement


@dataclass(frozen=True)
class SpanResult:
    """An affine plane through given points plus its conditioning value."""

    plane: AffinePlane
    sigma: float  # smallest singular value of the difference matrix


def span_from_points(points) -> SpanResult:
    """Affine k-plane through k+1 points whose differences are independent.

    ``sigma`` is the smallest singular value of the matrix with columns
    p_i - p_0, read off the SVD by which :func:`from_basis`'s rank rule refuses
    dependent differences at any scale.
    """
    pts = list(points)
    if len(pts) < 2:
        raise InputDomainError("need at least two points")
    p0 = _point("point", pts[0])
    diffs = np.column_stack([_point("point", p, p0.size) - p0 for p in pts[1:]])
    direction, sigma = _basis_span(diffs)
    return SpanResult(plane=AffinePlane.through(direction, p0), sigma=sigma)


def line_through(z, w) -> AffinePlane:
    """The 1-dimensional affine plane through two distinct points."""
    return span_from_points([z, w]).plane


def fiber_hyperplane(z, w) -> Subspace:
    """The hyperplane onto which z and w project identically: the orthogonal
    complement of the line direction through them."""
    return orthogonal_complement(line_through(z, w).direction)


def fiber_sample(v: Subspace, z, radius: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Random w with p_V w = p_V z and 0 < ||w - z|| <= radius.

    Moves from z along (Id - P_V) u for Gaussian u, so the displacement is
    exactly orthogonal to V.  A radius that is not a finite real > 0, or a
    z that is not a finite point of R^n, raises :class:`InputDomainError`.
    """
    if not (isinstance(radius, numbers.Real) and 0.0 < radius < math.inf):
        raise InputDomainError(f"radius must be a finite real > 0, got {radius!r}")
    z = _point("z", z, v.n)
    while True:
        u = rng.standard_normal(v.n)
        d = u - v.proj @ u
        norm = np.linalg.norm(d)
        if norm > 1e-12:
            break
    scale = rng.uniform(0.0, 1.0) or 0.5
    return z + (radius * scale / norm) * d


def agreement_precision(z, w) -> float:
    """Dyadic precision t = -log2 ||z - w|| up to which two points agree:
    negative for pairs farther than 1 apart, +inf for identical points.
    Values that are not finite points of one R^n, which would read as a NaN
    or an infinite disagreement, raise :class:`InputDomainError`."""
    z = _point("z", z)
    w = _point("w", w, len(z))
    # hypot does not square.  Where z - w or its hypot overflow, 2^-e scales both exactly;
    # what it rounds off (below 2^(e - 1074)) is far below one ulp of so wide a distance.
    with np.errstate(over="ignore"):
        d, e = math.hypot(*(z - w)), 0
    if d == math.inf:
        e = int(np.frexp(np.abs([z, w]).max())[1])
        d = math.hypot(*(np.ldexp(z, -e) - np.ldexp(w, -e)))
    return math.inf if d == 0.0 else -math.log2(d) - e
