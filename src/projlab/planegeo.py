"""Constructive plane geometry: spans from points, lines, fiber hyperplanes,
and dyadic agreement precision.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixkit as mk
from .errors import InputDomainError
from .grassmann import (AffinePlane, Subspace, from_basis,
                        orthogonal_complement)


@dataclass(frozen=True)
class SpanResult:
    """An affine plane through given points plus its conditioning value."""

    plane: AffinePlane
    sigma: float  # smallest singular value of the difference matrix


def span_from_points(points) -> SpanResult:
    """Affine k-plane through k+1 points whose differences are independent.

    ``sigma`` is the smallest singular value of the matrix with columns
    p_i - p_0.  :func:`from_basis` refuses dependent differences at any scale.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) < 2:
        raise InputDomainError("need at least two points")
    diffs = np.column_stack([p - pts[0] for p in pts[1:]])
    direction = from_basis(diffs)
    return SpanResult(plane=AffinePlane.through(direction, pts[0]),
                      sigma=mk.smallest_singular_value(diffs))


def line_through(z, w) -> AffinePlane:
    """The 1-dimensional affine plane through two distinct points."""
    return span_from_points([np.asarray(z, dtype=float),
                             np.asarray(w, dtype=float)]).plane


def fiber_hyperplane(z, w) -> Subspace:
    """The hyperplane onto which z and w project identically: the orthogonal
    complement of the line direction through them."""
    return orthogonal_complement(line_through(z, w).direction)


def fiber_sample(v: Subspace, z, radius: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Random w with p_V w = p_V z and 0 < ||w - z|| <= radius.

    Moves from z along (Id - P_V) u for Gaussian u, so the displacement is
    exactly orthogonal to V.
    """
    if radius <= 0:
        raise InputDomainError(f"radius must be positive, got {radius}")
    z = np.asarray(z, dtype=float)
    while True:
        u = rng.standard_normal(v.n)
        d = u - v.proj @ u
        norm = np.linalg.norm(d)
        if norm > 1e-12:
            break
    scale = rng.uniform(0.0, 1.0) or 0.5
    return z + (radius * scale / norm) * d


def agreement_precision(z, w) -> float:
    """Dyadic precision t = -log2 ||z - w|| up to which two points agree.

    Negative for pairs farther than 1 apart; +inf for identical points.
    """
    dist = float(np.linalg.norm(np.asarray(z, dtype=float)
                                - np.asarray(w, dtype=float)))
    if dist == 0.0:
        return math.inf
    return -math.log2(dist)
