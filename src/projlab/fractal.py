"""Self-similar set generators and empirical dimension estimators.

Attractors come from iterated function systems of pure contractions
(ratio * x + translation, no rotations).  Dimension is estimated by counting
occupied dyadic boxes on grids anchored at the origin, for one cloud
(:func:`box_dimension`) or for the projections of one cloud onto a stack of
frames, counted in batches (:func:`projected_dimensions`); the similarity
dimension from the Moran equation serves as the ground-truth oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, InputDomainError, ResourceBudgetError,
                     read_fields)

EXHAUSTIVE_BUDGET = 10**7
# normalize_unit_box collapses a coordinate whose range is at most this to 0.
DEGENERATE_SPAN = 1e-12
# Projected coordinates box-counted together: projected_dimensions stacks
# B directions of k x N coordinates with B * k * N at most this.
COUNT_BATCH_POINTS = 1 << 15

# Bit-length "compressors": deterministic byte-in / bits-out estimators.
Compressor = Callable[[bytes], float]


@dataclass(frozen=True)
class Similarity:
    """One contraction x -> ratio * x + translation."""

    ratio: float
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))
        if not (0.0 < self.ratio < 1.0):
            raise InputDomainError(f"contraction ratio must be in (0, 1), got {self.ratio}")
        if not np.isfinite(self.translation).all():
            raise InputDomainError(
                f"translation must be finite, got {self.translation.tolist()}")

    @property
    def fixed_point(self) -> np.ndarray:
        return self.translation / (1.0 - self.ratio)


@dataclass(frozen=True)
class IFSSpec:
    """A self-similar set description: ambient dimension plus contractions."""

    n: int
    maps: tuple
    label: Optional[str] = None

    def __post_init__(self):
        maps = tuple(m if isinstance(m, Similarity) else Similarity(*m)
                     for m in self.maps)
        object.__setattr__(self, "maps", maps)
        if len(maps) < 2:
            raise InputDomainError("an IFS needs at least 2 maps")
        for m in maps:
            if m.translation.shape != (self.n,):
                raise InputDomainError(
                    f"translation shape {m.translation.shape} does not match n={self.n}")

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "maps": [{"ratio": m.ratio, "translation": m.translation.tolist()}
                     for m in self.maps],
            "label": self.label,
        })

    @classmethod
    def from_json(cls, text) -> "IFSSpec":
        """The IFS of a JSON text or of its parsed object."""
        obj = json.loads(text) if isinstance(text, str) else text
        n, maps = read_fields(obj, {"n": int, "maps": list}, InputDomainError, "IFS JSON")
        casts = {"ratio": float, "translation": lambda t: np.asarray(t, dtype=float)}
        maps = [Similarity(*read_fields(m, casts, InputDomainError, f"IFS JSON map {i}"))
                for i, m in enumerate(maps)]
        return cls(n=n, maps=maps, label=obj.get("label"))


def cantor_middle_thirds() -> IFSSpec:
    return IFSSpec(n=1, maps=(Similarity(1 / 3, np.zeros(1)),
                              Similarity(1 / 3, np.array([2 / 3]))),
                   label="cantor-1/3")


def cantor_dust() -> IFSSpec:
    """C(1/3) x C(1/3) in the plane."""
    maps = tuple(Similarity(1 / 3, np.array([tx, ty]))
                 for tx in (0.0, 2 / 3) for ty in (0.0, 2 / 3))
    return IFSSpec(n=2, maps=maps, label="cantor-dust")


def cantor_on_axis() -> IFSSpec:
    """C(1/3) x {0} in the plane."""
    return IFSSpec(n=2, maps=(Similarity(1 / 3, np.zeros(2)),
                              Similarity(1 / 3, np.array([2 / 3, 0.0]))),
                   label="cantor-x-axis")


@dataclass(frozen=True)
class PointSample:
    """A finite point cloud approximating an IFS attractor."""

    points: np.ndarray
    depth: int
    source: IFSSpec = field(repr=False, default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.size == 0:
            raise InputDomainError("point sample must be nonempty")
        object.__setattr__(self, "points", pts)


def similarity_dimension(spec: IFSSpec) -> float:
    """The s >= 0 solving the Moran equation sum(r_i^s) = 1, by bisection."""
    ratios = np.array([m.ratio for m in spec.maps])

    def excess(s):
        return float(np.sum(ratios**s)) - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def generate(spec: IFSSpec, depth: int) -> PointSample:
    """Point cloud on the attractor: every length-``depth`` composition of
    the maps applied to the fixed point of the first map (m^depth points).

    Each level is written into one of two preallocated buffers, used in
    turn: map i of the m maps fills the i-th block of the next level with
    ``ratio * pts + translation``.
    """
    m = len(spec.maps)
    if depth < 0:
        raise InputDomainError(f"depth must be >= 0, got {depth}")
    if m**depth > EXHAUSTIVE_BUDGET:
        raise ResourceBudgetError(
            f"{m}^{depth} points exceed the exhaustive budget {EXHAUSTIVE_BUDGET}")
    # Level j lives in buffers[j % 2]; the last level fills `final`.
    final = np.empty((m**depth, spec.n))
    spare = np.empty((m**max(depth - 1, 0), spec.n))
    buffers = (final, spare) if depth % 2 == 0 else (spare, final)
    pts = buffers[0][:1]
    pts[0] = spec.maps[0].fixed_point
    for level in range(1, depth + 1):
        size = len(pts)
        out = buffers[level % 2][:m * size]
        for i, sim in enumerate(spec.maps):
            block = out[i * size:(i + 1) * size]
            np.multiply(pts, sim.ratio, out=block)
            block += sim.translation
        pts = out
    return PointSample(points=pts, depth=depth, source=spec)


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting regression: slope of log2(counts) against the dyadic
    scale exponent, with residual diagnostics."""

    value: float
    slope_stderr: float
    scales: tuple
    counts: tuple


def default_scale_hi(sample, scale_lo: int = 2) -> int:
    """Finest reliable dyadic scale exponent for a sample.

    For IFS samples the resolution is r_max^depth, so scales up to
    depth*log2(1/r_max) - 2 avoid saturation, capped at 18.  Bare point
    lists keep the conservative 8.
    """
    if isinstance(sample, PointSample) and sample.source is not None:
        r_max = max(m.ratio for m in sample.source.maps)
        hi = math.floor(sample.depth * math.log2(1.0 / r_max)) - 2
        return max(scale_lo + 2, min(18, hi))
    return max(scale_lo + 2, 8)


def _nested_cell_keys(clouds: np.ndarray, scale_lo: int,
                      scale_hi: int) -> tuple[np.ndarray, list[int]]:
    """Sortable int64 box keys at ``scale_hi`` of a (B, k, N) float64 stack
    of clouds, (B, N), and the bit length of each cloud's cell coordinates;
    see :func:`box_dimension`.  The cells are scaled and floored in
    ``clouds`` itself, whose rows per axis should be contiguous: numpy
    reduces (N, k) along axis 0 slowly."""
    k = clouds.shape[1]
    clouds *= 2.0**scale_hi
    np.floor(clouds, out=clouds)
    lo = clouds.min(axis=2)
    hi = clouds.max(axis=2)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InputDomainError("cannot box-count non-finite points")
    if lo.min() < -2.0**62 or hi.max() >= 2.0**62:
        raise ResourceBudgetError(
            f"coordinates up to {max(-lo.min(), hi.max()):.3g} boxes from the "
            f"origin exceed 62 bits at scale_hi={scale_hi}")
    step = scale_hi - scale_lo
    offset = (lo.astype(np.int64) >> step) << step
    bits = [int(v).bit_length() for v in (hi.astype(np.int64) - offset).max(axis=1)]
    if k * max(bits) > 63:
        raise ResourceBudgetError(
            f"box keys for k={k} at scale_hi={scale_hi} need {k} x {max(bits)} "
            "bits, over the 63-bit limit; lower scale_hi")
    cells = clouds.astype(np.int64)
    cells -= offset[:, :, None]
    if k == 1:
        return cells[:, 0], bits
    # Spreading to the widest cloud's length leaves narrower keys unchanged.
    _spread_bits(cells, max(bits), k)
    cells <<= np.arange(k)[:, None]
    return np.bitwise_or.reduce(cells, axis=1), bits


def _spread_bits(x: np.ndarray, bits: int, k: int) -> None:
    """Move bit i of each value in ``x`` (below 2^bits) to bit k*i, in place.

    Halving shifts: the step of width s moves every bit whose index has the
    s bit set by s*(k - 1) places, and the mask keeps each bit only where
    the steps so far have put it, i + (k - 1) * (i & ~(s - 1)).
    """
    s = 1 << max(bits - 1, 0).bit_length()
    while s > 1:
        s >>= 1
        x |= x << (s * (k - 1))
        x &= sum(1 << (i + (k - 1) * (i & ~(s - 1))) for i in range(bits))


def _box_counts(clouds: np.ndarray, scale_lo: int, scale_hi: int) -> np.ndarray:
    """Occupied boxes at scales 2^-scale_lo..2^-scale_hi of each cloud of a
    (B, k, N) float64 stack, as (B, scales) counts; see
    :func:`box_dimension`.  Works in place: ``clouds`` is scaled to cells."""
    k, size = clouds.shape[1:]
    keys, bits = _nested_cell_keys(clouds, scale_lo, scale_hi)
    space = 1 << (k * max(bits))
    if space <= size:
        jumps = [row[1:] ^ row[:-1] for row in _occupied_keys(keys, space)]
    else:
        keys.sort(axis=1)
        jumps = keys[:, 1:] ^ keys[:, :-1]
    counts = np.ones((len(keys), scale_hi - scale_lo + 1), dtype=np.int64)
    # One 1-d count per cloud and scale: counting along an axis sums bools,
    # which is slower than counting a flat array.
    for row, width, out in zip(jumps, bits, counts):
        for s, shift in enumerate(range(k * (scale_hi - scale_lo), -1, -k)):
            if shift < k * width:
                out[s] += np.count_nonzero(row >= 1 << shift)
    return counts


def _occupied_keys(keys: np.ndarray, space: int) -> list[np.ndarray]:
    """The sorted distinct keys of each row of a (B, N) array of keys below
    ``space``, read off a boolean occupancy array of the key space."""
    distinct = []
    for row in keys:
        occupied = np.zeros(space, dtype=bool)
        occupied[row] = True
        distinct.append(np.flatnonzero(occupied))
    return distinct


def _scales(scale_lo: int, scale_hi: int) -> list[int]:
    if scale_lo >= scale_hi:
        raise InputDomainError("need scale_lo < scale_hi")
    scales = list(range(scale_lo, scale_hi + 1))
    if len(scales) < 3:
        raise InputDomainError("need at least 3 scales")
    return scales


def _fit(scales: list[int], counts: np.ndarray) -> DimensionEstimate:
    """Least-squares slope of log2(counts) against the scale exponents."""
    x = np.asarray(scales, dtype=float)
    y = np.log2(counts.astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(residuals @ residuals) / dof / sxx) if dof > 0 else 0.0
    return DimensionEstimate(value=float(slope), slope_stderr=stderr,
                             scales=tuple(scales), counts=tuple(counts.tolist()))


def box_dimension(sample, scale_lo: int = 2,
                  scale_hi: Optional[int] = None) -> DimensionEstimate:
    """Least-squares box-counting dimension over dyadic scales 2^-j.

    Boxes are anchored at the origin; a point on a box boundary belongs to
    the box whose lower edge it lies on, so counts are deterministic.
    ``scale_hi`` defaults to :func:`default_scale_hi` of the sample.

    All scales are counted from one ordered list of the occupied cells at
    ``scale_hi`` (Liebovitch & Toth, Phys. Lett. A 141, 1989).  Dyadic grids
    nest: scaling by 2^j is exact in float64, so floor(x 2^j) ==
    floor(x 2^scale_hi) >> (scale_hi - j).  Each point gets one integer key
    at ``scale_hi``: its cell for k = 1, or the Morton (Z-order) interleave
    of its k cell coordinates, so that the key of the enclosing box at scale
    j is key >> k(scale_hi - j).  Cells are first shifted by a per-axis
    offset that is a multiple of 2^(scale_hi - scale_lo), which keeps every
    coarser box whole.  In the ordered keys, two neighbours lie in different
    boxes at scale j exactly when their XOR reaches 2^(k(scale_hi - j)).

    The keys are ordered in one of two ways, with the same counts.  When the
    key space, 2^(k x bit length of the shifted cells), holds no more cells
    than the cloud has points, each key marks its cell in a boolean
    occupancy array of that space, and the marked cells are the sorted
    distinct keys: O(N + 2^(k bits)) work, and repeated keys would only add
    zero jumps.  Otherwise the N keys are sorted.

    Keys are int64, so k times the bit length of the shifted cells must not
    exceed 63, and cells at ``scale_hi`` must lie within 2^62 boxes of the
    origin; a wider grid raises :class:`ResourceBudgetError`.

    This is the one-cloud case of :func:`projected_dimensions`' counter.
    """
    if scale_hi is None:
        scale_hi = default_scale_hi(sample, scale_lo)
    pts = sample.points if isinstance(sample, PointSample) else np.asarray(sample, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise InputDomainError("cannot box-count an empty point set")
    scales = _scales(scale_lo, scale_hi)
    clouds = np.array(pts.T[None], order="C")
    return _fit(scales, _box_counts(clouds, scale_lo, scale_hi)[0])


def projected_dimensions(points: np.ndarray, frames: np.ndarray, scale_lo: int,
                         scale_hi: int, map_batches=map) -> list[DimensionEstimate]:
    """Box dimension of an (N, n) point cloud projected onto each frame of
    a (D, n, k) stack.  Each projection is rescaled into the unit box, which
    makes the estimate invariant to the direction-dependent diameter of the
    projected set.

    Per frame this is ``box_dimension(normalize_unit_box(points @ frame))``.
    Frames are taken in batches of B with B * k * N at most
    ``COUNT_BATCH_POINTS`` (at least one frame per batch), and each batch is
    projected, then rescaled and scaled to ``scale_hi`` cells in place, keyed,
    ordered and counted as one (B, k, N) stack.  The keys are ordered by an
    occupancy array when the batch's key space holds no more cells than N,
    and sorted otherwise (see :func:`box_dimension`).
    ``map_batches(fn, batches)`` runs the batches, in order (``map`` or a
    thread pool's ``map``); the slope is still fitted one frame at a time.
    """
    scales = _scales(scale_lo, scale_hi)
    size = max(1, COUNT_BATCH_POINTS // (len(points) * frames.shape[2]))

    def run(batch: np.ndarray) -> list[DimensionEstimate]:
        clouds = _unit_box_rows(batch.swapaxes(1, 2) @ points.T)
        return [_fit(scales, c)
                for c in _box_counts(clouds, scale_lo, scale_hi)]

    batches = [frames[i:i + size] for i in range(0, len(frames), size)]
    return [est for ests in map_batches(run, batches) for est in ests]


def normalize_unit_box(points) -> np.ndarray:
    """Affinely rescale each coordinate into [0, 1]; coordinates whose range
    is at most ``DEGENERATE_SPAN`` collapse to 0 (dimension-neutral for the
    rest).
    A non-finite coordinate raises :class:`InputDomainError`.

    The result is the transpose of a contiguous (k, N) array, one row per
    coordinate: numpy reduces a narrow (N, k) array along axis 0 slowly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return _unit_box_rows(np.array(pts.T, order="C")).T


def _unit_box_rows(rows: np.ndarray) -> np.ndarray:
    """Rescale each length-N row of a (..., N) array into [0, 1], in place;
    rows whose range is at most ``DEGENERATE_SPAN`` become 0."""
    lo = rows.min(axis=-1, keepdims=True)
    span = rows.max(axis=-1, keepdims=True) - lo
    # A NaN or infinite coordinate gives a NaN or infinite span, which must
    # not read as a degenerate row.
    if not np.isfinite(span).all():
        raise InputDomainError("cannot rescale non-finite points into the unit box")
    live = span > DEGENERATE_SPAN
    rows -= lo
    rows /= np.where(live, span, 1.0)
    rows[~live[..., 0]] = 0.0
    return rows


def null_compressor(data: bytes) -> float:
    """Identity length in bits; calibration baseline."""
    return 8.0 * len(data)


def kt_compressor(data: bytes) -> float:
    """Order-0 Krichevsky-Trofimov code length of the bit string, in bits.

    An ideal arithmetic code under the KT estimator: near 1 bit/bit on
    incoherent input, O(log n) total on constant input, with none of the
    container overhead general-purpose compressors pay on tiny payloads.
    The sequential KT probabilities multiply out to a closed form in the
    bit count n and the count of ones a,
    -log2 P = (ln Gamma(n+1) + ln pi - ln Gamma(a+1/2) - ln Gamma(n-a+1/2)) / ln 2,
    so only the ones are counted.
    """
    if not data:
        return 0.0
    n = 8 * len(data)
    a = int(np.unpackbits(np.frombuffer(data, dtype=np.uint8)).sum())
    return (math.lgamma(n + 1) + math.log(math.pi) - math.lgamma(a + 0.5)
            - math.lgamma(n - a + 0.5)) / math.log(2.0)


def _truncate_bits(points: np.ndarray, r: int) -> bytes:
    """Fixed-point binary truncation to r dyadic digits per coordinate,
    concatenated coordinate-major and packed into bytes."""
    levels = np.floor(points * float(2**r)).astype(np.uint64)
    levels = np.minimum(levels, 2**r - 1)
    shifts = np.arange(r - 1, -1, -1, dtype=np.uint64)
    bits = (levels.T[:, :, None] >> shifts) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8)).tobytes()


def complexity_profile(x, r_max: int,
                       compressor: Compressor = kt_compressor) -> list[tuple[int, float, float]]:
    """Heuristic compression profile: (r, K_hat_r, K_hat_r / r) for r <= r_max.

    The input is truncated to r dyadic digits per coordinate after affine
    normalization into [0, 1): fractional parts for a single vector, min-max
    scaling for a point list.  Raw profile only; no liminf is claimed.
    """
    if r_max > 64:
        raise InputDomainError(f"r_max must be <= 64, got {r_max}")
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if not np.isfinite(pts).all():
            raise InputDomainError("cannot profile a non-finite vector")
        pts = pts[None, :]
        pts = pts - np.floor(pts)
    else:
        pts = np.clip(normalize_unit_box(pts), 0.0, np.nextafter(1.0, 0.0))
    profile = []
    for r in range(1, r_max + 1):
        k_hat = float(compressor(_truncate_bits(pts, r)))
        profile.append((r, k_hat, k_hat / r))
    return profile


def export_sample(sample: PointSample, path) -> None:
    """Write points as little-endian float64 rows plus a JSON sidecar."""
    path = Path(path)
    path.write_bytes(sample.points.astype("<f8").tobytes())
    sidecar = {"n": int(sample.points.shape[1]),
               "count": int(sample.points.shape[0]),
               "depth": int(sample.depth)}
    path.with_suffix(".json").write_text(json.dumps(sidecar))


def load_sample(path) -> PointSample:
    path = Path(path)
    try:
        sidecar = json.loads(path.with_suffix(".json").read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sample {path}: sidecar is not valid JSON: {exc}") from exc
    count, n, depth = read_fields(sidecar, dict.fromkeys(("count", "n", "depth"), int),
                                  ConfigError, f"sample {path} sidecar")
    raw = path.read_bytes()
    if len(raw) != 8 * count * n:
        raise ConfigError(
            f"sample {path}: file holds {len(raw)} bytes, but its sidecar's "
            f"count={count} x n={n} float64 values need {8 * count * n}")
    pts = np.frombuffer(raw, dtype="<f8").reshape(count, n)
    return PointSample(points=pts, depth=depth)
