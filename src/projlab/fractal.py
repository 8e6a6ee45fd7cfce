"""Self-similar set generators and empirical dimension estimators.

Attractors come from iterated function systems of pure contractions
(ratio * x + translation, no rotations).  Dimension is estimated by counting
occupied dyadic boxes on grids anchored at the origin, for one cloud
(:func:`box_dimension`) or for the projections onto a stack of frames of a
:class:`TiledSample`, a cloud given as the similarity images of one base
tile (:func:`tiled_sample`), counted in batches
(:func:`projected_dimensions`); the similarity dimension from the Moran
equation serves as the ground-truth oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, InputDomainError, ResourceBudgetError,
                     integer, integer_argument, parse_json, read_fields, real)

# The most points generate() makes, and the most that a sweep or scan counts.
# A sweep or scan never holds them: it counts their word images of one base
# tile (tiled_sample), so for them the budget bounds work, not memory.
EXHAUSTIVE_BUDGET = 10**7
# normalize_unit_box collapses a coordinate whose range is at most this to 0.
DEGENERATE_SPAN = 1e-12
# Projected coordinates box-counted together: projected_dimensions stacks
# B directions of k x N coordinates with B * k * N at most this, where N
# is the base tile's points when the counter marks occupancy.
# tiled_sample cuts a larger sample into base tiles that fit it.
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
        # Twice the attractor's radius about the origin, which bounds every
        # span of the sample, of its projections and of its word offsets.
        # math.hypot does not overflow where the Euclidean norm fits.
        shift = max(math.hypot(*m.translation) for m in maps)
        if not math.isfinite(2.0 * shift / (1.0 - max(m.ratio for m in maps))):
            raise InputDomainError(
                f"translations up to {shift:.3g} in norm give an attractor "
                "wider than float64 holds")
        if not isinstance(self.label, (str, type(None))):
            raise InputDomainError(f"label must be a string or null, got {self.label!r}")

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
        obj = parse_json(text, InputDomainError, "IFS JSON")
        n, maps = read_fields(obj, {"n": integer, "maps": list}, InputDomainError, "IFS JSON")
        casts = {"ratio": real, "translation": lambda t: np.array([real(x) for x in t])}
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
        pts = _as_points(self.points)
        if pts.size == 0:
            raise InputDomainError("point sample must be nonempty")
        object.__setattr__(self, "points", pts)


def _as_points(points) -> np.ndarray:
    """A float array of points, one per row; a 1-d array is one column.
    Any other rank than 1 or 2 raises :class:`InputDomainError`."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise InputDomainError(
            f"need a vector or an (N, k) point array, got shape {pts.shape}")
    return pts[:, None] if pts.ndim == 1 else pts


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

    Levels are built coordinate-major, in (n, m^level) arrays, and the last
    is returned transposed: ``points`` is the (N, n) view of a contiguous
    (n, N) array, so ``points.T`` needs no copy.  Each level is written into
    one of two preallocated buffers, used in turn: map i of the m maps fills
    the i-th column block of the next level with ``ratio * pts +
    translation``, which adds one scalar to each contiguous coordinate row.
    A ``depth`` that is not an integer >= 0 raises :class:`InputDomainError`.
    """
    m, depth = len(spec.maps), _sample_depth(spec, depth)
    # Level j lives in buffers[j % 2]; the last level fills `final`.
    final = np.empty((spec.n, m**depth))
    spare = np.empty((spec.n, m**max(depth - 1, 0)))
    buffers = (final, spare) if depth % 2 == 0 else (spare, final)
    pts = buffers[0][:, :1]
    pts[:, 0] = spec.maps[0].fixed_point
    for level in range(1, depth + 1):
        size = pts.shape[1]
        out = buffers[level % 2][:, :m * size]
        for i, sim in enumerate(spec.maps):
            block = out[:, i * size:(i + 1) * size]
            np.multiply(pts, sim.ratio, out=block)
            block += sim.translation[:, None]
        pts = out
    return PointSample(points=pts.T, depth=depth, source=spec)


def _sample_depth(spec: IFSSpec, depth) -> int:
    """``depth`` as an integer, checked for a sample of ``spec``: one that
    is not an integer >= 0 raises :class:`InputDomainError`, and one whose
    m^depth points exceed ``EXHAUSTIVE_BUDGET`` :class:`ResourceBudgetError`."""
    m, depth = len(spec.maps), integer_argument("depth", depth)
    if depth < 0:
        raise InputDomainError(f"depth must be >= 0, got {depth}")
    # min(): m >= 2 and 2^64 exceeds the budget, so a huge depth needs no huge power.
    if m ** min(depth, 64) > EXHAUSTIVE_BUDGET:
        raise ResourceBudgetError(
            f"{m}^{depth} sample points exceed the exhaustive budget {EXHAUSTIVE_BUDGET}")
    return depth


@dataclass(frozen=True)
class TiledSample:
    """A point cloud given as the images of one (N0, n) base tile under W
    similarities x -> ratios[w] * x + offsets[w] (the words), in word
    order: W * N0 points, which nothing materializes.  A plain cloud is the
    one identity word, of ratio 1 and offset 0.

    A base that is not a nonempty (N0, n) array, ratios that are not a
    (W,) array with W >= 1, offsets that are not (W, n), or a ratio below 0
    raise :class:`InputDomainError`: the counter takes each image's bounds
    from the base's, which holds only for ratios >= 0.  Non-finite values
    are left to the counter, which refuses them."""

    base: np.ndarray
    ratios: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("base", "ratios", "offsets"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        base, ratios, offsets = self.base, self.ratios, self.offsets
        if (base.ndim != 2 or base.size == 0 or ratios.ndim != 1 or ratios.size == 0
                or offsets.shape != (len(ratios), base.shape[1])):
            raise InputDomainError(
                f"need a nonempty (N0, n) base tile, (W,) ratios and (W, n) "
                f"offsets, got shapes {base.shape}, {ratios.shape} and {offsets.shape}")
        if (ratios < 0.0).any():
            raise InputDomainError(f"word ratios must be >= 0, got {float(ratios.min())}")


def tiled_sample(spec: IFSSpec, depth: int, k: int) -> TiledSample:
    """The sample ``generate(spec, depth)`` as the images of the base tile
    ``generate(spec, depth - p)`` under the m^p words T_w = T_w1 o ... o
    T_wp of length p, for the least p with k * m^(depth - p) at most
    ``COUNT_BATCH_POINTS`` (p = 0, one identity word, when the whole sample
    fits), so that :func:`projected_dimensions` counts k-plane projections
    tile by tile.

    A self-similar sample is the union of the images of its base under the
    words (Hutchinson, Indiana Univ. Math. J. 30, 1981), and generate's
    levels put word w's block at w * N0, with w1 the most significant digit.
    Word images agree with ``generate``'s points to a few ulps, not bit for
    bit: generate applies the maps one at a time.  The words are generate's
    recursion run on (ratio, offset) from the identity (1, 0).  A depth that
    :func:`generate` refuses is refused alike.
    """
    depth = _sample_depth(spec, depth)
    m, p = len(spec.maps), 0
    while p < depth and k * m ** (depth - p) > COUNT_BATCH_POINTS:
        p += 1
    ratios, offsets = np.ones(1), np.zeros((1, spec.n))
    for _ in range(p):
        ratios = np.concatenate([sim.ratio * ratios for sim in spec.maps])
        offsets = np.concatenate([sim.ratio * offsets + sim.translation for sim in spec.maps])
    return TiledSample(generate(spec, depth - p).points, ratios, offsets)


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
    lists keep the conservative 8.  A ``scale_lo`` that is not an integer
    raises :class:`InputDomainError`.
    """
    scale_lo = integer_argument("scale_lo", scale_lo)
    if isinstance(sample, PointSample) and sample.source is not None:
        r_max = max(m.ratio for m in sample.source.maps)
        hi = math.floor(sample.depth * math.log2(1.0 / r_max)) - 2
        return max(scale_lo + 2, min(18, hi))
    return max(scale_lo + 2, 8)


def _spread_bits(x: np.ndarray, bits: int, k: int) -> None:
    """Move bit i of each value in ``x`` (below 2^bits) to bit k*i, in place.

    Halving shifts: the step of width s moves every bit whose index has the
    s bit set by s*(k - 1) places, and the mask keeps each bit only where
    the steps so far have put it, i + (k - 1) * (i & ~(s - 1)).  Every step
    shifts into one buffer the size of ``x``, allocated once per call.
    """
    s = 1 << max(bits - 1, 0).bit_length()
    shifted = np.empty_like(x)
    while s > 1:
        s >>= 1
        np.left_shift(x, s * (k - 1), out=shifted)
        x |= shifted
        x &= sum(1 << (i + (k - 1) * (i & ~(s - 1))) for i in range(bits))


def _morton_keys(cells: np.ndarray, bits: int) -> np.ndarray:
    """The (B, M) keys of a (B, k, M) stack of cells below 2^bits: the cell
    for k = 1, the Morton (Z-order) interleave of the k coordinates for
    k >= 2, built in place in ``cells``."""
    k = cells.shape[1]
    if k == 1:
        return cells[:, 0]
    _spread_bits(cells, bits, k)
    cells <<= np.arange(k, dtype=cells.dtype)[:, None]
    return np.bitwise_or.reduce(cells, axis=1)


def _box_counts(tiles, clouds: int, k: int, bits: int, size: int, scale_lo: int,
                scale_hi: int) -> np.ndarray:
    """(clouds, scales) occupied-box counts at scales 2^-scale_lo..2^-scale_hi
    of a (clouds, k, size) stack of cells at ``scale_hi``, which the caller
    keeps in [0, 2^bits), given as tiles: (clouds, k, M) slices of its
    points, each keyed in place.

    All scales are counted from one ordered list of the occupied cells at
    ``scale_hi`` (Liebovitch & Toth, Phys. Lett. A 141, 1989).  Dyadic grids
    nest: scaling by 2^j is exact in float64, so floor(x 2^j) ==
    floor(x 2^scale_hi) >> (scale_hi - j).  Each point gets one integer key
    at ``scale_hi``: its cell for k = 1, or the Morton (Z-order) interleave
    of its k cell coordinates, so that the key of the enclosing box at scale
    j is key >> k(scale_hi - j).  In the ordered keys, two neighbours lie in
    different boxes at scale j exactly when their XOR reaches
    2^(k(scale_hi - j)), so one histogram of the XORs' bit lengths gives the
    count at every scale.  A bit length is read off the exponent field of
    the XOR's float64 cast, which is exact for every int32 and corrected
    where an int64 XOR of 2^53 or more rounds up.

    When the key space, 2^(k x bits) cells, holds no more cells than
    ``size``, each tile's keys mark their cells in a boolean occupancy
    array, whose marked cells are each cloud's sorted distinct keys
    (repeated keys would only have added zero jumps), and the tiles may be
    of any integer dtype and any number of points.  Otherwise the one tile,
    which must hold all ``size`` points, is sorted.  Both give the same
    counts.  Checks nothing.
    """
    space = 1 << (k * bits)
    keys = (_morton_keys(tile, bits) for tile in tiles)
    if space <= size:
        distinct = _occupied_keys(keys, clouds, space)
        jumps = [row[1:] ^ row[:-1] for row in distinct]
        cloud = np.repeat(np.arange(clouds), [len(row) for row in jumps])
        return _jump_counts(np.concatenate(jumps), cloud, clouds, k, scale_lo, scale_hi)
    [keys] = keys
    keys.sort(axis=1)
    return _jump_counts(keys[:, 1:] ^ keys[:, :-1], np.arange(clouds)[:, None],
                        clouds, k, scale_lo, scale_hi)


def _occupied_keys(tiles, clouds: int, space: int) -> list[np.ndarray]:
    """The sorted distinct keys of each of ``clouds`` clouds of keys below
    ``space``, which come in (clouds, M) tiles, read off a boolean occupancy
    array of the key space that each tile marks in turn."""
    occupied = np.zeros((clouds, space), dtype=bool)
    for keys in tiles:
        for cells, row in zip(occupied, keys):
            cells[row] = True
    return [np.flatnonzero(cells) for cells in occupied]


def _jump_counts(jumps: np.ndarray, cloud: np.ndarray, clouds: int, k: int,
                 scale_lo: int, scale_hi: int) -> np.ndarray:
    """(clouds, scales) box counts from the jumps, the XORs of neighbouring
    ordered keys, of k-axis clouds; ``cloud`` is each jump's cloud index, or
    broadcasts to it.  A scale of key shift s counts 1 + the jumps longer
    than s bits."""
    # 65 bins per cloud for bit lengths 0..64 (none reaches 64, as k * bits <= 63);
    # longer[:, t] counts the jumps longer than t bits, for t = 0..63.
    lengths = _bit_lengths(jumps)
    lengths += 65 * cloud
    hist = np.bincount(lengths.ravel(), minlength=65 * clouds)
    longer = hist.reshape(-1, 65)[:, :0:-1].cumsum(axis=1)[:, ::-1]
    return 1 + longer[:, np.minimum(np.arange(k * (scale_hi - scale_lo), -1, -k), 63)]


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each entry of a non-negative int32 or int64
    array, as int64: the exponent field of its float64 cast, less 1022
    (1.0 has field 1023), clamped at 0 (0.0 has field 0)."""
    e = x.astype(np.float64).view(np.int64)
    e >>= 52
    e -= 1022
    np.maximum(e, 0, out=e)
    # The float cast is exact below 2^53, so for every int32.  Above, it can
    # round 2^m - 1 up to 2^m: step back where x < 2^(e - 1), a power of two
    # that uint64 holds.
    if x.dtype == np.int64 and np.max(x, initial=0) >= 1 << 53:
        e -= x.view(np.uint64) < np.ldexp(1.0, e - 1).astype(np.uint64)
    return e


def _scales(scale_lo: int, scale_hi: int) -> list[int]:
    """The scale exponents scale_lo..scale_hi of a box count: at least 3
    integers from 0 up, or :class:`InputDomainError`.  Each scale below 0
    counts one box for a sample in the unit box, and so reads a silently
    low dimension."""
    scale_lo = integer_argument("scale_lo", scale_lo)
    scale_hi = integer_argument("scale_hi", scale_hi)
    if scale_lo < 0:
        raise InputDomainError(f"scale_lo must be >= 0, got {scale_lo} (scale_hi={scale_hi})")
    if scale_hi < scale_lo + 2:
        raise InputDomainError(
            f"need at least 3 scales, got scale_lo={scale_lo}, scale_hi={scale_hi}")
    return list(range(scale_lo, scale_hi + 1))


def _fit_table(scales: list[int], counts: np.ndarray) -> list[DimensionEstimate]:
    """Closed-form least-squares slope of log2(counts) against the scales,
    per row of a (D, scales) count table.  Only elementwise operations and
    row sums touch the table, so a row's bits do not depend on other rows.
    The sums run on a C-ordered copy: numpy sums the rows of a
    Fortran-ordered table, as the box counter can return, in another order."""
    xc = np.asarray(scales, dtype=float)
    # Integer scales: the centred scales and sxx are exact.
    xc -= xc.mean()
    sxx = float(np.sum(xc * xc))
    y = np.log2(counts.astype(float, order="C"))
    # Shifted by the first value, a constant row fits 0.0 and 0.0 exactly.
    y -= y[:, :1]
    slope = (y * xc).sum(axis=1) / sxx
    residuals = y - slope[:, None] * xc
    residuals -= residuals.mean(axis=1, keepdims=True)
    stderr = np.sqrt((residuals * residuals).sum(axis=1) / (len(scales) - 2) / sxx)
    return [DimensionEstimate(value=v, slope_stderr=e, scales=tuple(scales), counts=tuple(c))
            for v, e, c in zip(slope.tolist(), stderr.tolist(), counts.tolist())]


def _key_dtype(k: int, bits: int, scale_hi: int) -> type:
    """The dtype of box keys of k x bits bits: ``np.int32`` up to 31 bits,
    ``np.int64`` up to 63; wider keys raise :class:`ResourceBudgetError`."""
    if k * bits > 63:
        raise ResourceBudgetError(
            f"box keys for k={k} at scale_hi={scale_hi} need {k} x {bits} "
            "bits, over the 63-bit limit; lower scale_hi")
    return np.int32 if k * bits <= 31 else np.int64


def _unit_box_key(k: int, scale_hi: int) -> tuple[int, type]:
    """The bits per axis and :func:`_key_dtype` of k-axis unit-box keys at
    ``scale_hi``: the closed box's far edge lands in cell 2^scale_hi."""
    bits = scale_hi + 1
    return bits, _key_dtype(k, bits, scale_hi)


def box_dimension(sample, scale_lo: int = 2,
                  scale_hi: Optional[int] = None) -> DimensionEstimate:
    """Least-squares box-counting dimension over dyadic scales 2^-j.

    Boxes are anchored at the origin; a point on a box boundary belongs to
    the box whose lower edge it lies on, so counts are deterministic.
    ``scale_hi`` defaults to :func:`default_scale_hi` of the sample.  The
    cloud's cells at ``scale_hi``, shifted by a per-axis offset that is a
    multiple of 2^(scale_hi - scale_lo) (which keeps every coarser box
    whole), go to :func:`_box_counts` as one tile, and :func:`_fit_table`
    fits the counts.  The tile holds int64 cells when the key space, 2^(k
    x bits) cells, holds no more cells than N (occupancy scatters intp keys
    without a conversion), and :func:`_key_dtype` cells otherwise (the sort
    path sorts int32 keys faster).

    This is the one entry that counts outside points, so it checks them
    for the counter it shares with :func:`projected_dimensions`: an input
    of another rank than 1 or 2 or a non-finite point raises
    :class:`InputDomainError`, and cells beyond 2^62 boxes from the origin
    or keys over 63 bits (k x the bit length of the shifted cells) raise
    :class:`ResourceBudgetError`.
    """
    if scale_hi is None:
        scale_hi = default_scale_hi(sample, scale_lo)
    pts = _as_points(sample.points if isinstance(sample, PointSample) else sample)
    if pts.size == 0:
        raise InputDomainError("cannot box-count an empty point set")
    scales = _scales(scale_lo, scale_hi)
    # One contiguous row per axis: numpy reduces (N, k) along axis 0 slowly.
    cells = np.array(pts.T, order="C")
    cells *= 2.0**scale_hi
    np.floor(cells, out=cells)
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InputDomainError("cannot box-count non-finite points")
    if lo.min() < -2.0**62 or hi.max() >= 2.0**62:
        raise ResourceBudgetError(
            f"coordinates up to {max(-lo.min(), hi.max()):.3g} boxes from the "
            f"origin exceed 62 bits at scale_hi={scale_hi}")
    step = scale_hi - scale_lo
    offset = (lo.astype(np.int64) >> step) << step
    bits = int((hi.astype(np.int64) - offset).max()).bit_length()
    dtype = _key_dtype(len(cells), bits, scale_hi)
    cells = cells.astype(np.int64)
    cells -= offset[:, None]
    if 1 << (len(cells) * bits) > len(pts):
        cells = cells.astype(dtype, copy=False)
    return _fit_table(scales, _box_counts([cells[None]], 1, len(cells), bits, len(pts),
                                          scale_lo, scale_hi))[0]


def projected_dimensions(sample: TiledSample, frames: np.ndarray, scale_lo: int,
                         scale_hi: int) -> list[DimensionEstimate]:
    """Box dimension of a tiled sample of N = W * N0 points projected onto
    each frame of a (D, n, k) stack, counted one word image at a time.  Each
    projection is rescaled into the unit box, which makes the estimate
    invariant to the direction-dependent diameter of the projected set.

    Per frame this is ``box_dimension(normalize_unit_box(cloud @ frame))``
    with the projection taken before the words: word w's block of it is
    fl(fl(r_w * (base @ frame)) + offsets[w] @ frame).  Frames are taken in
    batches of B, at least one, with B * k * N0 at most
    ``COUNT_BATCH_POINTS`` when the key space, 2^(k (scale_hi + 1)) cells,
    holds no more cells than N (the occupancy path) and B * k * N otherwise
    (the sort path).  Each batch projects the base into float64 rows and
    the word offsets into shifts.  A row's bounds lo and hi are those of
    the union of its word images: rounding is monotone and every ratio is
    >= 0, so the bounds of an image are the images of the row's bounds, bit
    for bit.  One kernel, :func:`_image_cells`, turns every image into
    cells with one division, less lo, by span * 2^-scale_hi (inf where the
    span is at most ``DEGENERATE_SPAN``, giving cells 0): scaling by a
    power of two is exact and the division correctly rounded, so the
    quotient is the rescaled coordinate times 2^scale_hi, bit for bit.  The
    row maximum maps to 2^scale_hi, so the keys need scale_hi + 1 bits per
    axis and no offset.  The one identity word (a plain cloud) skips the
    multiply-add: its image less lo is taken in place in the rows.

    On the occupancy path, :func:`_box_counts` marks tiles of cells.  For
    lines (k = 1) of a sample of real words, each batch's rows are sorted
    in place once their grid is found, and :func:`_line_cells` reads each
    word image's cells off the sorted rows: a cell trunc((fl(fl(r_w x) +
    c_w) - lo) / width) is monotone non-decreasing in x, as r_w >= 0,
    width > 0 and rounding is monotone, so the cells of one image along a
    sorted row do not decrease.  Computed at the ends of blocks of the row,
    they leave out no cell of a block whose ends differ by at most 1, and
    only the other blocks, where a gap of the projected set spans a cell,
    are computed point by point.  The marked cells are those of every
    point, bit for bit, from a fraction of the cells (1 in 15 on lines of
    the 4^10-point dust at scale 13).  For planes (k >= 2), whose Morton
    keys follow no one sort order, and for the identity word, whose one
    image the sort would not repay, each word image is one (B, k, N0) intp
    tile, marked point by point.  On the sort path :func:`_box_counts`
    sorts one (B, k, W * N0) tile of :func:`_key_dtype` cells that holds
    every image, one block per word.  One :func:`_fit_table` fits all
    counts.  The rows, the images and the tile are allocated once per call,
    as large as the largest batch, and nothing is kept between calls.

    k * (scale_hi + 1) > 63 raises :class:`ResourceBudgetError` before
    anything is projected.  A non-finite coordinate and frames that are not
    a nonempty (D, n, k) stack raise :class:`InputDomainError`.
    """
    base, ratios, offsets = sample.base, sample.ratios, sample.offsets
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1] != base.shape[1] or frames.size == 0:
        raise InputDomainError(
            f"need a nonempty (D, n, k) frame stack for n={base.shape[1]}, got shape "
            f"{frames.shape}")
    identity = ratios.tolist() == [1.0] and not offsets.any()
    scales = _scales(scale_lo, scale_hi)
    base_count, k = len(base), frames.shape[2]
    count = len(ratios) * base_count
    bits, dtype = _unit_box_key(k, scale_hi)
    occupancy = 1 << (k * bits) <= count
    lines = k == 1 and occupancy and not identity
    size = max(1, COUNT_BATCH_POINTS // (k * (base_count if occupancy else count)))
    # One contiguous (n, N0) operand for every batch's product; the transpose
    # of a generate() sample already is one.
    coords = np.ascontiguousarray(base.T)

    # Reused by every batch, which writes each row and tile entry before
    # reading it: allocating each batch afresh counts slower.  The identity
    # word's image is computed in place in the rows.
    shape = (min(size, len(frames)), k, base_count)
    all_rows = np.empty(shape)
    images = all_rows if identity else np.empty(shape)
    tile = (np.empty(shape, dtype=np.intp) if occupancy
            else np.empty((*shape[:2], count), dtype=dtype))

    counts = []
    for batch in (frames[i:i + size] for i in range(0, len(frames), size)):
        rows = np.matmul(batch.swapaxes(1, 2), coords, out=all_rows[:len(batch)])
        shifts = None if identity else np.matmul(batch.swapaxes(1, 2), offsets.T)
        lo, width = _unit_box_grid(rows, scale_hi, ratios, shifts)
        keys, image = tile[:len(batch)], images[:len(batch)]
        words = zip(ratios.tolist(), [None] if identity else shifts.transpose(2, 0, 1)[..., None])
        if lines:
            tiles = _line_cells(rows[:, 0], ratios, shifts[:, 0], lo, width,
                                images.reshape(-1), tile.reshape(-1))
        elif occupancy:
            tiles = (_image_cells(rows, ratio, shift, lo, width, image, keys)
                     for ratio, shift in words)
        else:
            for j, (ratio, shift) in zip(range(0, count, base_count), words):
                _image_cells(rows, ratio, shift, lo, width, image, keys[..., j:j + base_count])
            tiles = [keys]
        counts.append(_box_counts(tiles, len(batch), k, bits, count, scale_lo, scale_hi))
    return _fit_table(scales, np.concatenate(counts))


def _image_cells(x, ratio, shift, lo, width, image, out):
    """The cells trunc((fl(fl(ratio x) + shift) - lo) / width) of points
    ``x`` under one word, or trunc((x - lo) / width) when ``shift`` is None
    (the identity word): the image less lo is computed in ``image``, which
    may be ``x`` itself, and its quotient by width is cast into ``out``.
    The image less lo is non-negative, so the integer cast floors it."""
    if shift is None:
        np.subtract(x, lo, out=image)
    else:
        np.multiply(x, ratio, out=image)
        image += shift
        image -= lo
    return np.divide(image, width, casting="unsafe", out=out)


def _line_cells(rows, ratios, shifts, lo, width, floats, cells):
    """The cells at ``scale_hi`` that the word images of a (B, N0) stack of
    projected rows occupy on a line, as (B, 1, M) tiles for
    :func:`_occupied_keys`, read off the rows sorted in place.  The words
    are real ones, with (B, W) ``shifts``: the one identity word of a plain
    cloud is marked point by point instead.

    Word w's cell of x is trunc((fl(fl(r_w x) + shifts[:, w]) - lo) /
    width), and each step is monotone non-decreasing in x: r_w >= 0, width
    > 0 (or inf), and rounding is monotone.  So on a sorted row the cells of
    one image do not decrease, and a block of the row between two points
    whose cells differ by at most 1 holds no other cell.  The cells are
    computed at every ``stride``-th point and the row's last (the block
    ends), and only a block whose ends differ by 2 or more, where a gap of
    the projected set spans a cell, is computed point by point: the stride
    - 1 points after its first end, which cover the points inside it.  The
    marked cells are those of every point, bit for bit.  The stride is the
    largest power of two at most half of the mean points per cell of the
    widest image, N0 width / (r_max span), in the batch's sparsest row, and
    at most N0 - 1.

    The words come in chunks whose end cells fill the (B x N0-sized)
    ``floats`` and ``cells`` workspaces, and the blocks to refine in slices
    that fill them; the ends' jumps reuse ``floats`` as intp once their
    cells are cast.  Every cell comes from :func:`_image_cells`, through
    :func:`_line_image_cells`.  Each tile must be marked before the next is
    asked for.
    """
    rows.sort(axis=-1)
    batch, base_count = rows.shape
    with np.errstate(divide="ignore"):
        per_cell = np.min(base_count * width[:, :, 0]
                          / (ratios.max() * (rows[:, -1:] - rows[:, :1])))
    limit = int(max(1.0, min(per_cell / 2, base_count - 1)))
    stride = 1 << limit.bit_length() - 1
    ends = np.arange(0, base_count + stride - 1, stride)
    ends[-1] = base_count - 1
    points = rows[:, None, ends]
    # A block's window is the stride - 1 points after its first end; on the
    # last block, the take clips those past the row's end to its last point.
    starts = ends[:-1, None]
    window = np.arange(1, stride)
    chunk = max(1, len(floats) // (batch * len(ends)))
    per_slice = len(floats) // (batch * max(1, len(window)))
    for first in range(0, len(ratios), chunk):
        words = np.arange(first, min(first + chunk, len(ratios)))
        table = _line_image_cells(points, words, ratios, shifts, lo, width, floats, cells)
        yield table.reshape(batch, 1, -1)
        gaps = np.subtract(table[..., 1:], table[..., :-1], out=floats.view(np.intp)[
            :table[..., 1:].size].reshape(batch, len(words), -1))
        # With stride 1 every point is an end.
        refine = np.flatnonzero((gaps >= 2).any(axis=0)) if len(window) else ()
        for block in (refine[i:i + per_slice] for i in range(0, len(refine), per_slice)):
            word, block = np.divmod(block, len(ends) - 1)
            # The window indices go to the cells workspace, which their cells overwrite.
            index = np.add(starts[block], window,
                           out=cells[:len(block) * len(window)].reshape(len(block), -1))
            x = np.take(rows, index, axis=1, mode="clip",
                        out=floats[:batch * index.size].reshape(batch, *index.shape))
            yield _line_image_cells(x, words[word], ratios, shifts, lo, width, x,
                                    cells).reshape(batch, 1, -1)


def _line_image_cells(x, words, ratios, shifts, lo, width, floats, cells):
    """The (B, R, L) :func:`_image_cells` of points ``x`` under the R words
    w of ``words``, of shifts ``shifts[:, w]``, with x broadcast to (B, R,
    L).  The images go to the front of ``floats`` (which may be ``x``
    itself) and the cells to the front of ``cells``."""
    shape = np.broadcast_shapes(x.shape, lo.shape, (len(words), 1))
    size = math.prod(shape)
    return _image_cells(x, ratios[words, None], shifts[:, words, None], lo, width,
                        floats.reshape(-1)[:size].reshape(shape), cells[:size].reshape(shape))


def normalize_unit_box(points) -> np.ndarray:
    """Affinely rescale each coordinate into [0, 1]; coordinates whose range
    is at most ``DEGENERATE_SPAN`` collapse to 0 (dimension-neutral for the
    rest).  A non-finite coordinate, or an input that is not a nonempty
    vector or (N, k) array, raises :class:`InputDomainError`.

    The result is the transpose of a contiguous (k, N) array, one row per
    coordinate: numpy reduces a narrow (N, k) array along axis 0 slowly.
    """
    pts = _as_points(points)
    if pts.size == 0:
        raise InputDomainError(
            f"can rescale a nonempty (N, k) point array, got shape {pts.shape}")
    rows = np.array(pts.T, order="C")
    lo, width = _unit_box_grid(rows, 0)
    rows -= lo
    rows /= width
    return rows.T


def _unit_box_grid(rows: np.ndarray, scale: int, ratios: Optional[np.ndarray] = None,
                   shifts: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The grid of 2^scale cells on the unit-box rescale of each length-N
    row of a (..., N) array: the row's minimum lo and its cell width,
    span * 2^-scale, or inf where the span is at most ``DEGENERATE_SPAN``.
    So (x - lo) / width is the rescaled coordinate times 2^scale, and 0 on
    a degenerate row.  With (W,) ``ratios`` >= 0 and (..., W) ``shifts``,
    the grid is that of the union of the row's W word images fl(fl(r_w x)
    + shifts[..., w]), whose bounds are the images of the row's bounds."""
    lo = rows.min(axis=-1, keepdims=True)
    hi = rows.max(axis=-1, keepdims=True)
    if shifts is not None:
        lo = (ratios * lo + shifts).min(axis=-1, keepdims=True)
        hi = (ratios * hi + shifts).max(axis=-1, keepdims=True)
    span = hi - lo
    # A NaN or infinite coordinate gives a NaN or infinite span, which must
    # not read as a degenerate row.
    if not np.isfinite(span).all():
        raise InputDomainError("cannot rescale non-finite points into the unit box")
    return lo, np.where(span > DEGENERATE_SPAN, span * 2.0**-scale, np.inf)


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
    so only the ones are counted, as the nonzero entries of the unpacked
    bits: an exact integer, and ``count_nonzero`` scans bytes faster than
    ``sum`` widens them.
    """
    if not data:
        return 0.0
    n = 8 * len(data)
    a = int(np.count_nonzero(np.unpackbits(np.frombuffer(data, dtype=np.uint8))))
    return (math.lgamma(n + 1) + math.log(math.pi) - math.lgamma(a + 0.5)
            - math.lgamma(n - a + 0.5)) / math.log(2.0)


def _binary_digits(points: np.ndarray, r_max: int) -> np.ndarray:
    """The r_max-digit truncations of the coordinates of an (N, n) array in
    [0, 1], one row of digits per value, coordinate-major.

    The rows are the big-endian bits of floor(x 2^r_max) in the narrowest
    width of 1, 2, 4 or 8 bytes that holds r_max digits, so the digits are
    the last r_max columns, most significant first.  A fractional part that
    rounded up to 1.0 takes the top level, all r_max digits one.
    """
    width = next(w for w in (1, 2, 4, 8) if 8 * w >= r_max)
    levels = points.T * 2.0**r_max
    np.floor(levels, out=levels)
    # The top level is set after the cast: 2^64 does not fit uint64.
    top = levels >= 2.0**r_max
    levels[top] = 0.0
    levels = levels.astype(f">u{width}", order="C")
    levels[top] = (1 << r_max) - 1
    return np.unpackbits(levels.view(np.uint8).reshape(-1, width), axis=1)


def complexity_profile(x, r_max: int,
                       compressor: Compressor = kt_compressor) -> list[tuple[int, float, float]]:
    """Heuristic compression profile: (r, K_hat_r, K_hat_r / r) for r <= r_max.

    The input is truncated to r dyadic digits per coordinate after affine
    normalization into [0, 1): fractional parts for a single vector, min-max
    scaling for a point list.  Raw profile only; no liminf is claimed.

    The compressor gets, for each r, the r-digit truncations of all
    coordinates, concatenated coordinate-major and packed into bytes.  The
    digits are extracted once, at r_max: the coordinates are non-negative
    and scaling by 2^r is exact in float64, so floor(x 2^r) ==
    floor(x 2^r_max) >> (r_max - r), and the r-digit truncation is the
    first r of the r_max digits.  An input that is not a nonempty vector or
    (N, n) point list, or an r_max that is not an integer in 1..64, raises
    :class:`InputDomainError`.
    """
    r_max = integer_argument("r_max", r_max)
    if not 1 <= r_max <= 64:
        raise InputDomainError(f"r_max must lie in 1..64, got {r_max}")
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2):
        raise InputDomainError(
            f"can profile a vector or an (N, n) point list, got {pts.ndim} dimensions")
    if pts.size == 0:
        raise InputDomainError("cannot profile an empty input")
    if pts.ndim == 1:
        if not np.isfinite(pts).all():
            raise InputDomainError("cannot profile a non-finite vector")
        pts = pts[None, :]
        pts = pts - np.floor(pts)
    else:
        pts = np.clip(normalize_unit_box(pts), 0.0, np.nextafter(1.0, 0.0))
    rows = _binary_digits(pts, r_max)
    profile = []
    for r in range(1, r_max + 1):
        # The first r digits of each row (one byte each) as one r-byte
        # record: copying the records lays them end to end in one pass over
        # the rows, where copying a column slice of the rows runs one inner
        # loop of r bytes per row, twice as slow.
        records = np.ndarray(len(rows), dtype=np.dtype((np.void, r)), buffer=rows,
                             offset=rows.shape[1] - r_max, strides=rows.strides[:1])
        data = np.packbits(np.ascontiguousarray(records).view(np.uint8)).tobytes()
        k_hat = float(compressor(data))
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
    sidecar = parse_json(path.with_suffix(".json").read_text(), ConfigError,
                         f"sample {path}: sidecar")
    count, n, depth = read_fields(sidecar, dict.fromkeys(("count", "n", "depth"), integer),
                                  ConfigError, f"sample {path} sidecar")
    for name, value in (("count", count), ("n", n)):
        if value < 1:
            raise ConfigError(f"sample {path} sidecar field {name}: need >= 1, got {value}")
    raw = path.read_bytes()
    if len(raw) != 8 * count * n:
        raise ConfigError(
            f"sample {path}: file holds {len(raw)} bytes, but its sidecar's "
            f"count={count} x n={n} float64 values need {8 * count * n}")
    pts = np.frombuffer(raw, dtype="<f8").reshape(count, n)
    return PointSample(points=pts, depth=depth)
