import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import (InputDomainError, ResourceBudgetError, box_dimension,
                     cantor_dust, cantor_middle_thirds,
                     complexity_profile, export_sample, generate,
                     kt_compressor, load_sample, normalize_unit_box,
                     null_compressor, sample_uniform, similarity_dimension)
from projlab import fractal
from projlab.fractal import (IFSSpec, PointSample, Similarity, _box_counts,
                             _truncate_bits, default_scale_hi,
                             projected_dimensions)


def unit_interval_ifs():
    return IFSSpec(n=1, maps=(Similarity(0.5, np.zeros(1)),
                              Similarity(0.5, np.array([0.5]))))


def test_similarity_dimension_cantor():
    # Closed form log(m) / log(1/r).
    assert similarity_dimension(cantor_middle_thirds()) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-10)


def test_similarity_dimension_interval():
    assert similarity_dimension(unit_interval_ifs()) == pytest.approx(1.0, abs=1e-10)


def test_similarity_dimension_dust():
    assert similarity_dimension(cantor_dust()) == pytest.approx(
        2.0 * math.log(2) / math.log(3), abs=1e-10)


def test_similarity_dimension_moran_residual():
    for spec in (cantor_middle_thirds(), cantor_dust(), unit_interval_ifs()):
        s = similarity_dimension(spec)
        residual = sum(m.ratio**s for m in spec.maps) - 1.0
        assert abs(residual) <= 1e-10


def test_generate_exhaustive_depth_one():
    sample = generate(cantor_middle_thirds(), 1)
    assert sorted(sample.points.ravel().tolist()) == pytest.approx([0.0, 2 / 3])


def test_generate_exhaustive_count():
    for depth in (1, 3, 6):
        sample = generate(cantor_dust(), depth)
        assert sample.points.shape == (4**depth, 2)


def test_generate_exhaustive_deterministic():
    a = generate(cantor_dust(), 5)
    b = generate(cantor_dust(), 5)
    assert np.array_equal(a.points, b.points)


def generate_by_concatenation(spec, depth):
    """Reference: each level as one np.concatenate of the m mapped copies of
    the previous level."""
    pts = spec.maps[0].fixed_point[None, :]
    for _ in range(depth):
        pts = np.concatenate([m.ratio * pts + m.translation for m in spec.maps])
    return pts


def test_generate_matches_concatenated_levels():
    rng = np.random.default_rng(8)
    wide = IFSSpec(n=8, maps=tuple((r, rng.uniform(-1.0, 1.0, 8))
                                   for r in (0.3, 0.45, 0.2)))
    cases = [(cantor_dust(), depth) for depth in range(0, 9)]
    cases += [(wide, depth) for depth in range(0, 8)]
    for spec, depth in cases:
        points = generate(spec, depth).points
        expected = generate_by_concatenation(spec, depth)
        assert points.shape == expected.shape == (len(spec.maps)**depth, spec.n)
        assert np.array_equal(points, expected)
        assert points.tobytes() == expected.tobytes()


def test_generate_budget_error_names_the_budget():
    with pytest.raises(ResourceBudgetError,
                       match="4\\^13 points exceed the exhaustive budget 10000000$"):
        generate(cantor_dust(), 13)


def test_generate_rejects_negative_depth():
    with pytest.raises(InputDomainError, match="depth must be >= 0, got -1"):
        generate(cantor_dust(), -1)


def test_ifs_validation():
    with pytest.raises(InputDomainError):
        IFSSpec(n=1, maps=(Similarity(0.5, np.zeros(1)),))
    with pytest.raises(InputDomainError):
        Similarity(1.2, np.zeros(1))


@pytest.mark.parametrize("call, message", [
    (lambda: PointSample(points=np.empty((0, 2)), depth=1), "must be nonempty"),
    (lambda: IFSSpec(n=2, maps=((0.5, [0.0]), (0.5, [1.0]))), r"translation shape \(1,\)"),
], ids=["empty-sample", "translation-shape"])
def test_sample_and_ifs_reject_bad_shapes(call, message):
    with pytest.raises(InputDomainError, match=message):
        call()


@pytest.mark.parametrize("change, message", [
    (dict(n="two"), "IFS JSON field n: invalid literal"),
    (dict(maps=[0.5, 0.5]), "field ratio: missing from IFS JSON map 0"),
    (dict(maps=[{"ratio": 0.5, "translation": [0.0]}, {"ratio": 0.5}]),
     "field translation: missing from IFS JSON map 1"),
], ids=["n-string", "map-not-object", "map-without-translation"])
def test_ifs_json_rejects_with_typed_error(change, message):
    document = {**json.loads(cantor_middle_thirds().to_json()), **change}
    with pytest.raises(InputDomainError, match=message):
        IFSSpec.from_json(json.dumps(document))


def test_ifs_json_round_trip():
    spec = cantor_dust()
    again = IFSSpec.from_json(spec.to_json())
    assert again.n == 2 and len(again.maps) == 4
    assert again.label == spec.label


def test_box_counts_match_independent_oracle():
    # Independent oracle: per-scale occupied boxes via a plain Python set of
    # floored coordinates, no shared code with the estimator.
    sample = generate(cantor_middle_thirds(), 12)
    est = box_dimension(sample, 2, 8)
    for j, count in zip(est.scales, est.counts):
        oracle = {math.floor(p * 2**j) for p in sample.points.ravel()}
        assert count == len(oracle)
    # Frozen values computed with the oracle above.
    assert est.counts == (4, 6, 10, 16, 28, 42, 70)


def test_box_counts_match_oracle_2d():
    sample = generate(cantor_dust(), 6)
    est = box_dimension(sample, 2, 6)
    for j, count in zip(est.scales, est.counts):
        oracle = {(math.floor(x * 2**j), math.floor(y * 2**j))
                  for x, y in sample.points}
        assert count == len(oracle)


def per_scale_counts(pts, scales):
    """Reference counter: one floor and one np.unique of raveled cells per
    scale, with no nesting between scales."""
    counts = []
    for j in scales:
        cells = np.floor(pts * float(2**j)).astype(np.int64)
        cells -= cells.min(axis=0)
        dims = cells.max(axis=0) + 1
        keys = np.ravel_multi_index(tuple(cells.T), tuple(dims))
        counts.append(int(np.unique(keys).size))
    return tuple(counts)


def test_box_counts_match_per_scale_reference():
    rng = np.random.default_rng(11)
    dust = generate(cantor_dust(), 8).points
    lines = [normalize_unit_box(dust @ sample_uniform(2, 1, rng).proj.T)
             for _ in range(3)]
    clouds = [dust, rng.normal(size=(5000, 3)), rng.random((3000, 4)) - 0.5]
    for pts, lo, hi in [(lines[0], 2, 13), (lines[1], 0, 16), (lines[2], 3, 9),
                        (clouds[0], 2, 10), (clouds[1], 1, 9), (clouds[2], 0, 7)]:
        est = box_dimension(pts, lo, hi)
        assert est.counts == per_scale_counts(pts, range(lo, hi + 1))


@st.composite
def box_windows(draw):
    """Point clouds with negative coordinates, origins off the dyadic grid,
    some points on box edges, and a scale window starting at 0 or above."""
    k = draw(st.integers(1, 4))
    count = draw(st.integers(1, 2000))
    scale_lo = draw(st.integers(0, 4))
    scale_hi = draw(st.integers(scale_lo + 2, scale_lo + 8))
    origin = draw(st.lists(st.floats(-20.0, 20.0), min_size=k, max_size=k))
    width = draw(st.sampled_from([2.0**-6, 0.3, 1.0, 3.0]))
    edge = draw(st.integers(0, scale_hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.asarray(origin) + width * rng.random((count, k))
    on_edge = rng.random(count) < 0.3
    pts[on_edge] = np.floor(pts[on_edge] * 2.0**edge) / 2.0**edge
    return pts, scale_lo, scale_hi


@settings(max_examples=60, deadline=None)
@given(window=box_windows())
def test_box_counts_properties(window):
    pts, lo, hi = window
    est = box_dimension(pts, lo, hi)
    assert est.scales == tuple(range(lo, hi + 1))
    for j, count in zip(est.scales, est.counts):
        oracle = {tuple(math.floor(c * 2.0**j) for c in p) for p in pts.tolist()}
        assert count == len(oracle)
    assert all(a <= b for a, b in zip(est.counts, est.counts[1:]))
    assert all(1 <= c <= len(pts) for c in est.counts)


@settings(max_examples=60, deadline=None)
@given(window=box_windows(), steps=st.lists(st.integers(-40, 40), min_size=4, max_size=4))
def test_box_counts_invariant_under_coarse_dyadic_shift(window, steps):
    pts, lo, hi = window
    # On the 2^-30 grid both the points and their shifts are exact floats.
    pts = np.round(pts * 2.0**30) / 2.0**30
    shift = np.asarray(steps[:pts.shape[1]]) / 2.0**lo
    assert box_dimension(pts + shift, lo, hi).counts == box_dimension(pts, lo, hi).counts


def record_occupancy(monkeypatch):
    """The key-space size of each occupancy count."""
    spaces = []
    real = fractal._occupied_keys
    monkeypatch.setattr(fractal, "_occupied_keys",
                        lambda keys, space: spaces.append(space) or real(keys, space))
    return spaces


@st.composite
def grids_near_point_count(draw):
    """A batch of clouds whose key space 2^(k x bits) at scale_hi is one
    point short of, equal to, or one point over the point count N.

    Every cloud has a point on its origin cell, which is a multiple of
    2^(scale_hi - scale_lo) cells and may be negative; the widest cloud also
    has a point on its last cell, so the key width is known.  The others are
    narrower, and a third of each cloud repeats its other points.  Cells plus
    a fraction on a 2^-20 grid are exact in float64.
    """
    k = draw(st.integers(1, 3))
    bits = draw(st.integers(max(1, 3 - k), 12 // k))
    space = 1 << (k * bits)
    count = space + draw(st.sampled_from([-1, 0, 1]))
    batch = draw(st.integers(1, 4))
    scale_lo = draw(st.integers(0, 3))
    scale_hi = draw(st.integers(scale_lo + 2, scale_lo + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = rng.integers(0, bits + 1, batch)
    widths[rng.integers(batch)] = bits
    step = scale_hi - scale_lo
    clouds = np.empty((batch, k, count))
    for cloud, width in zip(clouds, widths):
        cells = rng.integers(0, 1 << width, (k, count))
        cells[:, 0] = 0
        cells[rng.integers(k), 1] = (1 << width) - 1
        repeats = rng.integers(0, count, count // 3)
        cells[:, count - count // 3:] = cells[:, repeats]
        origin = rng.integers(-20, 21, (k, 1)) << step
        frac = rng.integers(0, 1 << 20, (k, count)) / 2.0**20
        cloud[:] = (origin + cells + frac) / 2.0**scale_hi
    return clouds, space, scale_lo, scale_hi


@settings(max_examples=80, deadline=None)
@given(window=grids_near_point_count())
def test_occupancy_and_sort_paths_match_per_scale_reference(window):
    clouds, space, lo, hi = window
    with pytest.MonkeyPatch.context() as mp:
        occupied = record_occupancy(mp)
        counts = _box_counts(clouds.copy(), lo, hi)
    # Occupancy exactly when the key space holds no more cells than N.
    if space <= clouds.shape[2]:
        assert occupied == [space]
    else:
        assert occupied == []
    for cloud, row in zip(clouds, counts):
        assert tuple(row.tolist()) == per_scale_counts(cloud.T, range(lo, hi + 1))


def test_dust_projection_counts_by_occupancy(monkeypatch):
    # 4^8 dust points projected onto a line and rescaled into [0, 1] fall in
    # cells 0..2^13 at scale 13: a 2^14-key space, smaller than N.
    points = generate(cantor_dust(), 8).points
    frames = np.array([[[0.6], [0.8]], [[1.0], [0.0]], [[-0.28], [0.96]]])
    spaces = record_occupancy(monkeypatch)
    ests = projected_dimensions(points, frames, 2, 13)
    assert spaces == [1 << 14] * len(frames)
    for frame, est in zip(frames, ests):
        line = normalize_unit_box(points @ frame)
        assert est.counts == per_scale_counts(line, range(2, 14))
        assert est == box_dimension(line, 2, 13)
    assert spaces == [1 << 14] * (2 * len(frames))


def test_counting_leaves_inputs_unchanged():
    rng = np.random.default_rng(3)
    clouds = [rng.random((5000, 1)), rng.random((5000, 2)) - 0.5,
              np.asfortranarray(rng.random((3000, 3))),
              generate(cantor_dust(), 6)]
    for cloud in clouds:
        pts = cloud.points if isinstance(cloud, PointSample) else cloud
        before = pts.copy()
        box_dimension(cloud, 2, 10)
        assert pts.tobytes() == before.tobytes()
    points = generate(cantor_dust(), 7).points
    angles = np.linspace(0.1, 3.0, 4)
    frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :, None]
    points_before, frames_before = points.copy(), frames.copy()
    projected_dimensions(points, frames, 2, 12)
    assert points.tobytes() == points_before.tobytes()
    assert frames.tobytes() == frames_before.tobytes()


def test_box_dimension_key_width_limit():
    rng = np.random.default_rng(4)
    # 3 axes x 21 bits fill the 63-bit key exactly.
    pts = rng.random((500, 3))
    est = box_dimension(pts, 2, 21)
    assert est.counts == per_scale_counts(pts, range(2, 22))
    with pytest.raises(ResourceBudgetError, match="k=3 at scale_hi=22"):
        box_dimension(pts, 2, 22)
    with pytest.raises(ResourceBudgetError, match="k=5 at scale_hi=14"):
        box_dimension(rng.random((100, 5)), 2, 14)


def test_box_dimension_rejects_unrepresentable_points():
    with pytest.raises(InputDomainError, match="non-finite"):
        box_dimension(np.array([[0.1], [np.nan], [0.3]]), 2, 8)
    with pytest.raises(ResourceBudgetError, match="scale_hi=8"):
        box_dimension(np.full((3, 1), 1e30), 2, 8)


def test_box_dimension_cantor_default_window():
    sample = generate(cantor_middle_thirds(), 12)
    est = box_dimension(sample)
    assert est.scales[-1] == 17  # floor(12 * log2(3)) - 2
    assert 0.60 <= est.value <= 0.66
    assert abs(est.value - similarity_dimension(cantor_middle_thirds())) <= 0.05


def test_box_dimension_uniform_interval():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, 100000)[:, None]
    est = box_dimension(pts, 2, 8)
    assert 0.95 <= est.value <= 1.05


def test_box_dimension_single_point():
    est = box_dimension(np.full((50, 1), 0.37), 2, 8)
    assert -0.05 <= est.value <= 0.05


def test_box_dimension_counts_monotone():
    sample = generate(cantor_dust(), 8)
    est = box_dimension(sample, 2, 10)
    assert all(a <= b for a, b in zip(est.counts, est.counts[1:]))


def test_box_dimension_bounded_by_ambient():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, (20000, 2))
    assert box_dimension(pts, 2, 6).value <= 2.0 + 0.05


def test_projection_does_not_increase_box_dimension():
    sample = generate(cantor_dust(), 8)
    base = box_dimension(sample, 2, 8).value
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = sample_uniform(2, 1, rng)
        projected = sample.points @ v.proj.T
        assert box_dimension(projected, 2, 8).value <= base + 0.1


def test_box_dimension_input_validation():
    with pytest.raises(InputDomainError):
        box_dimension(np.zeros((5, 1)), 4, 5)  # only 2 scales
    with pytest.raises(InputDomainError):
        box_dimension(np.zeros((0, 1)), 2, 8)
    with pytest.raises(InputDomainError):
        box_dimension(np.zeros((5, 1)), 8, 2)


def test_default_scale_hi_bare_points():
    assert default_scale_hi(np.zeros((5, 1))) == 8


def test_normalize_unit_box():
    pts = np.array([[2.0, 5.0], [4.0, 5.0], [3.0, 5.0]])
    out = normalize_unit_box(pts)
    assert np.allclose(out[:, 0], [0.0, 1.0, 0.5])
    assert np.allclose(out[:, 1], 0.0)  # degenerate coordinate collapses


def normalize_columns(pts, degenerate_tol=1e-12):
    """Reference rescaling: reductions along axis 0 of the (N, k) array."""
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    live = span > degenerate_tol
    out = pts - lo
    out /= np.where(live, span, 1.0)
    out[:, ~live] = 0.0
    return out


@pytest.mark.parametrize("k", [1, 2, 4])
def test_normalize_unit_box_matches_column_reference(k):
    rng = np.random.default_rng(k)
    pts = rng.standard_normal((500, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    if k > 1:
        pts[:, -1] = 7.25  # a degenerate axis
    out = normalize_unit_box(pts)
    assert out.shape == pts.shape
    assert out.tobytes(order="C") == normalize_columns(pts).tobytes(order="C")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_is_not_a_degenerate_axis(bad):
    # A NaN span once read as degenerate: the column became 0 and the
    # estimate came out silently wrong.
    x = np.array([[0.1, 0.2], [bad, 0.5], [0.7, 0.1], [0.9, 0.9]])
    with pytest.raises(InputDomainError, match="non-finite"):
        box_dimension(normalize_unit_box(x), 2, 6)
    with pytest.raises(InputDomainError, match="non-finite"):
        complexity_profile(x.tolist(), 8)
    with pytest.raises(InputDomainError, match="non-finite"):
        complexity_profile(np.array([0.25, bad]), 8)


def test_complexity_profile_constant_point():
    profile = complexity_profile(np.zeros(2), 48)
    r, k_hat, ratio = profile[-1]
    assert r == 48
    assert ratio <= 0.2


def test_complexity_profile_random_bits():
    rng = np.random.default_rng(1234)
    ratios = []
    for _ in range(10):
        profile = complexity_profile(np.array([rng.uniform()]), 48)
        ratios.append(profile[-1][2])
    assert all(0.8 <= r <= 1.3 for r in ratios)


def test_complexity_profile_roughly_monotone():
    rng = np.random.default_rng(7)
    profile = complexity_profile(np.array([rng.uniform()]), 40)
    values = [k for _, k, _ in profile]
    assert all(b >= a - 16.0 for a, b in zip(values, values[1:]))


def test_complexity_profile_null_compressor():
    profile = complexity_profile(np.zeros(1), 16, compressor=null_compressor)
    assert profile[15][1] == 16.0  # 16 bits pack into 2 bytes exactly


def test_complexity_profile_rejects_large_r():
    with pytest.raises(InputDomainError):
        complexity_profile(np.zeros(1), 65)


def test_kt_compressor_calibration():
    assert kt_compressor(bytes(12)) < 8.0  # 96 constant bits
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
    assert kt_compressor(data) >= 0.9 * 8 * 64


def kt_sequential(data):
    """Reference KT coder: the product of the sequential KT probabilities,
    one bit at a time."""
    total, ones = 0.0, 0.0
    for i, b in enumerate(np.unpackbits(np.frombuffer(data, dtype=np.uint8))):
        p_one = (ones + 0.5) / (i + 1.0)
        total -= math.log2(p_one if b else 1.0 - p_one)
        ones += b
    return total


@pytest.mark.parametrize("data", [
    bytes(12), b"\xff" * 40, bytes(1), b"\xff",              # constant
    np.random.default_rng(0).integers(0, 256, 64, dtype=np.uint8).tobytes(),
    np.random.default_rng(1).integers(0, 256, 700, dtype=np.uint8).tobytes(),
    np.random.default_rng(2).integers(0, 4, 300, dtype=np.uint8).tobytes(),
    b"\x01", b"\x80\x00", b"\x5a\x0f\xf0",                   # short
])
def test_kt_closed_form_matches_sequential_code(data):
    assert kt_compressor(data) == pytest.approx(kt_sequential(data), rel=1e-12)


def test_kt_compressor_empty_input():
    assert kt_compressor(b"") == 0.0 == kt_sequential(b"")


def truncate_bits_loop(points, r):
    """Reference truncation: one Python loop step per coordinate value."""
    levels = np.minimum(np.floor(points * float(2**r)).astype(np.uint64), 2**r - 1)
    bit_rows = [[(int(v) >> (r - 1 - b)) & 1 for b in range(r)]
                for c in range(points.shape[1]) for v in levels[:, c]]
    return np.packbits(np.asarray(bit_rows, dtype=np.uint8).ravel()).tobytes()


@pytest.mark.parametrize("r", [1, 7, 12, 33, 64])
def test_truncate_bits_matches_loop(r):
    rng = np.random.default_rng(r)
    pts = np.vstack([rng.random((37, 3)),
                     [[0.0, 0.5, np.nextafter(1.0, 0.0)]]])
    assert _truncate_bits(pts, r) == truncate_bits_loop(pts, r)
    # A single vector is one row of coordinates.
    assert _truncate_bits(pts[:1], r) == truncate_bits_loop(pts[:1], r)


def test_sample_export_round_trip(tmp_path):
    sample = generate(cantor_dust(), 4)
    path = tmp_path / "dust.bin"
    export_sample(sample, path)
    again = load_sample(path)
    assert isinstance(again, PointSample)
    assert np.array_equal(again.points, sample.points)
    assert again.depth == 4
