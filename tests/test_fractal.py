import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlab import (InputDomainError, ResourceBudgetError, box_dimension,
                     cantor_dust, cantor_middle_thirds,
                     complexity_profile, export_sample, generate,
                     kt_compressor, load_sample, normalize_unit_box,
                     null_compressor, sample_uniform, similarity_dimension)
from projlab import fractal
from projlab.fractal import (IFSSpec, PointSample, Similarity, TiledSample,
                             _bit_lengths, _box_counts, _fit_table,
                             default_scale_hi, projected_dimensions)


def plain_cloud(points):
    """An (N, n) cloud as the tiled sample of one identity word."""
    points = np.asarray(points, dtype=float)
    return TiledSample(points, np.ones(1), np.zeros((1, points.shape[-1])))


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
        # Coordinate-major: the transpose is a contiguous (n, N) array,
        # which np.ascontiguousarray returns without a copy.
        coords = points.T
        assert coords.flags.c_contiguous
        assert np.ascontiguousarray(coords) is coords


def loop_words(spec, p):
    """Reference: the (ratio, offset) of each word T_w1 o ... o T_wp, in
    lexicographic order of (w1, ..., wp), composed one map at a time."""
    words = []
    for word in itertools.product(spec.maps, repeat=p):
        ratio, offset = 1.0, np.zeros(spec.n)
        for sim in reversed(word):
            ratio, offset = sim.ratio * ratio, sim.ratio * offset + sim.translation
        words.append((ratio, offset))
    return words


@pytest.mark.parametrize("k, depth, budget, p", [
    (1, 8, 4**7, 1), (1, 8, 4**5, 3), (2, 8, 4**6, 3), (1, 8, 4**8, 0), (1, 5, 1, 5)])
def test_word_images_reproduce_generate(monkeypatch, k, depth, budget, p):
    rng = np.random.default_rng(9)
    uneven = IFSSpec(n=3, maps=tuple((r, rng.uniform(-1.0, 1.0, 3))
                                     for r in (0.3, 0.45, 0.2, 0.6)))
    monkeypatch.setattr(fractal, "COUNT_BATCH_POINTS", budget)
    for spec in (cantor_dust(), uneven):
        points = generate(spec, depth).points
        sample = fractal.tiled_sample(spec, depth, k)
        # The least p whose base tile of k x 4^(depth - p) coordinates fits.
        assert sample.base.tobytes() == generate(spec, depth - p).points.tobytes()
        words = loop_words(spec, p)
        assert sample.ratios.tolist() == [ratio for ratio, _ in words]
        assert sample.offsets.tobytes() == np.array([t for _, t in words]).tobytes()
        # Block w of generate's sample is word w's image of the base, to a
        # few ulps of the attractor's size: generate maps one map at a time.
        images = np.concatenate([r * sample.base + t for r, t in words])
        assert images.shape == points.shape
        ulp = np.spacing(np.abs(points).max())
        assert np.abs(images - points).max() <= 4 * ulp


DUST_TILE = generate(cantor_dust(), 5).points


@pytest.mark.parametrize("base, ratios, offsets, message", [
    # On frame (0.6, 0.8) at scales 2..8 these once counted (6, 10, 18, 34,
    # 66, 130, 257) and (2, 4, 8, ..., 128), where the materialized clouds
    # read (5, 7, 13, 23, 45, 87, 173) and (5, 9, 17, ..., 257): a negative
    # ratio maps the row's bounds out of order, and one ratio with two
    # offsets counted one word image.
    (DUST_TILE, [-0.5, 0.5], [[0.0, 0.0], [0.5, 0.5]], "word ratios must be >= 0, got -0.5"),
    (DUST_TILE, [0.5], [[0.0, 0.0], [0.5, 0.5]], r"\(1024, 2\), \(1,\) and \(2, 2\)"),
    (DUST_TILE, [0.5, 0.5], [[0.0] * 3, [0.5] * 3], r"\(1024, 2\), \(2,\) and \(2, 3\)"),
    (DUST_TILE, [], np.zeros((0, 2)), r"\(1024, 2\), \(0,\) and \(0, 2\)"),
    (DUST_TILE, [[0.5]], [[0.0, 0.0]], r"\(1024, 2\), \(1, 1\) and \(1, 2\)"),
    (np.zeros((0, 2)), [1.0], [[0.0, 0.0]], r"nonempty \(N0, n\) base tile.*\(0, 2\), \(1,\)"),
    (np.zeros(5), [1.0], [[0.0, 0.0]], r"\(5,\), \(1,\) and \(1, 2\)"),
    (np.zeros((5, 2, 1)), [1.0], [[0.0, 0.0]], r"\(5, 2, 1\), \(1,\) and \(1, 2\)"),
], ids=["negative-ratio", "one-ratio-two-offsets", "offsets-in-r3", "no-words", "2-d-ratios",
        "empty-base", "1-d-base", "3-d-base"])
def test_tiled_sample_refuses_what_it_cannot_count(base, ratios, offsets, message):
    with pytest.raises(InputDomainError, match=message):
        TiledSample(base, ratios, offsets)


def test_tiled_sample_takes_zero_ratios_and_leaves_nan_to_the_counter():
    # A ratio of 0 maps the base to one point; a NaN ratio passes the sign
    # check, and the counter refuses it.
    frame = np.array([[[0.6], [0.8]]])
    sample = TiledSample(DUST_TILE, [0.0, 0.5], [[0.0, 0.0], [0.5, 0.5]])
    est, = projected_dimensions(sample, frame, 2, 8)
    assert est == box_dimension(normalize_unit_box(word_cloud(sample, frame[0])), 2, 8)
    with pytest.raises(InputDomainError, match="non-finite"):
        projected_dimensions(TiledSample(DUST_TILE, [np.nan], [[0.0, 0.0]]), frame, 2, 8)


def test_generate_budget_error_names_the_budget():
    with pytest.raises(ResourceBudgetError,
                       match="4\\^13 sample points exceed the exhaustive budget 10000000$"):
        generate(cantor_dust(), 13)


def test_generate_refuses_a_huge_depth_at_once():
    # The budget check once computed 4^depth in full before refusing it.
    with pytest.raises(ResourceBudgetError, match="4\\^1000000000000 sample points exceed"):
        generate(cantor_dust(), 10**12)


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
    # These once stored a 3-d sample, and died in the box counter with a
    # raw ValueError or in a reduction with a raw AxisError.
    (lambda: PointSample(points=np.zeros((2, 3, 4)), depth=1), r"got shape \(2, 3, 4\)"),
    (lambda: box_dimension(np.zeros((2, 3, 4)), 2, 8), r"got shape \(2, 3, 4\)"),
    (lambda: box_dimension(np.float64(0.5), 2, 8), r"got shape \(\)"),
    # These once ended in a raw TypeError from np.empty or from `<`.
    (lambda: generate(cantor_dust(), 2.5), "depth must be an integer, got 2.5"),
    (lambda: generate(cantor_dust(), None), "depth must be an integer, got None"),
], ids=["empty-sample", "translation-shape", "3-d-sample", "3-d-box-count",
        "scalar-box-count", "fractional-depth", "none-depth"])
def test_sample_and_ifs_reject_bad_shapes(call, message):
    with pytest.raises(InputDomainError, match=message):
        call()


@pytest.mark.parametrize("change, message", [
    (dict(n="two"), "IFS JSON field n: invalid literal"),
    (dict(maps=[0.5, 0.5]), "field ratio: missing from IFS JSON map 0"),
    (dict(maps=[{"ratio": 0.5, "translation": [0.0]}, {"ratio": 0.5}]),
     "field translation: missing from IFS JSON map 1"),
    # Any JSON value was once taken as the label and echoed into summary.json.
    (dict(label=[1, {"a": 2}]), r"label must be a string or null, got \[1, \{'a': 2\}\]"),
    (dict(label=3), "label must be a string or null, got 3"),
    (dict(label=True), "label must be a string or null, got True"),
    (dict(label={"name": "dust"}), "label must be a string or null, got {'name': 'dust'}"),
], ids=["n-string", "map-not-object", "map-without-translation", "label-list",
        "label-number", "label-boolean", "label-object"])
def test_ifs_json_rejects_with_typed_error(change, message):
    document = {**json.loads(cantor_middle_thirds().to_json()), **change}
    with pytest.raises(InputDomainError, match=message):
        IFSSpec.from_json(json.dumps(document))


def test_ifs_json_round_trip():
    spec = cantor_dust()
    again = IFSSpec.from_json(spec.to_json())
    assert again.n == 2 and len(again.maps) == 4
    assert again.label == spec.label
    unlabelled = IFSSpec(n=2, maps=spec.maps)
    assert IFSSpec.from_json(unlabelled.to_json()).label is None


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


def count_cells(cells, bits, scale_lo, scale_hi):
    """Box counts of a (B, k, N) stack of cells below 2^bits, given to the
    counter as one tile, keyed in place."""
    return _box_counts([cells], len(cells), cells.shape[1], bits, cells.shape[2],
                       scale_lo, scale_hi)


def record_occupancy(monkeypatch):
    """The key-space size of each occupancy count."""
    spaces = []
    real = fractal._occupied_keys
    monkeypatch.setattr(fractal, "_occupied_keys", lambda tiles, clouds, space:
                        spaces.append(space) or real(tiles, clouds, space))
    return spaces


@st.composite
def grids_near_point_count(draw):
    """A batch of (B, k, N) int64 cells at scale_hi and their bit width,
    whose key space 2^(k x bits) is one point short of, equal to, or one
    point over the point count N.

    Every cloud has a point on cell 0; the widest cloud also has a point on
    its last cell, 2^bits - 1.  The others are narrower, and a third of each
    cloud repeats its other points.
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
    cells = np.empty((batch, k, count), dtype=np.int64)
    for cloud, width in zip(cells, widths):
        cloud[:] = rng.integers(0, 1 << width, (k, count))
        cloud[:, 0] = 0
        cloud[rng.integers(k), 1] = (1 << width) - 1
        repeats = rng.integers(0, count, count // 3)
        cloud[:, count - count // 3:] = cloud[:, repeats]
    return cells, bits, space, scale_lo, scale_hi


@settings(max_examples=80, deadline=None)
@given(window=grids_near_point_count())
def test_occupancy_and_sort_paths_match_per_scale_reference(window):
    cells, bits, space, lo, hi = window
    with pytest.MonkeyPatch.context() as mp:
        occupied = record_occupancy(mp)
        counts = count_cells(cells.copy(), bits, lo, hi)
    # Occupancy exactly when the key space holds no more cells than N.
    if space <= cells.shape[2]:
        assert occupied == [space]
    else:
        assert occupied == []
    # Cells over 2^scale_hi are exact floats whose floors at scale j are
    # the cells shifted right by scale_hi - j.
    for cloud, row in zip(cells, counts):
        assert tuple(row.tolist()) == per_scale_counts(cloud.T / 2.0**hi, range(lo, hi + 1))


def test_dust_projection_counts_by_occupancy(monkeypatch):
    # 4^8 dust points projected onto a line and rescaled into [0, 1] fall in
    # cells 0..2^13 at scale 13: a 2^14-key space, smaller than N.
    points = generate(cantor_dust(), 8).points
    frames = np.array([[[0.6], [0.8]], [[1.0], [0.0]], [[-0.28], [0.96]]])
    spaces = record_occupancy(monkeypatch)
    ests = projected_dimensions(plain_cloud(points), frames, 2, 13)
    assert spaces == [1 << 14] * len(frames)
    for frame, est in zip(frames, ests):
        line = normalize_unit_box(points @ frame)
        assert est.counts == per_scale_counts(line, range(2, 14))
        assert est == box_dimension(line, 2, 13)
    assert spaces == [1 << 14] * (2 * len(frames))


def record_tiles(monkeypatch):
    """The shape of each stack of cells keyed, tile or whole."""
    shapes = []
    real = fractal._morton_keys
    monkeypatch.setattr(fractal, "_morton_keys",
                        lambda cells, bits: shapes.append(cells.shape) or real(cells, bits))
    return shapes


def word_cloud(sample, frame):
    """Reference: the projection of a tiled sample onto one frame, taken
    before the words, materialized word by word, (N, k)."""
    return np.concatenate([ratio * (sample.base @ frame) + shift for ratio, shift
                           in zip(sample.ratios.tolist(), sample.offsets @ frame)])


@pytest.mark.parametrize("k, budget, batches, tiles", [
    # One frame per batch, each spanning the 16 word images of a 4^4-point
    # base tile.  Planes mark each image as one tile.  Lines hold about 1
    # point per cell, so every point of a sorted row is a block end, and
    # each image is one table of 256 ends; the constant third line has 3
    # ends per image (points 0, 128 and 255), and one table holds all 16.
    (1, 511, 4, 2 * 16 * [(1, 1, 256)] + [(1, 1, 48)] + 16 * [(1, 1, 256)]),
    (2, 1001, 4, 4 * 16 * [(1, 2, 256)]),
    # The whole sample is one identity word: three whole frames per batch
    # and tile (on lines, a table of every point as a block end).
    (1, 3 * 4096 + 1, 2, [(3, 1, 4096), (1, 1, 4096)]),
    (2, 3 * 2 * 4096 + 1, 2, [(3, 2, 4096), (1, 2, 4096)]),
], ids=["lines-sliced", "planes-sliced", "lines-batched", "planes-batched"])
def test_occupancy_tiles_count_like_each_frame(monkeypatch, k, budget, batches, tiles):
    # 4^6 dust points; 2^(k (scale_hi + 1)) = 4096 cells, so the pipeline
    # counts by occupancy.  The frames have no negative entries, so the last
    # point, the dust's corner, lands in cell 2^scale_hi of every live axis,
    # in the last tile.  The third frame has a constant axis.  The oracle is
    # the word images' cloud, which rounds apart from generate's points.
    hi = 12 // k - 1
    frames = {1: [[[0.6], [0.8]], [[0.28], [0.96]], [[0.0], [0.0]], [[1.0], [0.0]]],
              2: [[[1.0, 0.3], [0.2, 1.0]], [[0.6, 0.8], [0.8, 0.6]],
                  [[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}[k]
    frames = np.array(frames)
    monkeypatch.setattr(fractal, "COUNT_BATCH_POINTS", budget)
    sample = fractal.tiled_sample(cantor_dust(), 6, k)
    occupied, shapes = record_occupancy(monkeypatch), record_tiles(monkeypatch)
    ests = projected_dimensions(sample, frames, 2, hi)
    monkeypatch.undo()
    assert occupied == [4096] * batches
    assert shapes == tiles
    assert all(math.prod(shape) <= budget for shape in shapes)
    for frame, est in zip(frames, ests):
        cloud = normalize_unit_box(word_cloud(sample, frame))
        assert np.all((cloud[-1] == 1.0) | (cloud.max(axis=0) == 0.0))
        assert est.counts == per_scale_counts(cloud, range(2, hi + 1))
        assert est == box_dimension(cloud, 2, hi)


# Frames and scale_hi for 4^5 dust points counted through each path: lines
# at scale_hi 8 have 2^9 cells, no more than N, so occupancy marks their
# keys; planes at scale_hi 6 have 2^14 cells, more than N, so the keys are
# sorted.  One frame of each has a constant axis.
BUDGET_PATHS = {
    "occupancy": (np.array([[[0.6], [0.8]], [[0.28], [0.96]], [[0.0], [0.0]], [[1.0], [0.0]]]), 8),
    "sort": (np.array([[[1.0, 0.3], [0.2, 1.0]], [[0.6, 0.8], [0.8, 0.6]],
                       [[1.0, 0.0], [0.5, 0.0]]]), 6),
}


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(sorted(BUDGET_PATHS)), data=st.data())
def test_batch_budget_keeps_estimates_and_sorts_whole_batches(path, data):
    points = generate(cantor_dust(), 5).points
    frames, hi = BUDGET_PATHS[path]
    k = frames.shape[2]
    budget = data.draw(st.integers(1, 3 * k * len(points)), label="budget")
    expected = projected_dimensions(plain_cloud(points), frames, 2, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fractal, "COUNT_BATCH_POINTS", budget)
        occupied, shapes = record_occupancy(mp), record_tiles(mp)
        dtypes = record_key_dtypes(mp)
        assert projected_dimensions(plain_cloud(points), frames, 2, hi) == expected
    assert bool(occupied) == (path == "occupancy")
    if path == "sort":
        # One tile per batch, holding every point of every frame in it.
        assert {shape[2] for shape in shapes} == {len(points)}
        assert sum(shape[0] for shape in shapes) == len(frames)
    else:
        assert set(dtypes) == {np.dtype(np.intp)}


@pytest.mark.parametrize("window, message", [
    ((-5, 4), "scale_lo must be >= 0, got -5"),
    ((-1, 8), "scale_lo must be >= 0, got -1"),
    ((2.5, 8), "scale_lo must be an integer, got 2.5"),
    ((2, 7.5), "scale_hi must be an integer, got 7.5"),
    ((2, "8"), "scale_hi must be an integer, got '8'"),
    (("2", None), "scale_lo must be an integer, got '2'"),
    ((None, None), "scale_lo must be an integer, got None"),
])
def test_scale_window_is_typed(window, message):
    # On the depth-8 dust, scales -5..4 once read 0.739 against 1.374 at
    # 2..8, and a float scale ended in a raw TypeError from range().  With
    # scale_hi left at None, box_dimension once passed the untyped scale_lo
    # to default_scale_hi, which ended in a raw TypeError.
    dust = generate(cantor_dust(), 8)
    with pytest.raises(InputDomainError, match=message):
        box_dimension(dust, *window)
    with pytest.raises(InputDomainError, match=message):
        projected_dimensions(plain_cloud(dust.points), np.array([[[0.6], [0.8]]]), *window)
    assert box_dimension(dust, 0, 2).scales == (0, 1, 2)


def test_bit_lengths_are_exact():
    # Above 2^53 the float cast rounds 2^m - 1 up to 2^m.
    values = [0] + [v for m in range(63) for v in (2**m - 1, 2**m, 2**m + 1)]
    values.append(2**63 - 1)
    for chunk in (values, [v for v in values if v < 2**53]):
        lengths = _bit_lengths(np.array(chunk, dtype=np.int64))
        assert lengths.tolist() == [v.bit_length() for v in chunk]


def test_bit_lengths_of_int32_are_exact():
    values = [0] + [v for m in range(31) for v in (2**m - 1, 2**m, 2**m + 1)]
    values.append(2**31 - 1)
    lengths = _bit_lengths(np.array(values, dtype=np.int32))
    assert lengths.dtype == np.int64
    assert lengths.tolist() == [v.bit_length() for v in values]


@st.composite
def wide_key_grids(draw):
    """A batch of (B, k, N) cells whose keys are 30, 31 or 32 bits wide
    (k x bits), so keys reach 2^31 - 1 and the key space far exceeds N.
    Every cloud has a point on cell 0 and one on its last cell; a third of
    each cloud repeats its other points."""
    k, bits = draw(st.sampled_from([(1, 30), (1, 31), (1, 32), (2, 15), (2, 16), (3, 10)]))
    count = draw(st.integers(2, 300))
    batch = draw(st.integers(1, 3))
    scale_lo = draw(st.integers(0, 3))
    scale_hi = draw(st.integers(scale_lo + 2, scale_lo + bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(0, 1 << bits, (batch, k, count))
    # Clustered clouds keep the finer scales from saturating at N.
    cells[:, :, count // 2:] >>= rng.integers(0, bits, (batch, k, 1))
    cells[:, :, 0] = 0
    cells[:, :, 1] = (1 << bits) - 1
    repeats = rng.integers(0, count, count // 3)
    cells[:, :, count - count // 3:] = cells[:, :, repeats]
    return cells, bits, scale_lo, scale_hi


@settings(max_examples=80, deadline=None)
@given(window=wide_key_grids())
def test_box_counts_of_31_and_32_bit_keys_on_both_dtypes(window):
    cells, bits, lo, hi = window
    k = cells.shape[1]
    assert fractal._key_dtype(k, bits, hi) == (np.int32 if k * bits <= 31 else np.int64)
    dtypes = [np.int64] + ([np.int32] if k * bits <= 31 else [])
    # Cells over 2^scale_hi are exact floats whose floors at scale j are
    # the cells shifted right by scale_hi - j.
    expected = [per_scale_counts(cloud.T / 2.0**hi, range(lo, hi + 1)) for cloud in cells]
    for dtype in dtypes:
        counts = count_cells(cells.astype(dtype), bits, lo, hi)
        assert [tuple(row.tolist()) for row in counts] == expected


def spread_reference(value: int, bits: int, k: int) -> int:
    """Bit i of ``value`` moved to bit k*i, one bit at a time."""
    return sum((value >> i & 1) << (k * i) for i in range(bits))


def check_spread(values, dtype, bits, k):
    # A strided view, as a tile of a batch's cells can be.
    x = np.zeros((len(values), 2), dtype=dtype)[:, 0]
    x[:] = values
    fractal._spread_bits(x, bits, k)
    assert x.dtype == dtype
    assert x.tolist() == [spread_reference(v, bits, k) for v in values]


@st.composite
def spread_inputs(draw):
    """Cells below 2^bits, with the all-ones cell among them, for k = 2..8
    on int32 (k * bits <= 32) or int64 (k * bits <= 63)."""
    k = draw(st.integers(2, 8))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    bits = draw(st.integers(1, (32 if dtype is np.int32 else 63) // k))
    values = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=40))
    return values + [(1 << bits) - 1], dtype, bits, k


@settings(max_examples=200, deadline=None)
@given(case=spread_inputs())
def test_spread_bits_matches_per_bit_reference(case):
    check_spread(*case)


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("dtype, width", [(np.int32, 31), (np.int32, 32), (np.int64, 63)])
def test_spread_bits_at_the_widest_keys(k, dtype, width):
    # The widest cells of k * bits <= width, 31 being the int32 key limit of
    # _key_dtype; all-ones cells shift the most bits past the dtype's top.
    bits = width // k
    rng = np.random.default_rng(k * width)
    values = [(1 << bits) - 1, 1 << (bits - 1), 0] + rng.integers(0, 1 << bits, 20).tolist()
    check_spread(values, dtype, bits, k)


def record_key_dtypes(monkeypatch):
    """The dtype of each tile of cells keyed."""
    dtypes = []
    real = fractal._morton_keys
    monkeypatch.setattr(fractal, "_morton_keys",
                        lambda cells, bits: dtypes.append(cells.dtype) or real(cells, bits))
    return dtypes


def test_key_dtype_follows_key_width(monkeypatch):
    # Scan-axis shaped: lines at scale_hi 17 have 18-bit keys, counted as
    # int32; at scale_hi 31 the 32-bit keys need int64.
    points = generate(fractal.cantor_on_axis(), 8).points
    angles = np.linspace(0.1, 3.0, 5)
    frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :, None]
    dtypes = record_key_dtypes(monkeypatch)
    narrow = projected_dimensions(plain_cloud(points), frames, 2, 17)
    assert dtypes and set(dtypes) == {np.dtype(np.int32)}
    dtypes.clear()
    wide = projected_dimensions(plain_cloud(points), frames, 2, 31)
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}
    assert [est.counts[:16] for est in wide] == [est.counts for est in narrow]
    # box_dimension picks the dtype from the shifted cells' bit length.
    dtypes.clear()
    box_dimension(points[:, :1], 2, 17)
    box_dimension(points[:, :1], 2, 40)
    assert dtypes == [np.dtype(np.int32), np.dtype(np.int64)]


def test_box_dimension_marks_int64_cells_by_occupancy(monkeypatch):
    # 4^8 dust points on a line at scale 13 span 2^14 cells, no more than
    # N: box_dimension marks its int64 cells as they are, where it once
    # cast them to int32 keys, which the scatter converts back to intp.  In
    # the plane at scale 9 the 2^18 cells outnumber N: the keys are sorted
    # as int32.
    points = generate(cantor_dust(), 8).points
    line = normalize_unit_box(points @ np.array([[0.6], [0.8]]))
    dtypes, spaces = record_key_dtypes(monkeypatch), record_occupancy(monkeypatch)
    est = box_dimension(line, 2, 13)
    assert dtypes == [np.dtype(np.int64)] and spaces == [1 << 14]
    assert est.counts == per_scale_counts(line, range(2, 14))
    dtypes.clear()
    plane = box_dimension(points, 2, 9)
    assert dtypes == [np.dtype(np.int32)] and spaces == [1 << 14]
    assert plane.counts == per_scale_counts(points, range(2, 10))


def test_box_counts_of_63_bit_keys():
    # k = 3 axes of 21 bits fill the 63-bit key, and a few points spread
    # over the whole grid leave jumps far above 2^53 between sorted keys.
    # In the last cloud the keys 0 and 2^57 - 1 are neighbours, one box at
    # scale hi - 19, whose float jump rounds up to 2^57.
    rng = np.random.default_rng(29)
    bits, lo, hi = 21, 0, 20
    cells = rng.integers(0, 1 << bits, (3, 3, 40))
    cells[:, :, 0] = 0
    cells[:, :, 1] = (1 << bits) - 1
    cells[-1, :, 2:] = (1 << 19) - 1
    counts = count_cells(cells.copy(), bits, lo, hi)
    for cloud, row in zip(cells, counts):
        oracle = [len(np.unique(cloud.T >> (hi - j), axis=0)) for j in range(lo, hi + 1)]
        assert row.tolist() == oracle


def polyfit_reference(scales, counts):
    x, y = np.asarray(scales, dtype=float), np.log2(counts.astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    return slope, math.sqrt(float(residuals @ residuals) / (len(x) - 2) / sxx)


def random_count_table(rng, rows, size):
    """Nondecreasing counts from 1 to about 2^20 per row, as box counts grow."""
    steps = rng.integers(0, 3, (rows, size)) * rng.random((rows, size))
    return np.maximum(1, np.round(2.0 ** np.cumsum(steps, axis=1))).astype(np.int64)


def test_fit_table_rows_independent_of_table():
    rng = np.random.default_rng(41)
    scales = list(range(2, 18))
    table = random_count_table(rng, 360, len(scales))
    # The box counter can return a Fortran-ordered table, whose row sums
    # numpy once ran in another order, off by an ulp from the row alone.
    for together in (_fit_table(scales, table), _fit_table(scales, np.asfortranarray(table))):
        for i, est in enumerate(together):
            alone = _fit_table(scales, table[i:i + 1])[0]
            assert (alone.value, alone.slope_stderr) == (est.value, est.slope_stderr)
            assert alone.counts == tuple(table[i].tolist())


def test_fit_table_matches_polyfit():
    rng = np.random.default_rng(43)
    for lo, hi in [(0, 2), (2, 8), (2, 13), (1, 17), (3, 22)]:
        scales = list(range(lo, hi + 1))
        table = random_count_table(rng, 50, len(scales))
        for row, est in zip(table, _fit_table(scales, table)):
            slope, stderr = polyfit_reference(scales, row)
            assert abs(est.value - slope) <= 1e-14
            assert abs(est.slope_stderr - stderr) <= 1e-14 * max(1.0, stderr)


def test_fit_table_constant_counts_fit_zero_exactly():
    for size in range(3, 20):
        scales = list(range(2, 2 + size))
        table = np.array([[c] * size for c in (1, 3, 7, 1000, 12345, 2**40 + 1)])
        for est in _fit_table(scales, table):
            assert (est.value, est.slope_stderr) == (0.0, 0.0)


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
    projected_dimensions(plain_cloud(points), frames, 2, 12)
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


def test_one_dimensional_array_is_one_column():
    x = np.random.default_rng(8).random(300) * 5.0 - 1.0
    column = x[:, None]
    assert PointSample(points=x, depth=0).points.tobytes() == \
        PointSample(points=column, depth=0).points.tobytes()
    assert box_dimension(x, 2, 8) == box_dimension(column, 2, 8)
    out = normalize_unit_box(x)
    assert out.shape == column.shape
    assert out.tobytes() == normalize_unit_box(column).tobytes()


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


@pytest.mark.parametrize("r_max", [0, -3])
def test_complexity_profile_rejects_r_below_one(r_max):
    # These once returned an empty profile.
    with pytest.raises(InputDomainError, match="r_max must lie in 1..64"):
        complexity_profile(np.zeros(1), r_max)


@pytest.mark.parametrize("call", [
    lambda: complexity_profile(np.zeros((0, 2)), 8),
    lambda: complexity_profile(np.zeros(0), 8),
    lambda: complexity_profile(np.zeros((2, 3, 4)), 8),
    lambda: complexity_profile(np.zeros(1), 12.0),
    lambda: complexity_profile(np.zeros(1), 5.5),
    lambda: normalize_unit_box(np.zeros((0, 2))),
], ids=["empty-cloud", "empty-vector", "3-d", "float-r_max", "fractional-r_max",
        "normalize-empty-cloud"])
def test_profile_input_out_of_domain(call):
    # Each once ended in a raw ValueError or TypeError, and the empty vector
    # in a silent all-zero profile.
    with pytest.raises(InputDomainError):
        call()


def test_complexity_profile_accepts_numpy_integer_r_max():
    assert complexity_profile(np.zeros(1), np.int64(12)) == complexity_profile(np.zeros(1), 12)


def test_complexity_profile_fraction_rounded_to_one():
    # -1e-20 - floor(-1e-20) rounds to 1.0.  At r = 64 its level 2^64 once
    # overflowed the uint64 cast with a warning and came out as zero digits.
    inputs = []
    complexity_profile(np.array([-1e-20, 0.5]), 64,
                       compressor=lambda data: inputs.append(data) or 0.0)
    for r in (63, 64):
        bits = np.unpackbits(np.frombuffer(inputs[r - 1], dtype=np.uint8))
        assert bits[:r].all()
        assert bits[r] == 1 and not bits[r + 1:2 * r].any()


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


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=600))
def test_kt_compressor_is_the_closed_form_exactly(data):
    n = 8 * len(data)
    a = int(np.unpackbits(np.frombuffer(data, dtype=np.uint8)).sum())
    expected = 0.0 if not data else (
        (math.lgamma(n + 1) + math.log(math.pi) - math.lgamma(a + 0.5)
         - math.lgamma(n - a + 0.5)) / math.log(2.0))
    assert kt_compressor(data) == expected


def truncate_bits_loop(points, r):
    """Reference truncation: one Python loop step per coordinate value, in
    Python integers; a value whose level reaches 2^r (a fractional part
    that rounded to 1.0) takes the top level, all r digits one."""
    levels = [min(math.floor(v * 2.0**r), 2**r - 1) for v in points.T.ravel().tolist()]
    bits = [(level >> (r - 1 - b)) & 1 for level in levels for b in range(r)]
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def profile_inputs(x, r_max):
    """The bytes that complexity_profile hands its compressor, one per r."""
    inputs = []
    complexity_profile(x, r_max, compressor=lambda data: inputs.append(data) or 0.0)
    return inputs


def unit_cloud(points):
    """The points of a point list that complexity_profile truncates."""
    return np.clip(normalize_unit_box(points), 0.0, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("r", [1, 7, 12, 33, 64])
def test_truncate_bits_matches_loop(r):
    rng = np.random.default_rng(r)
    pts = np.vstack([rng.random((37, 3)),
                     [[0.0, 0.5, np.nextafter(1.0, 0.0)]]])
    assert profile_inputs(pts, r)[r - 1] == truncate_bits_loop(unit_cloud(pts), r)
    # A single vector is one row of coordinates.
    assert profile_inputs(pts[0], r)[r - 1] == truncate_bits_loop(pts[:1], r)


clouds = st.tuples(st.integers(1, 50), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.floats(-1e6, 1e6), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda values: np.reshape(values, shape)))
vectors = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50).map(np.array)


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(clouds, vectors), r_max=st.integers(1, 64))
# The widths of 1, 2, 4 and 8 bytes that hold the digits change at these r_max.
@example(x=np.array([[0.1, 0.7], [0.3, 0.2], [0.9, 0.4]]), r_max=8)
@example(x=np.array([[0.1, 0.7], [0.3, 0.2], [0.9, 0.4]]), r_max=9)
@example(x=np.array([0.1, -1e-20, 0.5]), r_max=16)
@example(x=np.array([0.1, -1e-20, 0.5]), r_max=17)
@example(x=np.array([[0.25], [1.0], [0.0]]), r_max=32)
@example(x=np.array([[0.25], [1.0], [0.0]]), r_max=33)
@example(x=np.array([-1e-20, 0.5, 0.75]), r_max=64)
def test_profile_inputs_are_the_truncations(x, r_max):
    # Every level r is read off the digits extracted once at r_max; each must
    # be the r-digit truncation on its own.
    pts = (x - np.floor(x))[None, :] if x.ndim == 1 else unit_cloud(x)
    assert profile_inputs(x, r_max) == [truncate_bits_loop(pts, r)
                                        for r in range(1, r_max + 1)]


def test_dust_profile_is_pinned():
    # The input of the profile-dust benchmark.  Any change to a digit the
    # compressor gets or to the KT code length changes this hash.
    pts = generate(cantor_dust(), 6).points
    pts = pts[np.random.default_rng(7).permutation(len(pts))]
    digest = hashlib.sha256(json.dumps(complexity_profile(pts, 12)).encode()).hexdigest()
    assert digest == "60295ba76a0d780238c0030e7a721241f563752b04d2e053316bf90641676160"


def test_sample_export_round_trip(tmp_path):
    sample = generate(cantor_dust(), 4)
    path = tmp_path / "dust.bin"
    export_sample(sample, path)
    # Row-major float64 bytes, whatever the layout of the points in memory.
    expected = generate_by_concatenation(cantor_dust(), 4)
    assert path.read_bytes() == expected.astype("<f8").tobytes()
    again = load_sample(path)
    assert isinstance(again, PointSample)
    assert np.array_equal(again.points, sample.points)
    assert again.depth == 4
