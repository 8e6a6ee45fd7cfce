"""The stacked direction pipeline against the per-direction loop it replaced.

Sweeps and scans build a (D, n, k) stack of bases, chart every basis in one
batch and box-count the projections in batches of directions.  The oracle
below is the loop, one direction at a time: one QR per sweep draw (a scan's
grid basis as it is), the row block of largest |det| by one det per subset,
the chart basis A A_J^-1 and its Gram-Schmidt frame, then
``box_dimension(normalize_unit_box(points @ frame))``.  Every row must agree
bit for bit.
"""

import itertools
import math
import threading
import tracemalloc
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import (Chart, ExperimentConfig, IFSSpec, InputDomainError,
                     ResourceBudgetError, Subspace, box_dimension, cantor_dust,
                     cantor_on_axis, exceptional_scan, generate,
                     marstrand_sweep, normalize_unit_box, orthonormal_frame,
                     result_csv, sample_uniform)
from projlab import fractal
from projlab.fractal import TiledSample, projected_dimensions
from projlab.lab import _scan_cells_per_axis
from test_fractal import count_cells, plain_cloud, record_occupancy, word_cloud


def random_ifs(n, seed):
    """Three similarities of ratio 0.4 in R^n, translations in [0, 0.6]^n."""
    rng = np.random.default_rng(seed)
    return IFSSpec(n=n, maps=tuple((0.4, rng.uniform(0.0, 0.6, n))
                                   for _ in range(3)))


def config(n, k, mode="sweep", **overrides):
    base = dict(ifs=cantor_dust() if n == 2 else random_ifs(n, 10 * n + k),
                n=n, k=k, num_directions=9, depth=6 if n == 2 else 5,
                scale_lo=2, scale_hi=8, threshold_s=0.5, seed=n + k,
                mode=mode)
    base.update(overrides)
    return ExperimentConfig(**base)


def loop_haar_basis(rng, n, k):
    """Reference: one Gaussian draw orthonormalized by its own QR."""
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def loop_best_subset(n, k, score):
    """Reference selector: the k-subset of range(n) with the largest score,
    one score per subset, first strict maximum."""
    best_score, best_idx = -1.0, None
    for idx in itertools.combinations(range(n), k):
        value = float(score(list(idx)))
        if value > best_score:
            best_score, best_idx = value, idx
    return best_idx


def loop_eigenbasis(p, n, k):
    """Reference: the eigenvectors of the k largest eigenvalues of the
    symmetrized projection P, one plane at a time."""
    return np.linalg.eigh((p + p.T) / 2.0)[1][:, n - k:]


def loop_chart(a, n, k):
    """Reference: the row block of the basis A with the largest |det| (one
    det per subset), then normalize."""
    idx = loop_best_subset(n, k, lambda s: abs(np.linalg.det(a[s, :])))
    a_prime = a @ np.linalg.inv(a[list(idx), :])
    others = [i for i in range(n) if i not in set(idx)]
    return Chart(n=n, k=k, I=idx, free=a_prime[others, :])


def loop_frame(c):
    """Reference: modified Gram-Schmidt of one chart basis."""
    q = c.reconstruct()
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


def oracle_bases(cfg):
    """The basis of each direction, one direction at a time."""
    if cfg.mode == "sweep":
        return [loop_haar_basis(np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(1, i))), cfg.n, cfg.k)
                for i in range(cfg.num_directions)]
    per_axis = _scan_cells_per_axis(cfg.n, cfg.k, cfg.num_directions)
    if (cfg.n, cfg.k) == (2, 1):
        return [np.array([[math.cos(j * math.pi / per_axis)],
                          [math.sin(j * math.pi / per_axis)]])
                for j in range(per_axis)]
    centers = [-3.0 + (i + 0.5) * 6.0 / per_axis for i in range(per_axis)]
    return [Chart(n=cfg.n, k=cfg.k, I=tuple(range(cfg.k)),
                  free=np.array([centers[i] for i in flat])
                  .reshape(cfg.n - cfg.k, cfg.k)).reconstruct()
            for flat in np.ndindex(*([per_axis] * (cfg.k * (cfg.n - cfg.k))))]


def oracle_rows(cfg):
    """(chart, projected points (k, N), estimate) per direction from the old
    per-direction loop."""
    points = generate(cfg.ifs, cfg.depth).points
    out = []
    for a in oracle_bases(cfg):
        c = loop_chart(a, cfg.n, cfg.k)
        coords = points @ loop_frame(c)
        est = box_dimension(normalize_unit_box(coords), cfg.scale_lo, cfg.scale_hi)
        out.append((c, coords.T, est))
    return out


def capture_batches(monkeypatch):
    """Keep a copy of each counting batch of projected points, (B, k, N),
    before it is rescaled into the unit box, in the order the batches run."""
    copies = []
    real_grid = fractal._unit_box_grid

    def capture(rows, scale, *words):
        copies.append(rows.copy())
        return real_grid(rows, scale, *words)

    monkeypatch.setattr(fractal, "_unit_box_grid", capture)
    return copies


def run_matches_oracle(cfg, monkeypatch):
    run = exceptional_scan if cfg.mode == "scan" else marstrand_sweep
    clouds = capture_batches(monkeypatch)
    result = run(cfg)
    monkeypatch.undo()
    expected = oracle_rows(cfg)
    assert len(result.rows) == len(expected)
    # zip stops at the shortest input: every row must have its batch.
    assert sum(map(len, clouds)) == len(result.rows)
    for row, cloud, (c, coords, est) in zip(result.rows, np.concatenate(clouds),
                                            expected):
        assert row.chart.I == c.I
        assert row.chart.free.tobytes() == c.free.tobytes()
        assert cloud.tobytes() == coords.tobytes()
        assert row.estimate.value.hex() == est.value.hex()
        assert row.estimate.slope_stderr.hex() == est.slope_stderr.hex()
        assert row.estimate.counts == est.counts
        assert row.exceptional == (est.value < cfg.threshold_s)
    return result, [len(b) for b in clouds]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (8, 4)])
def test_sweep_matches_per_direction_loop(n, k, monkeypatch):
    run_matches_oracle(config(n, k), monkeypatch)


@pytest.mark.parametrize("n, k, cells", [(2, 1, 24), (3, 1, 64), (3, 2, 81)])
def test_scan_matches_per_direction_loop(n, k, cells, monkeypatch):
    cfg = config(n, k, mode="scan", num_directions=cells,
                 **({"ifs": cantor_on_axis()} if n == 2 else {}))
    result, _ = run_matches_oracle(cfg, monkeypatch)
    per_axis = _scan_cells_per_axis(n, k, cells)
    expected = list(itertools.product(range(per_axis), repeat=k * (n - k)))
    assert [r.params for r in result.rows] == [
        tuple(i / per_axis for i in flat) for flat in expected]


@pytest.mark.parametrize("cfg", [config(3, 2, num_directions=8),
                                 config(3, 2, mode="scan", num_directions=64)],
                         ids=["sweep", "scan"])
@pytest.mark.parametrize("per_batch", [1, 3, None])
def test_batching_keeps_results_csv(monkeypatch, cfg, per_batch):
    run = exceptional_scan if cfg.mode == "scan" else marstrand_sweep
    reference = result_csv(run(cfg))
    directions = 64 if cfg.mode == "scan" else 8
    if per_batch is None:
        # The default budget holds every direction of these small samples.
        per_batch = directions
    else:
        points = len(generate(cfg.ifs, cfg.depth).points)
        monkeypatch.setattr(fractal, "COUNT_BATCH_POINTS",
                            per_batch * points * cfg.k)
    batches = capture_batches(monkeypatch)
    result = run(cfg)
    assert [len(b) for b in batches] == [
        min(per_batch, directions - i) for i in range(0, directions, per_batch)]
    assert result_csv(result) == reference


def record_grids(monkeypatch):
    """Keep each counting batch's base rows and word shifts, and the unit-box
    grid (lo, width) found for them, in the order the batches run."""
    grids = []
    real_grid = fractal._unit_box_grid

    def record(rows, scale, *words):
        grid = real_grid(rows, scale, *words)
        grids.append((rows.copy(), None if words[-1] is None else words[-1].copy(), *grid))
        return grid

    monkeypatch.setattr(fractal, "_unit_box_grid", record)
    return grids


def test_large_sample_counts_as_word_images(monkeypatch):
    # 4^8 dust points exceed the budget of k x N coordinates: the sweep
    # counts the 4 word images of a 4^7-point base tile, two lines a batch.
    cfg = config(2, 1, depth=8, scale_hi=11, num_directions=4)
    points = generate(cfg.ifs, cfg.depth).points
    assert len(points) > fractal.COUNT_BATCH_POINTS
    sample = fractal.tiled_sample(cfg.ifs, cfg.depth, cfg.k)
    assert len(sample.base) == 4**7 and len(sample.ratios) == 4
    grids = record_grids(monkeypatch)
    result = marstrand_sweep(cfg)
    monkeypatch.undo()
    assert [len(rows) for rows, *_ in grids] == [2, 2]
    expected = oracle_rows(cfg)
    assert len(result.rows) == len(expected)
    base_rows = np.concatenate([rows for rows, *_ in grids])
    shifts = np.concatenate([shift for _, shift, *_ in grids])
    for row, rows, shift, (c, coords, est) in zip(result.rows, base_rows, shifts, expected):
        assert row.chart.I == c.I
        assert row.chart.free.tobytes() == c.free.tobytes()
        frame = loop_frame(c)
        assert rows.tobytes() == (sample.base @ frame).T.tobytes()
        assert shift.tobytes() == (sample.offsets @ frame).T.tobytes()
        # The factored projection is the projection of generate's sample to
        # a few ulps, and counts like it on the materialized per-frame loop.
        cloud = word_cloud(sample, frame)
        assert np.abs(cloud - coords.T).max() <= 8 * np.spacing(np.abs(coords).max())
        assert row.estimate.value.hex() == est.value.hex()
        assert row.estimate.slope_stderr.hex() == est.slope_stderr.hex()
        assert row.estimate.counts == est.counts
        assert row.exceptional == (est.value < cfg.threshold_s)


@st.composite
def tiled_samples(draw, lines=False):
    """A random IFS of 2-4 maps with unequal ratios, or with one ratio, in
    R^2 or R^3, or the Cantor dust, sampled at 729-2048 points; a budget
    that splits it into m^p words, p = 0 (one identity word), 1 or 2, and
    on some samples of p >= 1 a word whose ratio is to be zeroed; k-frames,
    random and, on lines, constant or within a degree of an axis, of either
    sign; and a scale window on the occupancy or the sort path.  ``lines``
    fixes k = 1 and the occupancy path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="dust"):
        spec = cantor_dust()
    else:
        ratios = rng.uniform(0.15, 0.6, draw(st.integers(2, 4), label="maps"))
        if draw(st.booleans(), label="one ratio"):
            ratios[:] = ratios[0]
        n = draw(st.sampled_from([2, 3]), label="n")
        spec = IFSSpec(n=n, maps=tuple((r, rng.uniform(-1.0, 1.0, n)) for r in ratios))
    m, n = len(spec.maps), spec.n
    k = 1 if lines else draw(st.integers(1, n - 1), label="k")
    depth = {2: 11, 3: 6, 4: 5}[m]
    p = draw(st.integers(0, 2), label="p")
    budget = draw(st.integers(k * m**(depth - p), k * m**(depth - p + 1) - 1), label="budget")
    zero = draw(st.none() | st.integers(0, m**p - 1), label="zero ratio") if p else None
    frames = [orthonormal_frame(sample_uniform(n, k, rng))
              for _ in range(draw(st.integers(0 if k == 1 else 1, 4), label="frames"))]
    if k == 1:
        kinds = st.lists(st.sampled_from(["constant", "near-axis"]), min_size=not frames,
                         max_size=2)
        for kind in draw(kinds, label="line frames"):
            angle = rng.integers(2) * math.pi / 2 + math.radians(rng.uniform(-1.0, 1.0))
            line = np.zeros((n, 1))
            if kind == "near-axis":
                line[:2, 0] = rng.choice([-1.0, 1.0]) * np.array([np.cos(angle), np.sin(angle)])
            frames.append(line)
    # The finest scale whose 2^(k (hi + 1)) cells are no more than the
    # points; coarser scales put more points in each cell.
    fill = int(math.log2(m**depth)) // k - 1
    path = "occupancy" if lines else draw(st.sampled_from(["occupancy", "sort"]), label="path")
    if path == "occupancy":
        hi = max(2, fill - draw(st.integers(0, 3), label="under"))
    else:
        hi = fill + draw(st.integers(1, 3), label="over")
    lo = draw(st.integers(0, hi - 2), label="scale_lo")
    return spec, depth, k, budget, p, zero, np.stack(frames), path, lo, hi


def budget_sample(monkeypatch, spec, depth, k, budget, zero):
    """The tiled sample of ``spec`` at ``depth`` for k-frames under the
    counting budget, which stays set in ``monkeypatch``, with word
    ``zero``'s ratio zeroed (unless it is None)."""
    monkeypatch.setattr(fractal, "COUNT_BATCH_POINTS", budget)
    sample = fractal.tiled_sample(spec, depth, k)
    if zero is None:
        return sample
    ratios = sample.ratios.copy()
    ratios[zero] = 0.0
    return TiledSample(sample.base, ratios, sample.offsets)


@settings(max_examples=60, deadline=None)
@given(case=tiled_samples())
def test_word_images_count_like_their_materialized_cloud(case):
    spec, depth, k, budget, p, zero, frames, path, lo, hi = case
    with pytest.MonkeyPatch.context() as mp:
        sample = budget_sample(mp, spec, depth, k, budget, zero)
        occupied, grids = record_occupancy(mp), record_grids(mp)
        ests = projected_dimensions(sample, frames, lo, hi)
    assert len(sample.ratios) == len(spec.maps)**p
    assert bool(occupied) == (path == "occupancy")
    row_lo = np.concatenate([grid_lo for *_, grid_lo, _ in grids])
    widths = np.concatenate([width for *_, width in grids])
    for frame, est, lo_row, width in zip(frames, ests, row_lo, widths, strict=True):
        cloud = word_cloud(sample, frame)
        # Each row's bounds are the minimum and maximum over all word images.
        span = cloud.max(axis=0) - cloud.min(axis=0)
        assert lo_row.ravel().tobytes() == cloud.min(axis=0).tobytes()
        assert width.ravel().tobytes() == np.where(
            span > fractal.DEGENERATE_SPAN, span * 2.0**-hi, np.inf).tobytes()
        reference = box_dimension(normalize_unit_box(cloud), lo, hi)
        assert est.counts == reference.counts
        assert est == reference


def record_line_tables(monkeypatch):
    """One flag per table of line cells computed: True for the windows of
    refined blocks, which are computed in place in their gathered points,
    False for block ends."""
    tables = []
    real = fractal._line_image_cells

    def record(x, words, ratios, shifts, lo, width, floats, cells):
        tables.append(floats is x)
        return real(x, words, ratios, shifts, lo, width, floats, cells)

    monkeypatch.setattr(fractal, "_line_image_cells", record)
    return tables


def test_line_cells_count_like_their_materialized_cloud():
    # On lines the occupancy path reads each word image's cells at the ends
    # of blocks of the sorted rows and computes a block point by point only
    # where its end cells differ by 2 or more.  Gaps of near-axis dust
    # lines and coarse scales span such blocks, so some example refines.
    # The one identity word (p = 0) is marked point by point instead.
    refined = []

    @settings(max_examples=60, deadline=None)
    @given(case=tiled_samples(lines=True))
    def check(case):
        spec, depth, k, budget, p, zero, frames, path, lo, hi = case
        with pytest.MonkeyPatch.context() as mp:
            sample = budget_sample(mp, spec, depth, k, budget, zero)
            occupied, tables = record_occupancy(mp), record_line_tables(mp)
            ests = projected_dimensions(sample, frames, lo, hi)
        assert occupied and bool(tables) == (p >= 1)
        assert not tables or not tables[0]
        refined.extend(tables)
        for frame, est in zip(frames, ests, strict=True):
            assert est == box_dimension(normalize_unit_box(word_cloud(sample, frame)), lo, hi)

    check()
    assert any(refined)


def test_dust_sweep_holds_no_sample_sized_array():
    # Numpy reports its data buffers to tracemalloc.  The sweep-dust run of
    # the benchmark: 4^10 dust points on 6 lines.  Its float64 coordinates
    # alone would take 8 MiB; the sweep counts the 64 word images of a
    # 4^7-point base tile instead.
    cfg = config(2, 1, depth=10, scale_hi=13, num_directions=6, threshold_s=0.9, seed=7)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        marstrand_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20 < 4**10 * np.dtype(float).itemsize


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3), (8, 4)])
def test_orthonormal_frame_matches_loop(n, k):
    rng = np.random.default_rng(10 * n + k)
    for _ in range(20):
        v = sample_uniform(n, k, rng)
        # The plane as sampled, with its QR basis, and as given by its
        # projection, with the eigenbasis of that projection.
        for plane, basis in [(v, v.basis),
                             (Subspace(n=n, k=k, proj=v.proj), loop_eigenbasis(v.proj, n, k))]:
            expected = loop_frame(loop_chart(basis, n, k))
            assert orthonormal_frame(plane).tobytes() == expected.tobytes()


@st.composite
def cloud_batches(draw):
    """B clouds of N points in R^k with repeated points, and some clouds
    with a constant axis."""
    k = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 6))
    count = draw(st.integers(1, 300))
    scale_lo = draw(st.integers(0, 3))
    scale_hi = draw(st.integers(scale_lo + 2, scale_lo + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = rng.choice([2.0**-5, 0.5, 1.0], batch)[:, None, None]
    origins = rng.uniform(-4.0, 4.0, (batch, 1, k))
    clouds = origins + widths * rng.random((batch, count, k))
    repeats = rng.integers(0, count, size=(batch, count // 3))
    for b in range(batch):
        clouds[b, :count // 3] = clouds[b, repeats[b]]
        if rng.random() < 0.3:
            clouds[b, :, rng.integers(k)] = rng.random()
    return clouds, scale_lo, scale_hi


@settings(max_examples=80, deadline=None)
@given(window=cloud_batches())
def test_batched_counts_equal_per_cloud_box_dimension(window):
    clouds, lo, hi = window
    # The pipeline's domain: each cloud rescaled into the unit box, whose
    # cells at scale_hi lie in [0, 2^scale_hi] and need hi + 1 bits.
    clouds = [normalize_unit_box(cloud) for cloud in clouds]
    cells = np.floor(np.stack([c.T for c in clouds]) * 2.0**hi).astype(np.int64)
    counts = count_cells(cells, hi + 1, lo, hi)
    for cloud, row in zip(clouds, counts):
        assert tuple(row.tolist()) == box_dimension(cloud, lo, hi).counts
        for j, count in zip(range(lo, hi + 1), row):
            assert count == len({tuple(math.floor(c * 2.0**j) for c in p)
                                 for p in cloud.tolist()})


def test_batched_counter_raises_like_box_dimension():
    rng = np.random.default_rng(5)
    good = rng.random((3, 100))
    bad = good.copy()
    bad[1, 7] = np.nan
    identity = np.eye(3)[None]
    with pytest.raises(InputDomainError, match="non-finite"):
        box_dimension(bad.T, 2, 8)
    with pytest.raises(InputDomainError, match="non-finite"):
        projected_dimensions(plain_cloud(bad.T), identity, 2, 8)
    # 3 axes x 22 bits exceed the 63-bit key.  The pipeline refuses before
    # it projects, so the NaN is never reached.
    with pytest.raises(ResourceBudgetError, match="k=3 at scale_hi=22"):
        box_dimension(good.T, 2, 22)
    with pytest.raises(ResourceBudgetError, match="k=3 at scale_hi=22"):
        projected_dimensions(plain_cloud(bad.T), identity, 2, 22)
    huge = np.full((1, 1, 3), 1e30)
    with pytest.raises(ResourceBudgetError, match="scale_hi=8"):
        box_dimension(huge[0].T, 2, 8)


def test_projected_dimensions_one_frame_per_estimate():
    points = generate(random_ifs(4, 1), 5).points
    frames = np.stack([orthonormal_frame(sample_uniform(
        4, 2, np.random.default_rng(i))) for i in range(5)])
    ests = projected_dimensions(plain_cloud(points), frames, 2, 7)
    for frame, est in zip(frames, ests):
        assert est == box_dimension(normalize_unit_box(points @ frame), 2, 7)
    with pytest.raises(InputDomainError, match="at least 3 scales"):
        projected_dimensions(plain_cloud(points), frames, 2, 3)


@pytest.mark.parametrize("points, frames", [
    (np.random.default_rng(0).random((10, 3)), np.zeros((0, 3, 2))),
    (np.zeros((0, 3)), np.eye(3)[None, :, :2]),
], ids=["no-frames", "empty-cloud"])
def test_projected_dimensions_rejects_empty_input(points, frames):
    # These once died in np.concatenate with a raw ValueError and in the
    # batch size with a raw ZeroDivisionError.
    with pytest.raises(InputDomainError, match="empty|nonempty"):
        projected_dimensions(plain_cloud(points), frames, 2, 8)


def test_batch_workspace_is_fully_overwritten(monkeypatch):
    # 729 points on planes: batches of 22 and 8 frames share one workspace.
    # Each batch writes every row and cell it reads, so neither the bytes
    # the workspace starts with nor the tail a smaller batch leaves reach a
    # count.
    points = generate(random_ifs(4, 1), 6).points
    frames = np.stack([orthonormal_frame(sample_uniform(
        4, 2, np.random.default_rng(i))) for i in range(30)])
    fresh = projected_dimensions(plain_cloud(points), frames, 2, 7)
    real_empty, shapes = np.empty, []

    def filled_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)  # NaN rows and -1 cells
        shapes.append(out.shape)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", filled_empty)
        assert projected_dimensions(plain_cloud(points), frames, 2, 7) == fresh
    assert shapes.count((22, 2, 729)) == 2
    # Two calls at once: the first to reach a batch is held there until the
    # other call has run to the end, so each needs its own workspace.
    release, arrivals = threading.Event(), itertools.count()
    real_grid = fractal._unit_box_grid

    def held_rows(rows, scale, *words):
        if next(arrivals) == 0:
            release.wait(timeout=60)
        return real_grid(rows, scale, *words)

    monkeypatch.setattr(fractal, "_unit_box_grid", held_rows)
    with ThreadPoolExecutor(max_workers=2) as pool:
        calls = [pool.submit(projected_dimensions, plain_cloud(points), frames, 2, 7)
                 for _ in range(2)]
        wait(calls, timeout=60, return_when=FIRST_COMPLETED)
        release.set()
        assert [call.result() for call in calls] == [fresh, fresh]


def test_projected_dimensions_keeps_nothing_after_the_call(monkeypatch):
    # Numpy reports its data buffers to tracemalloc.  One line per batch on
    # 4^depth points, given as the 4 or 16 word images of a 4^8-point base
    # tile and counted by occupancy (2^12 cells at scale 11): a workspace of
    # N0 float64 rows (sorted in place), N0 float64 images and one intp
    # tile of at most COUNT_BATCH_POINTS coordinates, which hold the cell
    # tables of block ends and refined windows, their jumps and window
    # indices, and no N-sized array.
    monkeypatch.setattr(fractal, "COUNT_BATCH_POINTS", 4**8)
    angles = np.linspace(0.0, math.pi, 5, endpoint=False)
    frames = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :, None]
    for depth, words in ((9, 4), (10, 16)):
        sample = fractal.tiled_sample(cantor_dust(), depth, 1)
        assert sample.base.shape == (4**8, 2) and len(sample.ratios) == words
        workspace = len(sample.base) * (8 + 8 + np.dtype(np.intp).itemsize)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            projected_dimensions(sample, frames, 2, 11)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - start < 16 * 1024
        assert workspace <= peak - start < 1.25 * workspace
    # 2^20 points: below the float64 rows and int32 cells that the
    # occupancy path once allocated.
    assert peak - start < 4**depth * (8 + 4)


@pytest.mark.parametrize("points, frames, message", [
    (np.zeros((50, 3)), np.zeros((2, 4, 1)),
     r"\(D, n, k\) frame stack for n=3, got shape \(2, 4, 1\)"),
    (np.zeros((50, 3)), np.zeros((3, 2)),
     r"\(D, n, k\) frame stack for n=3, got shape \(3, 2\)"),
    (np.zeros((50, 3, 1)), np.zeros((1, 3, 2)),
     r"\(N0, n\) base tile.*got shapes \(50, 3, 1\)"),
    (np.zeros(50), np.zeros((1, 1, 1)), r"\(N0, n\) base tile.*got shapes \(50,\)"),
], ids=["mismatched-n", "2-d-frames", "3-d-points", "1-d-points"])
def test_projected_dimensions_rejects_bad_shapes(points, frames, message):
    # These once died in the matmul with a raw ValueError, in the frame
    # shape with a raw IndexError, or broadcast into an estimate.
    with pytest.raises(InputDomainError, match=message):
        projected_dimensions(plain_cloud(points), frames, 2, 8)
