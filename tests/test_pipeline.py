"""The stacked direction pipeline against the per-direction loop it replaced.

Sweeps and scans build a (D, n, n) projection stack, select every chart in
one batch and box-count the projections in batches of directions.  The
oracle below is the old loop, one direction at a time: one QR or solve per
projection, one chart and one Gram-Schmidt frame per direction, then
``box_dimension(normalize_unit_box(points @ frame))``.  Every row must agree
bit for bit.
"""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab import (Chart, ExperimentConfig, IFSSpec, InputDomainError,
                     ResourceBudgetError, box_dimension, cantor_dust,
                     cantor_on_axis, exceptional_scan, generate,
                     marstrand_sweep, normalize_unit_box, orthonormal_frame,
                     result_csv, sample_uniform)
from projlab import fractal, lab
from projlab.fractal import _box_counts, projected_dimensions
from projlab.lab import THREADS_ENV, _scan_cells_per_axis


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


def loop_projection(a):
    """Reference: projection onto span(a), one matrix at a time."""
    p = a @ np.linalg.solve(a.T @ a, a.T)
    return (p + p.T) / 2.0


def loop_haar_projection(rng, n, k):
    """Reference: one Gaussian draw orthonormalized by its own QR."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    p = q @ q.T
    return (p + p.T) / 2.0


def loop_best_subset(n, k, score):
    """Reference selector: the k-subset of range(n) with the largest score,
    one score per subset, first strict maximum."""
    best_score, best_idx = -1.0, None
    for idx in itertools.combinations(range(n), k):
        value = float(score(list(idx)))
        if value > best_score:
            best_score, best_idx = value, idx
    return best_idx


def loop_chart(p, n, k):
    """Reference: the column block of P with the largest smallest singular
    value (one SVD per subset), then its row block of largest |det| (one det
    per subset), then normalize."""
    cols = loop_best_subset(
        n, k, lambda s: np.linalg.svd(p[:, s], compute_uv=False)[-1])
    a = p[:, list(cols)]
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


def oracle_projections(cfg):
    """The projection of each direction, one direction at a time."""
    if cfg.mode == "sweep":
        return [loop_haar_projection(np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(1, i))), cfg.n, cfg.k)
                for i in range(cfg.num_directions)]
    per_axis = _scan_cells_per_axis(cfg.n, cfg.k, cfg.num_directions)
    if (cfg.n, cfg.k) == (2, 1):
        return [loop_projection(np.array([[math.cos(j * math.pi / per_axis)],
                                          [math.sin(j * math.pi / per_axis)]]))
                for j in range(per_axis)]
    centers = [-3.0 + (i + 0.5) * 6.0 / per_axis for i in range(per_axis)]
    return [loop_projection(Chart(n=cfg.n, k=cfg.k, I=tuple(range(cfg.k)),
                                  free=np.array([centers[i] for i in flat])
                                  .reshape(cfg.n - cfg.k, cfg.k)).reconstruct())
            for flat in np.ndindex(*([per_axis] * (cfg.k * (cfg.n - cfg.k))))]


def oracle_rows(cfg):
    """(chart, projected points (k, N), estimate) per direction from the old
    per-direction loop."""
    points = generate(cfg.ifs, cfg.depth).points
    out = []
    for p in oracle_projections(cfg):
        c = loop_chart(p, cfg.n, cfg.k)
        coords = points @ loop_frame(c)
        est = box_dimension(normalize_unit_box(coords), cfg.scale_lo, cfg.scale_hi)
        out.append((c, coords.T, est))
    return out


def capture_batches(monkeypatch):
    """Keep a copy of each counting batch of projected points, (B, k, N),
    before it is rescaled into the unit box.  Returns the copies in batch
    order, which on a thread pool is not the order the batches run in."""
    copies = {}
    local = threading.local()
    real_map, real_rows = lab._map_batches, fractal._unit_box_rows

    def indexed_map(fn, batches, threads):
        def run(item):
            local.index, batch = item
            return fn(batch)
        return real_map(run, list(enumerate(batches)), threads)

    def capture(rows):
        copies[local.index] = rows.copy()
        return real_rows(rows)

    monkeypatch.setattr(lab, "_map_batches", indexed_map)
    monkeypatch.setattr(fractal, "_unit_box_rows", capture)
    return copies


def in_order(copies):
    return [copies[i] for i in range(len(copies))]


def run_matches_oracle(cfg, monkeypatch):
    run = exceptional_scan if cfg.mode == "scan" else marstrand_sweep
    batches = capture_batches(monkeypatch)
    result = run(cfg)
    monkeypatch.undo()
    clouds = in_order(batches)
    expected = oracle_rows(cfg)
    assert len(result.rows) == len(expected)
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
@pytest.mark.parametrize("threads", ["1", "2"])
def test_batching_and_threads_keep_results_csv(monkeypatch, cfg, per_batch, threads):
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
    monkeypatch.setenv(THREADS_ENV, threads)
    batches = capture_batches(monkeypatch)
    result = run(cfg)
    assert [len(b) for b in in_order(batches)] == [
        min(per_batch, directions - i) for i in range(0, directions, per_batch)]
    assert result_csv(result) == reference


def test_large_sample_counts_one_direction_per_batch(monkeypatch):
    # 4^8 dust points exceed the budget of k x N coordinates.
    cfg = config(2, 1, depth=8, scale_hi=11, num_directions=4)
    assert len(generate(cfg.ifs, cfg.depth).points) > fractal.COUNT_BATCH_POINTS
    _, sizes = run_matches_oracle(cfg, monkeypatch)
    assert sizes == [1, 1, 1, 1]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3), (8, 4)])
def test_orthonormal_frame_matches_loop(n, k):
    rng = np.random.default_rng(10 * n + k)
    for _ in range(20):
        v = sample_uniform(n, k, rng)
        expected = loop_frame(loop_chart(v.proj, n, k))
        assert orthonormal_frame(v).tobytes() == expected.tobytes()


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
    counts = _box_counts(np.array(clouds.transpose(0, 2, 1), order="C"), lo, hi)
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
    with pytest.raises(InputDomainError, match="non-finite"):
        box_dimension(bad.T, 2, 8)
    with pytest.raises(InputDomainError, match="non-finite"):
        _box_counts(np.stack([good, bad]), 2, 8)
    # 3 axes x 22 bits exceed the 63-bit key; a narrow cloud does not rescue
    # the batch.
    with pytest.raises(ResourceBudgetError, match="k=3 at scale_hi=22"):
        box_dimension(good.T, 2, 22)
    with pytest.raises(ResourceBudgetError, match="k=3 at scale_hi=22"):
        _box_counts(np.stack([good * 2.0**-10, good]), 2, 22)
    huge = np.full((1, 1, 3), 1e30)
    with pytest.raises(ResourceBudgetError, match="scale_hi=8"):
        box_dimension(huge[0].T, 2, 8)
    with pytest.raises(ResourceBudgetError, match="scale_hi=8"):
        _box_counts(np.concatenate([good[:1, None, :3], huge]), 2, 8)


def test_projected_dimensions_one_frame_per_estimate():
    points = generate(random_ifs(4, 1), 5).points
    frames = np.stack([orthonormal_frame(sample_uniform(
        4, 2, np.random.default_rng(i))) for i in range(5)])
    ests = projected_dimensions(points, frames, 2, 7)
    for frame, est in zip(frames, ests):
        assert est == box_dimension(normalize_unit_box(points @ frame), 2, 7)
    with pytest.raises(InputDomainError, match="at least 3 scales"):
        projected_dimensions(points, frames, 2, 3)
