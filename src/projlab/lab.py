"""Experiment harness: Marstrand sweeps over random directions and
exceptional-direction scans against the Kaufman-type bound.

Both build a stack of projection matrices, one per direction, and hand it
to one pipeline: batched chart selection, then batched projection and box
counting (:func:`projlab.fractal.projected_dimensions`).  Per-direction RNG
streams are split from the master seed by counter, and batches of
directions are counted independently, so parallel and serial runs produce
identical results.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

# to_chart is not called here, but stays importable from this module, where
# perfbench/spans.py looks it up.
from .charts import (Chart, chart_bases, charts_of, orthonormal_frames,  # noqa: F401
                     to_chart)
from .errors import ConfigError, InputDomainError, read_fields
from .fractal import (EXHAUSTIVE_BUDGET, DimensionEstimate, IFSSpec,
                      box_dimension, generate, projected_dimensions)
from .grassmann import basis_projections, haar_projections

THREADS_ENV = "PROJLAB_THREADS"


def kaufman_bound(n: int, k: int, s: float) -> float:
    """Exceptional-set dimension bound k(n-k) + s - k."""
    if not (0 < k < n):
        raise InputDomainError(f"need 0 < k < n, got k={k}, n={n}")
    if not (0.0 < s <= k):
        raise InputDomainError(f"need 0 < s <= k, got s={s}")
    return k * (n - k) + s - k


@dataclass(frozen=True)
class ExperimentConfig:
    ifs: IFSSpec
    n: int
    k: int
    num_directions: int
    depth: int
    scale_lo: int
    scale_hi: int
    threshold_s: float
    seed: int
    mode: str  # sweep | scan

    def __post_init__(self):
        if not (0 < self.k < self.n):
            raise ConfigError(f"field k: need 0 < k < n, got k={self.k}, n={self.n}")
        if not (0.0 < self.threshold_s <= self.k):
            raise ConfigError(f"field threshold_s: need a value in (0, k], got {self.threshold_s}")
        if self.num_directions < 1:
            raise ConfigError(f"field num_directions: need >= 1, got {self.num_directions}")
        if self.depth < 1:
            raise ConfigError(f"field depth: need >= 1, got {self.depth}")
        # min(): an IFS has m >= 2 maps and 2^64 exceeds the budget, so a
        # huge depth needs no huge power.
        if len(self.ifs.maps) ** min(self.depth, 64) > EXHAUSTIVE_BUDGET:
            raise ConfigError(
                f"field depth: {len(self.ifs.maps)}^{self.depth} sample points "
                f"exceed the exhaustive budget {EXHAUSTIVE_BUDGET}")
        if self.scale_hi - self.scale_lo < 2:
            raise ConfigError(
                f"field scale_hi: need scale_hi >= scale_lo + 2 (at least 3 scales), "
                f"got scale_lo={self.scale_lo}, scale_hi={self.scale_hi}")
        # Unit-box cells reach 2^scale_hi: scale_hi + 1 bits per axis of a key.
        if self.scale_hi > 61 or self.k * (self.scale_hi + 1) > 63:
            raise ConfigError(
                f"field scale_hi: box keys need scale_hi <= 61 and k * (scale_hi + 1) "
                f"<= 63, got scale_hi={self.scale_hi} for k={self.k}")
        if self.ifs.n != self.n:
            raise ConfigError(f"field ifs: ambient dimension {self.ifs.n} != n={self.n}")
        if self.mode not in ("sweep", "scan"):
            raise ConfigError(f"field mode: unknown mode '{self.mode}'")
        if self.mode == "scan":
            cells = _scan_cells_per_axis(self.n, self.k, self.num_directions)
            if cells < 8:
                axis = "" if (self.n, self.k) == (2, 1) else " per chart axis"
                raise ConfigError(
                    f"field num_directions: scan grid too coarse: {cells} "
                    f"cells{axis} (need >= 8)")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """The config of a parsed JSON object, each field read by the cast
        of its annotation in ``_FIELD_CASTS``."""
        casts = {f.name: _FIELD_CASTS[f.type] for f in fields(cls)}
        return cls(*read_fields(obj, casts, ConfigError, "config"))

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ifs"] = json.loads(self.ifs.to_json())
        return out


# How ExperimentConfig.from_dict reads a JSON value, by field annotation.
_FIELD_CASTS = {"int": int, "float": float, "str": str,
                "IFSSpec": IFSSpec.from_json}


@dataclass(frozen=True)
class DirectionRow:
    index: int
    chart: Chart
    estimate: DimensionEstimate
    exceptional: bool
    params: tuple = ()  # grid coordinates in [0,1)^d, scans only


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    summary: dict = field(default_factory=dict)


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"field {THREADS_ENV}: not an integer: {raw!r}")


def _run(config: ExperimentConfig, projections: np.ndarray,
         params: list[tuple]) -> SweepResult:
    """The direction pipeline: charts, frames and one dimension estimate
    for each projection of a (D, n, n) stack, whose rows carry ``params``."""
    map_batches = functools.partial(_map_batches, threads=_thread_count())
    sample = generate(config.ifs, config.depth)
    index_sets, bases = chart_bases(projections, config.k)
    estimates = projected_dimensions(sample.points, orthonormal_frames(bases),
                                     config.scale_lo, config.scale_hi,
                                     map_batches)
    rows = tuple(DirectionRow(index=i, chart=c, estimate=est,
                              exceptional=est.value < config.threshold_s,
                              params=p)
                 for i, (c, est, p) in enumerate(
                     zip(charts_of(index_sets, bases), estimates, params)))
    return SweepResult(rows=rows, summary=_summarize(rows, config))


def marstrand_sweep(config: ExperimentConfig) -> SweepResult:
    """Estimate projected dimension over uniformly sampled directions."""
    if config.mode != "sweep":
        raise ConfigError(f"field mode: expected 'sweep', got '{config.mode}'")
    draws = np.stack([
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, i)))
        .standard_normal((config.n, config.k))
        for i in range(config.num_directions)])
    return _run(config, haar_projections(draws), [()] * config.num_directions)


def _scan_cells_per_axis(n: int, k: int, num_directions: int) -> int:
    """Cells along each axis of the scan grid of :func:`_grid_directions`."""
    if (n, k) == (2, 1):
        return num_directions
    return int(round(num_directions ** (1.0 / (k * (n - k)))))


def _grid_directions(config: ExperimentConfig) -> tuple[np.ndarray, list[tuple]]:
    """Deterministic direction grid: a (D, n, k) stack of bases and the
    normalized grid coordinates of each.

    G(2, 1) uses the angle parametrization (the chart by slope misses the
    vertical direction); other (n, k) use a uniform grid over the chart
    free block in [-3, 3]^{k(n-k)} of the index set (0, ..., k-1).  The
    config guarantees at least 8 cells per axis.
    """
    n, k = config.n, config.k
    per_axis = _scan_cells_per_axis(n, k, config.num_directions)
    if (n, k) == (2, 1):
        thetas = [j * math.pi / per_axis for j in range(per_axis)]
        bases = np.array([[[math.cos(t)], [math.sin(t)]] for t in thetas])
        return bases, [(j / per_axis,) for j in range(per_axis)]
    cells = list(np.ndindex(*([per_axis] * (k * (n - k)))))
    centers = np.array([-3.0 + (i + 0.5) * 6.0 / per_axis for i in range(per_axis)])
    bases = np.empty((len(cells), n, k))
    bases[:, :k] = np.eye(k)
    bases[:, k:] = centers[np.array(cells)].reshape(len(cells), n - k, k)
    return bases, [tuple(i / per_axis for i in flat) for flat in cells]


def exceptional_scan(config: ExperimentConfig) -> SweepResult:
    """Grid-scan directions, flag those whose projected dimension falls
    below threshold_s, and report the flagged set against the Kaufman bound."""
    if config.mode != "scan":
        raise ConfigError(f"field mode: expected 'scan', got '{config.mode}'")
    bases, params = _grid_directions(config)
    result = _run(config, basis_projections(bases), params)
    flagged = [r.params for r in result.rows if r.exceptional]
    if flagged:
        hi = max(4, min(8, int(math.log2(len(params)))))
        flagged_dim = box_dimension(np.asarray(flagged), 2, hi).value
    else:
        flagged_dim = 0.0
    result.summary["flagged_param_dimension"] = flagged_dim
    result.summary["caveat"] = (
        "flagged-set dimension is measured in grid parameter coordinates, "
        "not in the invariant metric on the Grassmannian")
    return result


def _map_batches(fn, batches, threads: int) -> list:
    """``fn`` of each counting batch, in order: serially, or on a pool of
    ``threads`` threads."""
    if threads == 1:
        return list(map(fn, batches))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, batches))


def _summarize(rows, config: ExperimentConfig) -> dict:
    values = [r.estimate.value for r in rows]
    return {
        "config": config.echo(),
        "mean_dim": float(np.mean(values)),
        "min_dim": float(np.min(values)),
        "exceptional_fraction": sum(r.exceptional for r in rows) / len(rows),
        "kaufman_bound": kaufman_bound(config.n, config.k, config.threshold_s),
    }


def result_csv(result: SweepResult) -> str:
    """Fixed CSV schema: index, free-block entries flattened lexicographically,
    estimate, stderr, exceptional flag.  Deterministic byte-for-byte."""
    free_width = len(result.rows[0].chart.free.ravel()) if result.rows else 0
    header = ["index"] + [f"free_{i}" for i in range(free_width)] \
        + ["est_dim", "stderr", "exceptional"]
    lines = [",".join(header)]
    for row in result.rows:
        cells = [str(row.index)]
        cells += [repr(float(x)) for x in row.chart.free.ravel()]
        cells += [repr(float(row.estimate.value)),
                  repr(float(row.estimate.slope_stderr)),
                  "true" if row.exceptional else "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
