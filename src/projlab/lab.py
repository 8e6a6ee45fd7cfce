"""Experiment harness: Marstrand sweeps over random directions and
exceptional-direction scans against the Kaufman-type bound.

Per-direction RNG streams are split from the master seed by counter, so
parallel and serial runs produce identical results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, chart_frame, from_chart, to_chart
from .errors import ConfigError, InputDomainError
from .fractal import (DimensionEstimate, IFSSpec, PointSample, box_dimension,
                      generate, normalize_unit_box, EXHAUSTIVE_BUDGET)
from .grassmann import Subspace, from_basis, sample_uniform

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
        if self.scale_hi - self.scale_lo < 2:
            raise ConfigError(
                f"field scale_hi: need scale_hi >= scale_lo + 2 (at least 3 scales), "
                f"got scale_lo={self.scale_lo}, scale_hi={self.scale_hi}")
        if self.ifs.n != self.n:
            raise ConfigError(f"field ifs: ambient dimension {self.ifs.n} != n={self.n}")
        if self.mode not in ("sweep", "scan", "grid"):
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
        required = ("ifs", "n", "k", "num_directions", "depth", "scale_lo",
                    "scale_hi", "threshold_s", "seed", "mode")
        for key in required:
            if key not in obj:
                raise ConfigError(f"field {key}: missing from config")
        try:
            ifs = IFSSpec.from_json(obj["ifs"]) if not isinstance(obj["ifs"], IFSSpec) \
                else obj["ifs"]
        except (InputDomainError, KeyError, TypeError) as exc:
            raise ConfigError(f"field ifs: {exc}") from exc
        return cls(ifs=ifs, n=int(obj["n"]), k=int(obj["k"]),
                   num_directions=int(obj["num_directions"]),
                   depth=int(obj["depth"]), scale_lo=int(obj["scale_lo"]),
                   scale_hi=int(obj["scale_hi"]),
                   threshold_s=float(obj["threshold_s"]),
                   seed=int(obj["seed"]), mode=str(obj["mode"]))

    def echo(self) -> dict:
        import json
        return {"ifs": json.loads(self.ifs.to_json()), "n": self.n, "k": self.k,
                "num_directions": self.num_directions, "depth": self.depth,
                "scale_lo": self.scale_lo, "scale_hi": self.scale_hi,
                "threshold_s": self.threshold_s, "seed": self.seed,
                "mode": self.mode}


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


def _generate_sample(config: ExperimentConfig) -> PointSample:
    m = len(config.ifs.maps)
    if m**config.depth <= EXHAUSTIVE_BUDGET:
        return generate(config.ifs, config.depth, mode="exhaustive")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    return generate(config.ifs, config.depth, mode="chaos", rng=rng)


def _estimate_direction(c: Chart, sample: PointSample,
                        config: ExperimentConfig) -> DimensionEstimate:
    coords = sample.points @ chart_frame(c)
    # Rescaling into the unit box makes the estimate invariant to the
    # direction-dependent diameter of the projected set.
    return box_dimension(normalize_unit_box(coords),
                         config.scale_lo, config.scale_hi)


def marstrand_sweep(config: ExperimentConfig) -> SweepResult:
    """Estimate projected dimension over uniformly sampled directions."""
    if config.mode != "sweep":
        raise ConfigError(f"field mode: expected 'sweep', got '{config.mode}'")
    sample = _generate_sample(config)

    def run_one(i: int) -> DirectionRow:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, i)))
        c = to_chart(sample_uniform(config.n, config.k, rng))
        est = _estimate_direction(c, sample, config)
        return DirectionRow(index=i, chart=c, estimate=est,
                            exceptional=est.value < config.threshold_s)

    rows = _run_ordered(run_one, config.num_directions)
    return SweepResult(rows=tuple(rows), summary=_summarize(rows, config))


def _scan_cells_per_axis(n: int, k: int, num_directions: int) -> int:
    """Cells along each axis of the scan grid of :func:`_grid_directions`."""
    if (n, k) == (2, 1):
        return num_directions
    return int(round(num_directions ** (1.0 / (k * (n - k)))))


def _grid_directions(config: ExperimentConfig) -> list[tuple[Subspace, tuple]]:
    """Deterministic direction grid with normalized grid coordinates.

    G(2, 1) uses the angle parametrization (the chart by slope misses the
    vertical direction); other (n, k) use a uniform grid over the chart
    free block in [-3, 3]^{k(n-k)}.  The config guarantees at least 8 cells
    per axis.
    """
    per_axis = _scan_cells_per_axis(config.n, config.k, config.num_directions)
    if (config.n, config.k) == (2, 1):
        out = []
        for j in range(per_axis):
            theta = j * math.pi / per_axis
            v = from_basis(np.array([[math.cos(theta)], [math.sin(theta)]]))
            out.append((v, (j / per_axis,)))
        return out
    dim = config.k * (config.n - config.k)
    centers = [-3.0 + (i + 0.5) * 6.0 / per_axis for i in range(per_axis)]
    out = []
    base_i = tuple(range(config.k))
    for flat in np.ndindex(*([per_axis] * dim)):
        free = np.array([centers[i] for i in flat]).reshape(config.n - config.k,
                                                            config.k)
        chart = Chart(n=config.n, k=config.k, I=base_i, free=free)
        out.append((from_chart(chart), tuple(i / per_axis for i in flat)))
    return out


def exceptional_scan(config: ExperimentConfig) -> SweepResult:
    """Grid-scan directions, flag those whose projected dimension falls
    below threshold_s, and report the flagged set against the Kaufman bound."""
    if config.mode != "scan":
        raise ConfigError(f"field mode: expected 'scan', got '{config.mode}'")
    sample = _generate_sample(config)
    directions = _grid_directions(config)

    def run_one(i: int) -> DirectionRow:
        v, params = directions[i]
        c = to_chart(v)
        est = _estimate_direction(c, sample, config)
        return DirectionRow(index=i, chart=c, estimate=est,
                            exceptional=est.value < config.threshold_s,
                            params=params)

    rows = _run_ordered(run_one, len(directions))
    summary = _summarize(rows, config)
    flagged = [r.params for r in rows if r.exceptional]
    if flagged:
        hi = max(4, min(8, int(math.log2(len(directions)))))
        flagged_dim = box_dimension(np.asarray(flagged), 2, hi).value
    else:
        flagged_dim = 0.0
    summary["flagged_param_dimension"] = flagged_dim
    summary["caveat"] = (
        "flagged-set dimension is measured in grid parameter coordinates, "
        "not in the invariant metric on the Grassmannian")
    return SweepResult(rows=tuple(rows), summary=summary)


def _run_ordered(fn, count: int) -> list:
    threads = _thread_count()
    if threads == 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


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
