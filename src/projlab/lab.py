"""Experiment harness: Marstrand sweeps over random directions and
exceptional-direction scans against the Kaufman-type bound.

Both build a (D, n, k) stack of bases, one per direction, and hand it to
one pipeline: batched chart selection on the bases themselves
(:func:`projlab.charts.chart_bases`; a sweep passes the orthonormal QR
factors of its Gaussian draws, a scan its grid bases as they are, and no
projection matrix is formed), then batched projection and box counting
(:func:`projlab.fractal.projected_dimensions`), which counts the batches of
directions one after another.  The sample is never
materialized: :func:`projlab.fractal.tiled_sample` gives it as the
similarity images of one base tile small enough for a counting batch, and
the counter projects the base once per batch and streams the images
through one kernel that turns them into cells.  On lines over few enough
cells, for a sample of two or more words (a sweep of the dust), it sorts
each projected base row once and reads each image's cells only at the ends
of sorted blocks and inside the blocks whose end cells differ by 2 or
more: a cell is monotone in the projected coordinate, so no other cell lies
between the ends, and the counts are those of every point.  A sample that
fits one batch is its one identity word, whose cells are marked point by
point.  A sweep draws direction i from numpy's stream
``default_rng(SeedSequence(seed, spawn_key=(1, i)))``, so a seed fixes every
result; :func:`_direction_draws` splits all the streams in one vectorized
seed-sequence hash.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# to_chart is not called here, but stays importable from this module, where
# perfbench/test_perfbench.py looks it up.
from .charts import (Chart, chart_bases, charts_of, orthonormal_frames,  # noqa: F401
                     to_chart)
from .errors import (ConfigError, InputDomainError, config_check, integer, integer_argument,
                     read_fields, real)
from .fractal import (DimensionEstimate, IFSSpec, _sample_depth, _scales, _unit_box_key,
                      box_dimension, projected_dimensions, tiled_sample)
from .grassmann import _dimensions, haar_bases


def kaufman_bound(n: int, k: int, s: float) -> float:
    """Exceptional-set dimension bound k(n-k) + s - k, for integers
    0 < k < n and a real 0 < s <= k."""
    n, k = _dimensions(n, k)
    if not (isinstance(s, numbers.Real) and 0.0 < s <= k):
        raise InputDomainError(f"need a real 0 < s <= k, got s={s!r}")
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
        # A rule that the library owns is its call, re-raised naming the field.
        # The int fields are stored typed; a frozen dataclass keeps them in __dict__.
        self.__dict__.update({f.name: config_check(f"field {f.name}", integer_argument, f.name,
                                                   getattr(self, f.name))
                              for f in fields(self) if f.type == "int"})
        config_check("field k", _dimensions, self.n, self.k)
        config_check("field threshold_s", kaufman_bound, self.n, self.k, self.threshold_s)
        if self.seed < 0:
            raise ConfigError(f"field seed: need >= 0, got {self.seed}")
        if self.num_directions < 1:
            raise ConfigError(f"field num_directions: need >= 1, got {self.num_directions}")
        if not isinstance(self.ifs, IFSSpec):
            raise ConfigError(f"field ifs: need an IFSSpec, got {self.ifs!r}")
        if self.depth < 1:
            raise ConfigError(f"field depth: need >= 1, got {self.depth}")
        config_check("field depth", _sample_depth, self.ifs, self.depth)
        config_check("field scale_lo, field scale_hi", _scales, self.scale_lo, self.scale_hi)
        config_check("field scale_hi", _unit_box_key, self.k, self.scale_hi)
        if self.ifs.n != self.n:
            raise ConfigError(f"field ifs: ambient dimension {self.ifs.n} != n={self.n}")
        if self.mode not in ("sweep", "scan"):
            raise ConfigError(f"field mode: unknown mode '{self.mode}'")
        if self.num_directions > 1 << 32:
            # A sweep seeds direction i's stream with the 32-bit spawn word i,
            # and a scan's grid size is a float root of num_directions.
            raise ConfigError(f"field num_directions: need <= 2^32, got {self.num_directions}")
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
        return ({f.name: getattr(self, f.name) for f in fields(self)}
                | {"ifs": json.loads(self.ifs.to_json())})


# How ExperimentConfig.from_dict reads a JSON value, by field annotation.
_FIELD_CASTS = {"int": integer, "float": real, "str": str,
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


def _run(config: ExperimentConfig, bases: np.ndarray,
         params: list[tuple]) -> SweepResult:
    """The direction pipeline: charts, frames and one dimension estimate
    for the plane of each basis of a (D, n, k) stack, whose rows carry
    ``params``."""
    sample = tiled_sample(config.ifs, config.depth, config.k)
    index_sets, charted = chart_bases(bases)
    estimates = projected_dimensions(sample, orthonormal_frames(charted),
                                     config.scale_lo, config.scale_hi)
    rows = tuple(DirectionRow(index=i, chart=c, estimate=est,
                              exceptional=est.value < config.threshold_s,
                              params=p)
                 for i, (c, est, p) in enumerate(
                     zip(charts_of(index_sets, charted), estimates, params)))
    return SweepResult(rows=rows, summary=_summarize(rows, config))


def marstrand_sweep(config: ExperimentConfig) -> SweepResult:
    """Estimate projected dimension over uniformly sampled directions."""
    if config.mode != "sweep":
        raise ConfigError(f"field mode: expected 'sweep', got '{config.mode}'")
    draws = _direction_draws(config.seed, config.num_directions, (config.n, config.k))
    return _run(config, haar_bases(draws), [()] * config.num_directions)


# numpy's SeedSequence hash (O'Neill's seed_seq mixer, pool of 4 uint32
# words) and the 128-bit multiplier of PCG64's LCG.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int):
    """The endless pairs (h, h * mult) of a seed-sequence hash constant h
    that each hash step multiplies by ``mult``."""
    while True:
        step = init * mult & _MASK32
        yield init, step
        init = step


def _hash(value, consts):
    """One seed-sequence hash step of a uint32 Python int or array."""
    h, step = next(consts)
    value = (value ^ h) * step & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """The seed-sequence mix of pool word ``x`` with hashed word ``y``."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _spawned_states(seed: int, count: int) -> np.ndarray:
    """The (count, 4) uint64 words ``SeedSequence(seed, spawn_key=(1, i))
    .generate_state(4, np.uint64)`` for i < count <= 2^32, all at once.

    The seed sequence hashes its entropy words (the seed's little-endian
    32-bit words, padded with zeros to the pool size 4, then 1 and i) into a
    pool of 4 words and hashes the pool out into the state, all in uint32
    arithmetic.  The words before i are mixed once, as Python ints, and the
    steps from i on run on uint32 arrays over every i.
    """
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy)) + [1, np.arange(count, dtype=np.uint32)]
    consts = _hash_consts(_HASH_INIT_A, _HASH_MULT_A)
    # uint32 products wrap by design; numpy would warn of that on scalars.
    with np.errstate(over="ignore"):
        pool = [_hash(word, consts) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hash(word, consts))
        consts = _hash_consts(_HASH_INIT_B, _HASH_MULT_B)
        words = np.stack([_hash(pool[j % 4], consts) for j in range(8)], axis=1)
    # Pairs of 32-bit words read as little-endian uint64, as numpy reads them.
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _direction_draws(seed: int, count: int, shape: tuple) -> np.ndarray:
    """(count, *shape) standard normals whose row i is, bit for bit,
    ``default_rng(SeedSequence(seed, spawn_key=(1, i))).standard_normal(shape)``.

    One reused ``PCG64`` takes each row's seeded state: PCG's setseq
    seeding of the state words (s1, s0, i1, i0), read as the 128-bit
    s = s1 s0 and i = i1 i0, is ``inc = (i << 1) | 1`` and
    ``state = (inc + s) * mult + inc`` mod 2^128.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    draws = np.empty((count, *shape))
    for out, (s1, s0, i1, i0) in zip(draws, _spawned_states(seed, count).tolist()):
        inc = (i1 << 65 | i0 << 1 | 1) & _MASK128
        state["state"] = {"state": ((s1 << 64 | s0) + inc) * _PCG64_MULT + inc & _MASK128,
                          "inc": inc}
        bit_generator.state = state
        generator.standard_normal(out=out)
    return draws


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
    result = _run(config, bases, params)
    flagged = [r.params for r in result.rows if r.exceptional]
    hi = max(4, min(8, int(math.log2(len(params)))))
    result.summary["flagged_param_dimension"] = (
        box_dimension(np.asarray(flagged), 2, hi).value if flagged else 0.0)
    result.summary["caveat"] = (
        "flagged-set dimension is measured in grid parameter coordinates, "
        "not in the invariant metric on the Grassmannian")
    return result


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
        cells += map(repr, row.chart.free.ravel().tolist())
        cells += [repr(float(row.estimate.value)),
                  repr(float(row.estimate.slope_stderr)),
                  "true" if row.exceptional else "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
