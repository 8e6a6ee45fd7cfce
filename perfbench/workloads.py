"""The benchmark's workloads: inputs built from a seed, one call, output checks.

Sweep and scan workloads drive the public CLI entry ``projlab.cli.run_cli``
in-process on a generated config file.  The profile workload calls the public
library function ``projlab.complexity_profile``.  Every call's output is
checked; a call that raises, exits non-zero or fails a check is a failure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

AXIS_MARGIN_DEG = 2.5


@dataclass(frozen=True)
class CsvRow:
    index: int
    free: tuple  # chart free-block entries
    est: float
    exceptional: bool


def parse_results_csv(text: str, k: int, threshold_s: float,
                      directions: int) -> tuple[list[CsvRow], list[str]]:
    """Parse ``results.csv`` and list every way it breaks the fixed schema:
    one row per direction in index order, each estimate finite and in [0, k],
    and each ``exceptional`` flag equal to ``est < threshold_s``."""
    lines = text.splitlines()
    if not lines or lines[0].split(",")[-3:] != ["est_dim", "stderr", "exceptional"]:
        return [], ["results.csv header is missing or malformed"]
    rows, problems = [], []
    if len(lines) - 1 != directions:
        problems.append(f"{len(lines) - 1} rows for {directions} directions")
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            row = CsvRow(int(cells[0]), tuple(map(float, cells[1:-3])),
                         float(cells[-3]), {"true": True, "false": False}[cells[-1]])
        except (ValueError, KeyError, IndexError):
            problems.append(f"row {i}: unparseable: {line!r}")
            continue
        if row.index != i:
            problems.append(f"row {i}: index {row.index}")
        if not (math.isfinite(row.est) and 0.0 <= row.est <= k):
            problems.append(f"row {i}: estimate {row.est} outside [0, {k}]")
        if row.exceptional != (row.est < threshold_s):
            problems.append(f"row {i}: exceptional flag {row.exceptional} "
                            f"disagrees with estimate {row.est}")
        rows.append(row)
    return rows, problems


def dust_oracle(rows: list[CsvRow], directions: int) -> list[str]:
    """Projections of the Cantor dust C x C (dimension 1.26) onto lines.

    Marstrand: almost every line keeps dimension 1.  Every line also keeps a
    similar copy of C (dimension 0.63), from C x {0} or {0} x C.  A line within
    a few degrees of an axis looks like C at the coarse end of the scale
    window, so its estimate falls between the two; a 360-cell scan at depth 10,
    scales 2..13, reads below 0.9 only within 1.5 degrees of an axis.  Hence:
    every estimate >= 0.6, and >= 0.9 beyond 2.5 degrees from both axes.  The
    chart picks the larger coordinate as the identity row, so
    atan(|free_0|) is the angle to the nearest axis.
    """
    problems = []
    for r in rows:
        off_axis = math.degrees(math.atan(abs(r.free[0]))) >= AXIS_MARGIN_DEG
        if r.est < (0.9 if off_axis else 0.6):
            problems.append(f"row {r.index}: estimate {r.est} at free_0 {r.free[0]}")
    return problems


def axis_oracle(rows: list[CsvRow], directions: int) -> list[str]:
    """Acceptance criterion 9: only the vertical cell (grid parameter
    index / cells = 0.5) is flagged; every other cell lies in [0.55, 0.70]."""
    flagged = [r.index / directions for r in rows if r.exceptional]
    problems = [] if flagged == [0.5] else [f"flagged cells at params {flagged}"]
    outside = [r.index for r in rows
               if not r.exceptional and not 0.55 <= r.est <= 0.70]
    if outside:
        problems.append(f"unflagged cells outside [0.55, 0.70]: {outside[:5]}")
    return problems


def no_oracle(rows: list[CsvRow], directions: int) -> list[str]:
    return []


def dust_ifs(seed: int) -> dict:
    from projlab import cantor_dust
    return json.loads(cantor_dust().to_json())


def axis_ifs(seed: int) -> dict:
    from projlab import cantor_on_axis
    return json.loads(cantor_on_axis().to_json())


def random_g84_ifs(seed: int) -> dict:
    """Three similarities of ratio 0.4 in R^8, translations in [0, 0.6]^8."""
    rng = np.random.default_rng(seed)
    return {"n": 8, "label": "random-r0.4-R8",
            "maps": [{"ratio": 0.4, "translation": rng.uniform(0.0, 0.6, 8).tolist()}
                     for _ in range(3)]}


class CliJob:
    """One prepared CLI workload: a config file and an output directory."""

    def __init__(self, spec: "CliWorkload", seed: int, workdir: Path):
        self.spec = spec
        self.config = workdir / "config.json"
        self.out = workdir / "out"
        self.config.write_text(json.dumps(spec.config(seed)))
        self.reference: Optional[bytes] = None
        self.items = spec.directions

    def call(self) -> bytes:
        import projlab.cli
        os.environ["PROJLAB_THREADS"] = str(self.spec.threads)
        (self.out / "results.csv").unlink(missing_ok=True)
        # Looked up on each call, so a traced run reaches the wrapped entry.
        code = projlab.cli.run_cli([self.spec.mode, "--config", str(self.config),
                                    "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"projlab {self.spec.mode} exited with code {code}")
        return (self.out / "results.csv").read_bytes()

    def check(self, output: bytes) -> list[str]:
        s = self.spec
        rows, problems = parse_results_csv(output.decode(), s.k, s.threshold_s,
                                           s.directions)
        problems += s.oracle(rows, s.directions)
        return problems + _same_as_first(self, output)


class ProfileJob:
    """``complexity_profile`` of a seeded permutation of a fixed point set.

    The order-0 KT code length depends only on bit counts, so the permutation
    changes the input bytes but not the amount of work.
    """

    def __init__(self, spec: "ProfileWorkload", seed: int, workdir: Path):
        from projlab import cantor_dust, generate
        self.spec = spec
        pts = generate(cantor_dust(), spec.depth).points
        self.points = pts[np.random.default_rng(seed).permutation(len(pts))]
        self.reference: Optional[bytes] = None
        self.items = spec.r_max

    def call(self) -> bytes:
        from projlab import fractal
        # The default compressor is bound when complexity_profile is defined,
        # so pass it explicitly for a traced run to see the wrapped one.
        profile = fractal.complexity_profile(self.points, r_max=self.spec.r_max,
                                             compressor=fractal.kt_compressor)
        return json.dumps(profile).encode()

    def check(self, output: bytes) -> list[str]:
        levels = json.loads(output)
        problems = []
        if [lvl[0] for lvl in levels] != list(range(1, self.spec.r_max + 1)):
            problems.append(f"levels {[lvl[0] for lvl in levels]}")
        for r, k_hat, per_digit in levels:
            if not (math.isfinite(k_hat) and k_hat > 0 and per_digit == k_hat / r):
                problems.append(f"level {r}: K={k_hat}, K/r={per_digit}")
        return problems + _same_as_first(self, output)


def _same_as_first(job, output: bytes) -> list[str]:
    if job.reference is None:
        job.reference = output
    return [] if output == job.reference else [
        "output differs from the first call with the same seed"]


@dataclass(frozen=True)
class CliWorkload:
    name: str
    mode: str
    ifs: Callable[[int], dict]
    n: int
    k: int
    depth: int
    scale_lo: int
    scale_hi: int
    threshold_s: float
    directions: int
    threads: int
    oracle: Callable[[list, int], list[str]]
    pace: str  # the reference task that paces its times (perfbench/pace.py)

    def config(self, seed: int) -> dict:
        return {"ifs": self.ifs(seed), "n": self.n, "k": self.k,
                "num_directions": self.directions, "depth": self.depth,
                "scale_lo": self.scale_lo, "scale_hi": self.scale_hi,
                "threshold_s": self.threshold_s, "seed": seed, "mode": self.mode}

    def prepare(self, seed: int, workdir: Path) -> CliJob:
        return CliJob(self, seed, workdir)


@dataclass(frozen=True)
class ProfileWorkload:
    name: str
    depth: int
    r_max: int
    pace: str
    threads: int = 1

    def prepare(self, seed: int, workdir: Path) -> ProfileJob:
        return ProfileJob(self, seed, workdir)


# Why each workload is here, and which layer it loads, is in BENCHMARK.json
# and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    CliWorkload(
        name="sweep-dust",
        mode="sweep", ifs=dust_ifs, n=2, k=1, depth=10, scale_lo=2,
        scale_hi=13, threshold_s=0.9, directions=6, threads=2,
        oracle=dust_oracle, pace="numpy"),
    CliWorkload(
        name="sweep-g84",
        mode="sweep", ifs=random_g84_ifs, n=8, k=4, depth=6, scale_lo=2,
        scale_hi=8, threshold_s=0.5, directions=150, threads=1,
        oracle=no_oracle, pace="interpreter"),
    CliWorkload(
        name="scan-axis",
        mode="scan", ifs=axis_ifs, n=2, k=1, depth=12, scale_lo=2,
        scale_hi=17, threshold_s=0.5, directions=360, threads=1,
        oracle=axis_oracle, pace="numpy"),
    ProfileWorkload(
        name="profile-dust",
        depth=6, r_max=12, pace="interpreter"),
)}
