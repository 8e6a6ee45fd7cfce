"""Run one projlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports projlab from ./src, and exits
with an error, printing no result, when that is missing.  Each run makes one
untimed warm-up call, then times calls for about S seconds and checks the
output of every call.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` times untraced calls for half the time and traced calls for the
other half, and reports the per-layer metrics.  End-to-end times are paced
by the reference task that the workload names (perfbench/pace.py); the
manifest line also gives them as wall times.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run manifest.  A fuller report (per-call
times and paces and, when traced, every span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from pace import Pacer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 15
# Set-up is interpreter start and imports; see perfbench/README.md.
SETUP_PACE = "interpreter"
PROBE_TIMEOUT_S = 120


def import_projlab() -> None:
    """Import projlab from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "projlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no projlab sources under {src}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(src))
    import projlab
    if Path(projlab.__file__).resolve().parent != (src / "projlab").resolve():
        sys.exit(f"perfbench: imported projlab from {projlab.__file__}, "
                 f"not from {src}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def one_call(job, tally: Tally) -> tuple[float, bool]:
    """Make and check one call; return its wall time and whether it passed."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        output = job.call()
    except (Exception, SystemExit) as exc:  # a failed call must not end the run
        elapsed = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    else:
        elapsed = time.perf_counter() - start
        problems = job.check(output)
    if problems:
        tally.failed += 1
        tally.problems.extend(problems[:3])
    return elapsed, not problems


@dataclass(frozen=True)
class Sample:
    wall_s: float
    paces: dict  # reference kind -> pace, see perfbench/pace.py
    ok: bool = True

    def seconds(self, pace: Optional[str]) -> float:
        """Paced by the reference task ``pace``, or wall time for None."""
        return self.wall_s * self.paces[pace] if pace else self.wall_s


def timed_calls(job, seconds: float, tally: Tally, min_calls: int,
                paces, probe=None, probes: int = 0) -> tuple[list[Sample], list[Sample]]:
    """Call until another call of median length would pass ``seconds``.

    Every call, and every ``probe()`` (a set-up time), is followed by the
    reference tasks of ``paces``.  Probes are spread over the run so that
    their median covers its whole length; ``probes`` of them are made in all.
    """
    calls: list[Sample] = []
    setups: list[Sample] = []
    pacer = Pacer(paces)
    begin = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - begin

    while len(calls) < min_calls or (
            elapsed() + statistics.median(c.wall_s for c in calls) <= seconds):
        wall, ok = one_call(job, tally)
        calls.append(Sample(wall, pacer.after_event(), ok))
        while len(setups) < min(probes, math.ceil(probes * elapsed() / seconds)):
            setups.append(Sample(probe(), pacer.after_event()))
    while len(setups) < probes:
        setups.append(Sample(probe(), pacer.after_event()))
    return calls, setups


def setup_seconds(workload_name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    projlab and built the workload's inputs."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the projlab sources, which identifies the code measured
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "projlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(workload, seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_sha256(),
            "workload": workload.name, "seed": seed,
            "PROJLAB_THREADS": workload.threads}


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full report."""
    from spans import Patches, Tracer, aggregate, layer_metrics

    workdir = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    report = {"manifest": manifest(workload, seed)}
    try:
        job = workload.prepare(seed, workdir)
        # Untimed: lets first-call allocation and lazy imports finish.
        one_call(job, tally)
        paces = (workload.pace, SETUP_PACE)
        if trace:
            untraced, _ = timed_calls(job, seconds / 2, tally, 2, paces)
            tracer = Tracer()
            with Patches(tracer):
                timed, setups = timed_calls(job, seconds / 2, tally, 2, paces)
            metrics = layer_metrics(
                tracer.spans, len(timed), workload.threads,
                statistics.median(c.seconds(workload.pace) for c in untraced),
                statistics.median(c.seconds(workload.pace) for c in timed))
            report["untraced_call_s"] = [c.wall_s for c in untraced]
            report["span_totals"] = aggregate(tracer.spans)
            report["spans"] = [list(s) for s in tracer.spans]
        else:
            timed, setups = timed_calls(
                job, seconds, tally, 3, paces, probes=setup_samples,
                probe=lambda: setup_seconds(workload.name, seed))
            passed = sum(c.ok for c in timed)
            times = {}
            for pace in (*sorted(set(paces)), None):
                durations = [c.seconds(pace) for c in timed]
                times[pace or "wall"] = {
                    "items_per_s": job.items * passed / sum(durations),
                    "call_p50_s": statistics.median(durations),
                    "setup_s": statistics.median(s.seconds(pace) for s in setups)}
            metrics = {
                "items_per_s": times[workload.pace]["items_per_s"],
                "call_p50_s": times[workload.pace]["call_p50_s"],
                "setup_s": times[SETUP_PACE]["setup_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - tally.failed / tally.attempted,
            }
            report["times"] = times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["manifest"]["output_sha256"] = (
        hashlib.sha256(job.reference).hexdigest() if job.reference else None)
    report.update(call_s=[c.wall_s for c in timed],
                  call_paces=[c.paces for c in timed], calls_timed=len(timed),
                  setup_s=[s.wall_s for s in setups],
                  setup_paces=[s.paces for s in setups],
                  failed_frac=tally.failed / tally.attempted,
                  problems=tally.problems[:20])
    units = {m["name"]: m["unit"] for m in benchmark_spec()[
        "per_layer" if trace else "end_to_end"]}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, report


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    import_projlab()
    if args.setup_probe:
        workdir = OUT / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload.prepare(args.seed, workdir)
            print(repr(time.time()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, report = measure(workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report) + "\n")
    print(json.dumps({"manifest": report["manifest"],
                      "times": report.get("times"),
                      "failed_frac": report["failed_frac"],
                      "calls_timed": report["calls_timed"],
                      "problems": report["problems"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
