"""Tests of the benchmark itself: tiny runs of every workload, failure
accounting on corrupted output, and the span arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import pace
import run

run.import_projlab()

import projlab.charts  # noqa: E402
import projlab.lab  # noqa: E402
from spans import Patches, Span, Tracer, covered_ns, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, CliJob, CsvRow, dust_oracle  # noqa: E402

TINY = {
    "sweep-dust": replace(WORKLOADS["sweep-dust"], depth=6, scale_hi=8,
                          directions=4),
    "sweep-g84": replace(WORKLOADS["sweep-g84"], depth=4, scale_hi=5,
                         directions=5),
    "scan-axis": replace(WORKLOADS["scan-axis"], depth=8, scale_hi=11,
                         directions=16),
    "profile-dust": replace(WORKLOADS["profile-dust"], depth=3, r_max=4),
}
SPEC = run.benchmark_spec()


@pytest.fixture(autouse=True)
def _restore_threads(monkeypatch):
    # CLI jobs set PROJLAB_THREADS; monkeypatch restores it afterwards.
    monkeypatch.setenv("PROJLAB_THREADS", "1")


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert sorted(TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced(name):
    result, report = run.measure(TINY[name], seed=3, seconds=0.05, trace=False,
                                 setup_samples=1)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
    assert len(report["manifest"]["output_sha256"]) == 64


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced(name):
    workload = TINY[name]
    result, _ = run.measure(workload, seed=3, seconds=0.05, trace=True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if name == "profile-dust":
        # 4**3 points, 2 coordinates, r bits each, for r = 1..4.
        assert metrics["fractal.kt_bits"] == 2 * 4**3 * sum(range(1, 5))
        assert metrics["fractal.box_dimension_calls"] == 0
    else:
        dirs = workload.directions
        flagged_set = 1 if name == "scan-axis" else 0
        assert metrics["fractal.box_dimension_calls"] == dirs + flagged_set
        assert metrics["charts.to_chart_calls"] == 2 * dirs
        assert metrics["grassmann.subspace_constructions"] == dirs
        assert metrics["fractal.kt_bits"] == 0
        assert 0 < metrics["lab.pool_busy_frac"] <= 1
    # Every wrapper is removed again after the traced calls.
    assert not hasattr(projlab.lab.to_chart, "__wrapped__")
    assert not hasattr(projlab.charts.Subspace.__post_init__, "__wrapped__")


def _flip_first_flag(csv: bytes) -> bytes:
    lines = csv.decode().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "true" if cells[-1] == "false" else "false"
    lines[1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", ["sweep-dust", "scan-axis"])
def test_flipped_flag_is_a_failure(name, tmp_path, monkeypatch):
    job = TINY[name].prepare(seed=3, workdir=tmp_path)
    good = job.call()
    assert job.check(good) == []
    assert any("exceptional flag" in p for p in job.check(_flip_first_flag(good)))

    real_call = CliJob.call
    monkeypatch.setattr(CliJob, "call",
                        lambda self: _flip_first_flag(real_call(self)))
    result, report = run.measure(TINY[name], seed=3, seconds=0.05,
                                 trace=False, setup_samples=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert report["failed_frac"] == 1.0


def test_dust_oracle_allows_low_estimates_only_near_an_axis():
    def row(slope, est):
        return CsvRow(index=0, free=(slope,), est=est, exceptional=est < 0.9)

    off_axis, near_axis = math.tan(math.radians(3.0)), math.tan(math.radians(1.0))
    assert dust_oracle([row(off_axis, 0.92), row(near_axis, 0.85)], 2) == []
    assert dust_oracle([row(-off_axis, 0.85)], 1) != []
    assert dust_oracle([row(near_axis, 0.55)], 1) != []


def test_changed_output_between_calls_is_a_failure(tmp_path):
    job = TINY["profile-dust"].prepare(seed=3, workdir=tmp_path)
    first = job.call()
    assert job.check(first) == []
    levels = json.loads(first)
    levels[0][1] += 1.0
    levels[0][2] = levels[0][1]
    assert job.check(json.dumps(levels).encode()) == [
        "output differs from the first call with the same seed"]


def test_pace_scales_by_the_mean_reference_time_around_each_event(monkeypatch):
    reference = iter([0.5, 1.5, 3.0])
    monkeypatch.setattr(pace, "reference_seconds", lambda kind: next(reference))
    pacer = pace.Pacer(["numpy"])
    nominal = pace.TASKS["numpy"][1]
    assert pacer.after_event() == {"numpy": pytest.approx(nominal / 1.0)}
    assert pacer.after_event() == {"numpy": pytest.approx(nominal / 2.25)}
    sample = run.Sample(wall_s=2.0, paces={"numpy": 0.25})
    assert sample.seconds("numpy") == 0.5
    assert sample.seconds(None) == 2.0


def test_reference_tasks_run():
    assert set(pace.TASKS) == {"interpreter", "numpy"}
    assert {w.pace for w in WORKLOADS.values()} <= set(pace.TASKS)
    assert run.SETUP_PACE in pace.TASKS
    for kind in pace.TASKS:
        assert 0 < pace.reference_seconds(kind) < 10


def test_setup_probes_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(pace, "reference_seconds", lambda kind: pace.TASKS[kind][1])
    order = []

    class Job:
        items = 1
        reference = None

        def call(self):
            order.append("call")
            time.sleep(0.01)
            return b""

        def check(self, output):
            return []

    calls, setups = run.timed_calls(
        Job(), 0.1, run.Tally(), 3, ["interpreter"], probes=4,
        probe=lambda: order.append("probe") or 0.2)
    assert len(calls) >= 3 and len(setups) == 4
    assert all(s.wall_s == 0.2 and s.paces == {"interpreter": 1.0} for s in setups)
    # Probes follow calls through the run, not all at its start or its end.
    probes_at = [i for i, event in enumerate(order) if event == "probe"]
    assert order[0] == "call"
    assert probes_at[0] < len(order) / 2 < probes_at[-1]


def test_covered_ns_merges_and_clips():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 40), (30, 60)]) == 50
    assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered_ns(0, 100, [(90, 120), (-5, 5)]) == 15
    assert covered_ns(0, 100, [(100, 120)]) == 0


def _span(id, name, start, end, parent=None, tid=1, work=0):
    return Span(id, name, start, end, parent, tid, work)


def test_self_times_on_nested_spans():
    spans = [
        _span(1, "root", 0, 100),
        _span(2, "a", 10, 40, parent=1, tid=2),
        _span(3, "b", 30, 60, parent=1, tid=3),  # overlaps a on another thread
        _span(4, "a.child", 15, 20, parent=2, tid=2),
        _span(5, "a.child", 22, 27, parent=2, tid=2),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 30, 4: 5, 5: 5}


def test_layer_metrics_on_synthetic_run():
    ms = 1_000_000
    spans = [
        _span(1, "cli.run_cli", 0, 100 * ms),
        _span(2, "lab.marstrand_sweep", 5 * ms, 85 * ms, parent=1),
        _span(3, "fractal.box_dimension", 10 * ms, 70 * ms, parent=2, tid=2, work=600),
        _span(4, "fractal.box_dimension", 10 * ms, 50 * ms, parent=2, tid=3, work=400),
        _span(5, "lab.result_csv", 90 * ms, 95 * ms, parent=1),
    ]
    m = layer_metrics(spans, calls=1, threads=2, untraced_p50=0.1,
                      traced_p50=0.11)
    assert m["fractal.box_dimension_s"] == pytest.approx(0.100)
    assert m["fractal.box_dimension_calls"] == 2
    assert m["fractal.box_point_scales"] == 1000
    assert m["fractal.box_ns_per_point_scale"] == pytest.approx(100 * ms / 1000)
    assert m["lab.self_s"] == pytest.approx(0.020)
    assert m["lab.pool_busy_frac"] == pytest.approx(100 / (80 * 2))
    assert m["cli.self_s"] == pytest.approx(0.015)
    assert m["lab.result_csv_s"] == pytest.approx(0.005)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["fractal.kt_s"] == 0.0 and m["fractal.kt_ns_per_bit"] == 0.0


def test_pool_thread_spans_take_the_runner_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: x, "leaf")

    def runner():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap(runner, "runner")() == [0, 1, 2, 3]
    (root,) = [s for s in tracer.spans if s.name == "runner"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id for s in leaves)
    assert root.tid == threading.get_ident()


def test_patches_reach_every_lookup_site_and_restore():
    original = projlab.charts.to_chart
    with Patches(Tracer()):
        assert projlab.lab.to_chart is projlab.charts.to_chart
        assert projlab.charts.to_chart.__wrapped__ is original
    assert projlab.lab.to_chart is original is projlab.charts.to_chart


def test_fails_without_projlab_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile-dust",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
