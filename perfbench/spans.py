"""In-memory span tracing of projlab's public functions, from outside the package.

A traced run replaces each wrapped function in every projlab module namespace
that holds it, so calls are caught where they are looked up (for example both
``projlab.lab.to_chart`` and ``projlab.charts.to_chart``).  Each call records
one span: id, name, start and end (ns), parent span id, thread id, and a work
count.  Spans stay in memory; per-layer numbers are derived from them after the
timed calls end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: Optional[int]
    tid: int
    work: int  # layer-specific count, 0 where the layer has none


def _points_in(sample) -> int:
    pts = getattr(sample, "points", sample)
    return int(np.shape(pts)[0])


# (module, attribute, span name, work count from (args, result)).
# The runner, CSV and CLI spans have no count; their time is what matters.
WRAPPED: tuple = (
    ("projlab.cli", "run_cli", "cli.run_cli", None),
    ("projlab.lab", "marstrand_sweep", "lab.marstrand_sweep", None),
    ("projlab.lab", "exceptional_scan", "lab.exceptional_scan", None),
    ("projlab.lab", "result_csv", "lab.result_csv", None),
    ("projlab.fractal", "generate", "fractal.generate",
     lambda args, out: len(out.points)),
    ("projlab.fractal", "box_dimension", "fractal.box_dimension",
     lambda args, out: _points_in(args[0]) * len(out.scales)),
    ("projlab.fractal", "normalize_unit_box", "fractal.normalize_unit_box", None),
    ("projlab.fractal", "complexity_profile", "fractal.complexity_profile", None),
    ("projlab.fractal", "kt_compressor", "fractal.kt_compressor",
     lambda args, out: 8 * len(args[0])),
    ("projlab.charts", "to_chart", "charts.to_chart", None),
    ("projlab.charts", "good_basis", "charts.good_basis",
     lambda args, out: math.comb(args[0].n, args[0].k)),
    ("projlab.charts", "good_submatrix", "charts.good_submatrix",
     lambda args, out: math.comb(*np.shape(args[0]))),
    ("projlab.charts", "orthonormal_frame", "charts.orthonormal_frame", None),
    ("projlab.charts", "from_chart", "charts.from_chart", None),
    ("projlab.grassmann", "sample_uniform", "grassmann.sample_uniform", None),
    ("projlab.grassmann", "from_basis", "grassmann.from_basis", None),
    ("projlab.matrixkit", "singular_values", "matrixkit.singular_values", None),
)
RUNNER_SPANS = ("lab.marstrand_sweep", "lab.exceptional_scan")
SUBSPACE_SPAN = "grassmann.Subspace.__post_init__"


class Tracer:
    """Collects spans from wrapped functions.

    A span opened on a thread with no open span of its own (a ``lab`` pool
    worker) takes as parent the innermost open span of the thread that created
    the tracer, which is blocked in the runner while the pool works.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._root_tid = threading.get_ident()
        self._root_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_tid:
            return self._root_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn: Callable, name: str,
             work: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._root_stack[-1] if self._root_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            # list.append is atomic under the interpreter lock, so pool
            # workers can record concurrently.
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(),
                                   int(work(args, out)) if work else 0))
            return out
        return traced


class Patches:
    """Installs a tracer's wrappers into the loaded projlab modules and
    restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, _, _, _ in WRAPPED:
            importlib.import_module(module_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "projlab" or name.startswith("projlab.")]
        for module_name, attr, span_name, work in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.tracer.wrap(original, span_name, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        # Dataclass __init__ looks __post_init__ up on the class.
        subspace = sys.modules["projlab.grassmann"].Subspace
        self._set(subspace, "__post_init__",
                  self.tracer.wrap(subspace.__post_init__, SUBSPACE_SPAN))
        return self.tracer

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  Children on other threads may overlap each
    other, so coverage is the union of their intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered_ns(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def aggregate(spans) -> dict[str, dict]:
    """Per span name: call count, total, self time (ns) and work."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_ns": 0,
                                      "self_ns": 0, "work": 0})
        row["calls"] += 1
        row["total_ns"] += s.end - s.start
        row["self_ns"] += selfs[s.id]
        row["work"] += s.work
    return out


def layer_metrics(spans, calls: int, threads: int, untraced_p50: float,
                  traced_p50: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, per workload call.

    Times are inclusive span time summed over threads, except the ``self_s``
    metrics, which are self times.
    """
    agg = aggregate(spans)

    def get(name: str, key: str) -> int:
        return agg.get(name, {}).get(key, 0)

    def per_call_s(name: str, key: str = "total_ns") -> float:
        return get(name, key) / 1e9 / calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runner_ids = {s.id for s in spans if s.name in RUNNER_SPANS}
    pool_busy_ns = sum(s.end - s.start for s in spans if s.parent in runner_ids)
    return {
        "fractal.box_dimension_s": per_call_s("fractal.box_dimension"),
        "fractal.box_dimension_calls": get("fractal.box_dimension", "calls") / calls,
        "fractal.box_point_scales": get("fractal.box_dimension", "work") / calls,
        "fractal.box_ns_per_point_scale": ratio(
            get("fractal.box_dimension", "total_ns"),
            get("fractal.box_dimension", "work")),
        "fractal.generate_s": per_call_s("fractal.generate"),
        "fractal.generate_points": get("fractal.generate", "work") / calls,
        "fractal.normalize_unit_box_s": per_call_s("fractal.normalize_unit_box"),
        "fractal.complexity_profile_s": per_call_s("fractal.complexity_profile"),
        "fractal.kt_s": per_call_s("fractal.kt_compressor"),
        "fractal.kt_bits": get("fractal.kt_compressor", "work") / calls,
        "fractal.kt_ns_per_bit": ratio(get("fractal.kt_compressor", "total_ns"),
                                       get("fractal.kt_compressor", "work")),
        "charts.to_chart_calls": get("charts.to_chart", "calls") / calls,
        "charts.to_chart_s": per_call_s("charts.to_chart"),
        "charts.good_basis_s": per_call_s("charts.good_basis"),
        "charts.good_submatrix_s": per_call_s("charts.good_submatrix"),
        "charts.subsets_evaluated": (get("charts.good_basis", "work")
                                     + get("charts.good_submatrix", "work")) / calls,
        "charts.orthonormal_frame_self_s": per_call_s("charts.orthonormal_frame",
                                                      "self_ns"),
        "grassmann.subspace_constructions": get(SUBSPACE_SPAN, "calls") / calls,
        "grassmann.subspace_validate_s": per_call_s(SUBSPACE_SPAN),
        "grassmann.sample_uniform_s": per_call_s("grassmann.sample_uniform"),
        "grassmann.from_basis_s": per_call_s("grassmann.from_basis"),
        "matrixkit.svd_calls": get("matrixkit.singular_values", "calls") / calls,
        "matrixkit.svd_s": per_call_s("matrixkit.singular_values"),
        "lab.self_s": sum(per_call_s(n, "self_ns") for n in RUNNER_SPANS),
        "lab.pool_busy_frac": ratio(
            pool_busy_ns, sum(get(n, "total_ns") for n in RUNNER_SPANS) * threads),
        "lab.result_csv_s": per_call_s("lab.result_csv"),
        "cli.self_s": per_call_s("cli.run_cli", "self_ns"),
        "trace.overhead_frac": ratio(traced_p50, untraced_p50) - 1.0,
    }
