"""Host pace: fixed reference tasks, timed between the benchmark's calls.

On a shared host the speed of the same code drifts by a third or more for
minutes at a time while the process keeps its CPU (process time equals wall
time).  A wall time taken in a slow minute then reads as a slower program.
A reference task is fixed work of the kind that a workload's hot path does.
It runs after every timed event, and an event's pace is the task's nominal
time over the mean of its times just before and just after the event.  A
paced time, wall time times pace, is the time the event would take on a host
that runs the task in its nominal time: a faster program lowers it, a slow
host minute does not raise it.  The tasks never change with the program, so
a change to projlab moves paced times as it moves wall times.

Interpreter-bound code and numpy's hashing of large arrays slow by
different amounts in the same minute, so there is one task for each:

- ``interpreter``: float arithmetic, ``math`` calls and numpy scalar access,
  like projlab's chart-scoring and KT-coder loops;
- ``numpy``: ``np.unique`` of a fixed array of int64 keys, the kernel of
  projlab's box counting.

perfbench/README.md gives the measurements behind each workload's choice.
"""

from __future__ import annotations

import math
import time

import numpy as np

_TABLE = np.linspace(0.0, 1.0, 64)
_KEYS = np.random.default_rng(0).integers(0, 2**40, 2**18)


def interpreter_task() -> float:
    total = 0.0
    for i in range(120_000):
        total += math.log2(1.0 + float(_TABLE[i & 63])) * (i % 7)
    return total


def numpy_task() -> int:
    return int(np.unique(_KEYS).size)


# Each task with its nominal time: about the median of its time on a 2-vCPU
# Xeon VM over an hour (the interpreter task took 0.024 s in fast minutes
# and 0.05 s in slow ones), so that paced seconds read close to wall seconds
# there.  Fixed constants, never measured: paced times are comparable across
# runs only through them.
TASKS = {"interpreter": (interpreter_task, 0.035),
         "numpy": (numpy_task, 0.14)}


def reference_seconds(kind: str) -> float:
    task, _ = TASKS[kind]
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class Pacer:
    """Runs the reference tasks of ``kinds`` after every event and returns
    the event's pace for each kind.  Consecutive events share the reference
    times taken between them."""

    def __init__(self, kinds):
        self.kinds = sorted(set(kinds))
        self.before = self._time()

    def _time(self) -> dict[str, float]:
        return {kind: reference_seconds(kind) for kind in self.kinds}

    def after_event(self) -> dict[str, float]:
        after = self._time()
        paces = {kind: 2.0 * TASKS[kind][1] / (self.before[kind] + after[kind])
                 for kind in self.kinds}
        self.before = after
        return paces
