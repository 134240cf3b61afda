"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's machine is shared: its speed drifts by tens of percent over
minutes, and whole runs land in a fast or a slow stretch.  Run between the
timed repetitions and after set-up, this kernel measures the same drift,
and ``sim_rps`` and ``setup_s`` are scaled to a nominal host on which it
takes ``NOMINAL_S`` (see README.md, "Steadiness protocol").

The kernel mixes the two kinds of work the simulator does: an interpreted
loop over a binary heap and a dict (like the per-event engine and the
schedulers), and NumPy passes over a 20k-element heavy-tailed array (like
the batched path).  It never changes with the simulator, so its time is a
yardstick, not a measurement of the program.  It allocates no objects the
cyclic garbage collector tracks, so it neither triggers nor pays for a
collection of the simulator's heap.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

_LOOP = 30_000
_HEAP = 64
_ARRAY = 20_000
_PASSES = 16
#: The nominal host's time for one kernel run.  A fixed convention, roughly
#: the kernel's time on a 2-vCPU Xeon VM in its slower stretches.
NOMINAL_S = 0.020


def reference_kernel() -> float:
    """Run the kernel once; return a checksum so nothing is optimised away."""
    rnd = random.Random(12345).random
    push, pop = heapq.heappush, heapq.heappop
    heap: list[float] = []
    totals = dict.fromkeys(range(512), 0.0)
    for i in range(_LOOP):
        push(heap, rnd())
        if len(heap) > _HEAP:
            totals[i & 511] += pop(heap) * 1.5
    values = np.random.default_rng(1).pareto(1.5, _ARRAY)
    for _ in range(_PASSES):
        running = np.cumsum(values)
        order = np.argsort(values, kind="stable")
        values = values[order] * 0.5 + running[-1] * 1e-9
    return sum(totals.values()) + float(values[0])


def reference_seconds() -> float:
    """Host seconds one run of :func:`reference_kernel` takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def median_reference_seconds() -> float:
    """Median of three consecutive :func:`reference_seconds`."""
    return sorted(reference_seconds() for _ in range(3))[1]
