"""Host-speed calibration.

On a shared 2-vCPU cloud host (Intel Xeon, OpenBLAS on one thread) the
speed of this code drifts by up to 1.6x over minutes: the same op, with the
same inputs, took 0.6 s in one minute and 1.0 s in another. The drift is
larger than the changes the benchmark must resolve, and no statistic over
one run removes it.

So the run times a fixed kernel right before every op, outside the op's
timed region, for about ``SHARE`` of the op's own time. The kernel does
what the program does, small float64 matrix products, elementwise maths and
reductions driven from a Python loop, and slows down with it. Every
reported time is scaled to a host on which the kernel takes
``REFERENCE_S``:

    scaled seconds = measured seconds * REFERENCE_S / mean(kernel seconds)

Over ten runs per workload this cut the spread (IQR over median) of
throughput from 10-15% to 5-9% on a drifting host; on a quiet one it can
add a point or two. The kernel is not package code, so a change to the
package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.02
SHARE = 0.05

_rng = np.random.default_rng(0)
# Small operands: they stay in the heap and in cache, so the kernel's speed
# does not depend on page faults or on the allocator's history.
_W = _rng.normal(0.0, 0.1, (64, 64))
_X = _rng.normal(0.0, 1.0, (4, 32, 64))


def kernel() -> float:
    x = _X
    for _ in range(200):
        h = np.tanh(x @ _W)
        x = h - h.mean(axis=1, keepdims=True)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        x = x + e / e.sum(axis=-1, keepdims=True)
    return float(x.sum())


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def sample(op_seconds: float) -> list:
    """Kernel timings to take before an op that last took ``op_seconds``:
    about SHARE of the op's time, at least one run, so the mean kernel time
    is weighted like the ops' busy time."""
    runs = max(1, round(SHARE * op_seconds / REFERENCE_S))
    return [timed() for _ in range(runs)]
