"""Machine-speed calibration of the benchmark's timings.

On a shared 2-vCPU Xeon VM the speed of a single-threaded Python process
alternates between two levels about 1.8x apart, in phases that last from
seconds to minutes. A whole run can fall in a slow phase, so no statistic
over one run's samples removes it, and two sets of runs would disagree far
beyond any useful regression bound.

Every timing except set-up time is therefore reported in reference seconds:
the measured seconds divided by the slowdown of the machine at that moment. The slowdown
is the time of a fixed reference kernel, measured right before and right
after the timing, over REFERENCE_S, the kernel's time at full speed on that
VM. The kernel is interpreter-bound Python with small numpy calls, like
boxloss, and calls no boxloss code: a change to boxloss moves the timings
but not the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference_kernel() time at full speed on an Intel Xeon VM, 2 vCPUs,
# Python 3.11, numpy 2.4.
REFERENCE_S = 0.0100


class _Corners:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d


def reference_kernel() -> float:
    """Fixed work: object construction, float min/max arithmetic, tuple
    iteration and a small numpy reduction every 40 steps."""
    acc = 0.0
    xs = np.arange(16.0)
    for i in range(4000):
        p = _Corners(i * 0.5, i * 0.25, i + 1.0, i + 2.0)
        q = _Corners(i * 0.5 + 0.3, i * 0.25 - 0.1, i + 1.5, i + 2.5)
        iw = max(0.0, min(p.c, q.c) - max(p.a, q.a))
        ih = max(0.0, min(p.d, q.d) - max(p.b, q.b))
        for z in (p.a - q.a, p.b - q.b, p.c - q.c, p.d - q.d):
            acc += 0.5 * z * z if abs(z) < 1.0 else abs(z) - 0.5
        acc += iw * ih
        if i % 40 == 0:
            acc += float(xs[xs > (acc % 16.0)].sum())
    return acc


def reference_seconds(repeats: int = 3) -> float:
    """Median time of `repeats` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """Machine slowdown over an interval bracketed by two reference times."""
    return (before + after) / (2.0 * REFERENCE_S)
