"""Machine-speed calibration of the benchmark's timings.

The shared 2-core sandboxes this benchmark runs on switch between speed
states: the same code runs up to 1.8 times slower for seconds to minutes at
a time, and pinning to one core does not help.  Whole runs can fall in a
slow stretch, so within-run statistics cannot remove it.

A fixed reference kernel, which shares no code with bellband, is timed
between operations, at most every ``MIN_GAP_S`` and for ``SHARE`` of the
run's time in all.  A run's calibrated times are its wall times times
``REFERENCE_S`` over the mean kernel time of the run: the times the run
would take on a machine where the kernel takes ``REFERENCE_S``.  The mean over the whole run is used, not the kernel
times next to each operation, because the speed state also flips within
an operation of a second or two, and a stage mean covers the whole run
just as the kernel mean does.  Raw wall times stay in the report next to
the calibrated figures.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: kernel time of the reference machine, in seconds (about the sandbox's
#: fast state); a fixed scale only
REFERENCE_S = 0.0025

#: shortest interval between two calibration points, in seconds
MIN_GAP_S = 0.25

#: share of the time since the last calibration point spent timing the
#: kernel at the next one
SHARE = 0.05


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def reference_kernel() -> float:
    """Interpreted object churn and float formatting, then small numpy
    calls: the mix bellband's own hot paths consist of."""
    acc = 0.0
    parts = []
    for i in range(2000):
        point = _Point(i * 1e-3, math.cos(i))
        acc += point.norm()
        parts.append(format(acc, ".17g"))
    matrix = np.eye(4) + 0.1
    ones = np.ones(4)
    for _ in range(200):
        acc += float(np.abs(matrix @ ones).sum())
    return acc + len(",".join(parts))


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(kernel_times) -> float:
    """Factor from wall times taken while the kernel ran in
    ``kernel_times`` to times on the reference machine."""
    return REFERENCE_S / (sum(kernel_times) / len(kernel_times))


class Calibrator:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -math.inf

    def maybe(self) -> None:
        """Unless the last calibration point is under ``MIN_GAP_S`` old,
        time the kernel repeatedly for ``SHARE`` of the time since then
        (at least once), so that the kernel times sample the run evenly."""
        now = time.perf_counter()
        gap = now - self._last
        if gap < MIN_GAP_S:
            return
        end = now + SHARE * gap if math.isfinite(gap) else now
        while True:
            self.times.append(time_kernel())
            if time.perf_counter() >= end:
                break
        self._last = time.perf_counter()

    def now(self) -> None:
        """Time the kernel."""
        self._last = -math.inf
        self.maybe()

    @property
    def factor(self) -> float:
        """Scale from this run's wall times to the reference machine."""
        return scale(self.times)
