"""Machine-speed calibration for the end-to-end times.

This benchmark runs on a shared host whose speed changes by tens of
percent within seconds.  A fixed calibration unit, independent of the
package, runs between the timed operations.  It does the same kinds of
work as the package in two timed parts of about equal length, numpy
complex ufuncs on a 2048-point vector and Python bytecode: the host's
speed changes move the two by different amounts, and the package's time
follows a mix of both.  Each operation is scaled by the units run right
before and right after it: its time times the geometric mean of
``reference / median`` over the two parts reads as the time the same
work takes on the reference machine.  A change to the package moves the
scaled time in full, since the unit does not call the package.

``REFERENCE_S`` is about the parts' medians on the machine the baseline
was recorded on (2 vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS
thread).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The unit's two parts, and each part's median on the reference machine.
REFERENCE_S = (0.42e-3, 0.36e-3)
SHARE = 0.1  # calibration time per second of timed operations
MIN_UNITS = 4  # units after every operation, however short

_X = np.linspace(0.1, 5.0, 2048) + 0.3j


def _numpy_part() -> complex:
    s = 0j
    for k in range(3):
        y = np.sqrt(_X * _X + k * 1j)
        s += (np.exp(-0.01 * y) / (y + 1.0)).sum()
    return s


def _python_part() -> int:
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return acc


PARTS = (_numpy_part, _python_part)


class Calibrator:
    """Timed calibration units; ``times`` holds every unit's seconds per part."""

    def __init__(self):
        self.times: list[tuple[float, ...]] = []
        for _ in range(3):  # first calls allocate; keep them out
            for part in PARTS:
                part()

    def run(self, n: int) -> list[tuple[float, ...]]:
        """Run n units; returns their times per part."""
        times = []
        for _ in range(n):
            unit = []
            for part in PARTS:
                t0 = time.perf_counter()
                part()
                unit.append(time.perf_counter() - t0)
            times.append(tuple(unit))
        self.times.extend(times)
        return times

    def after(self, seconds: float) -> list[tuple[float, ...]]:
        """The units that follow ``seconds`` of timed work; returns their times."""
        return self.run(max(MIN_UNITS, round(SHARE * seconds / sum(REFERENCE_S))))

    def medians(self, times=None) -> list[float]:
        times = self.times if times is None else times
        return [statistics.median(t[j] for t in times) for j in range(len(PARTS))]

    def scale(self, times=None) -> float:
        """Factor that turns times measured next to ``times`` (default: all
        units so far) into reference-machine times: the geometric mean of
        the parts' reference-to-measured ratios."""
        ratios = [ref / m for ref, m in zip(REFERENCE_S, self.medians(times))]
        return math.prod(ratios) ** (1.0 / len(ratios))
