"""The reference loop that tracks the host's speed, and the scaling it implies.

On a shared host (measured on a 2-core VM) the speed drifts by 25% and
more over seconds to minutes, in steps, and by 10-20% within a second;
its CPUs drift apart.  A fixed pure-Python loop, timed right before and
right after each measured interval on the same pinned CPU, tracks that
drift: over a minute of alternating lattice scans and loops, the scans'
raw times spread by 0.49 (interquartile range over median), scaled by
the loops that bracket them by 0.12, and scaled by the median of the
loops within 3 s by 0.22.  A time measured over [start, end] is
scaled by REFERENCE_S over the median of the loops from the last one
before ``start`` to the first one after ``end``.  Where loops ran inside
the interval (a CLI child times one before every criterion of the
report), the interval is split at them, their own time is left out, and
each piece is scaled by the loops on either side of it.

A CLI child imports this module to bracket each invocation with loops
of its own; ``perf_counter`` is the system-wide monotonic clock, so its
marks and the parent's share one time line.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.0075


def median(values):
    return statistics.median(values) if values else 0.0


def loop_s() -> float:
    """Time of a fixed loop of Fraction sums and dict stores."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        table[(i, i % 13)] = i * i
    return time.perf_counter() - t0


def mark() -> tuple[float, float]:
    """(when, loop time) of one loop run now."""
    return time.perf_counter(), loop_s()


@dataclass(frozen=True)
class Timed:
    """Seconds measured between ``start`` and ``end``.

    Where calibration loops ran inside the interval, ``seconds`` must be
    ``end - start``.
    """

    seconds: float
    start: float
    end: float


class Calibrator:
    """Loop marks of one run, in time order, and the scaling they imply."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []
        self.mark()

    def mark(self) -> None:
        self.marks.append(mark())

    def add(self, marks) -> None:
        """Marks made elsewhere, such as in a CLI child."""
        self.marks.extend(tuple(m) for m in marks)
        self.marks.sort()

    def factor(self, start: float, end: float) -> float:
        times = [t for t, _ in self.marks]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = bisect.bisect_left(times, end) + 1
        return REFERENCE_S / median([c for _, c in self.marks[lo:hi]])

    def seconds(self, timed: Timed) -> float:
        """``timed`` at the reference speed."""
        inside = [(t, c) for t, c in self.marks if timed.start < t < timed.end]
        if not inside:
            return timed.seconds * self.factor(timed.start, timed.end)
        total, start = 0.0, timed.start
        for t, c in inside + [(timed.end, 0.0)]:
            total += (t - start) * self.factor(start, t)
            start = t + c
        return total
