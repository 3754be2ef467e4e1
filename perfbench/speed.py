"""How fast the machine runs right now, sampled while the benchmark works.

On a host shared with other tenants the same Python code runs up to about
twice as slow for stretches of milliseconds to minutes, and even a fixed
loop's time moves with it.  Whole runs falling into slow stretches make
wall times spread far more than any change to the program would.

``Speedometer`` runs a fixed kernel (tuple compares, dict updates and small
numpy reductions: the kinds of work the library does) from a SIGALRM
handler every 10 to 30 ms of wall time, at jittered moments, so it samples
the machine's speed during the program's own work.  Each tick runs the
kernel twice and times the second run, so the caches the program left cold
do not count.  The handler's time is taken out of every measured interval.

``slowdown`` turns the samples taken during some work into the factor by
which the machine was slower than at ``REFERENCE_S``.  Dividing the work's
wall time by it gives the time the work would have taken at reference
speed.  The kernel does not call the library, so a change to the library
moves the scaled time as much as the wall time.
"""

from __future__ import annotations

import random
import signal
import time
from typing import NamedTuple

import numpy as np

# about the kernel's least time on one vCPU of a 2.1 GHz Intel Xeon
REFERENCE_S = 100e-6

_ROWS = [(str(i % 7), str(i % 11), str(i % 13)) for i in range(300)]
_ARRAY = np.arange(24.0).reshape(2, 3, 4)


def kernel() -> float:
    counts: dict = {}
    n = 0.0
    for row in _ROWS:
        if row[0] == "3" and row[1] != "5":
            n += 1
        counts[row] = counts.get(row, 0) + 1
    for _ in range(20):
        n += float((_ARRAY * _ARRAY).sum(axis=1).max())
    return n


def slowdown(samples: list[float]) -> float:
    """Reference time over the harmonic mean of the kernel times; 1 with no samples.

    Ticks fall evenly in time, so the mean of reference over kernel time is
    the mean speed over the work, and the work's wall time times that speed
    is its time at reference speed.  The harmonic mean also keeps a tick
    that the scheduler preempted from outweighing the rest.
    """
    if not samples:
        return 1.0
    return len(samples) / sum(REFERENCE_S / s for s in samples)


class Mark(NamedTuple):
    """A point in time, the handler time spent before it, and the samples taken before it."""

    wall: float
    spent: float
    samples: int


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, one per tick
        self.spent = 0.0  # seconds spent in the handler, kernel included
        self._rng = random.Random(0)
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._arm()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _arm(self) -> None:
        # jittered, so that the ticks cannot lock onto a periodic neighbour
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(0.010, 0.030))

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        kernel()  # warms the caches the program's work left cold
        t1 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t1)
        if self._running:
            self._arm()
        self.spent += time.perf_counter() - t0

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.spent, len(self.samples))

    def elapsed(self, since: Mark) -> float:
        """Wall seconds since the mark, less the handler's time."""
        return time.perf_counter() - since.wall - (self.spent - since.spent)

    def since(self, mark: Mark) -> list[float]:
        """The samples taken since the mark."""
        return self.samples[mark.samples :]
