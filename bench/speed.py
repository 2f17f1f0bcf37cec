"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared virtual machine (2 vCPUs, measured), the speed of
a fixed pure-Python loop drifts by 2x within minutes, and CPU time tracks
wall time (the host's contention is not booked as steal).  Repeating work
inside a 25-second run cannot average that out.

``Speedometer`` runs a fixed calibration kernel from a SIGALRM handler
every PERIOD seconds, in the benchmark's own process and thread.  The
kernel sums exact Fractions looked up in shuffled order from a dict of
tuple keys about 3 MB in size: the same kind of work as the library's inner
loops, with a working set beyond the core's own caches, so that it slows
down under the same contention.  (A kernel that stays in the first-level
cache tracked the library worse than no calibration at all.)

A timed interval is converted to *reference seconds*: its wall time minus
the handler's time, times the mean over the interval of the local factor.
Between two samples, the local factor is REFERENCE_KERNEL_S over the
median kernel time of the samples taken within WINDOW seconds of the
first one.  (Stretch by stretch, because the speed drifts within a
second, and a whole-interval factor left an auto-mix pass twice as
noisy; the median, because a rare stall that hits a 2 ms sample would
otherwise weigh as much as a slowdown of the whole stretch.)  A reference
second is the time the interval would take on a machine where one kernel
call takes REFERENCE_KERNEL_S.  Making the library faster lowers reference
seconds exactly as it lowers wall time; a slowdown of the whole machine
cancels out.  The handler takes about 2% of the run.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1
WINDOW = 0.25
REFERENCE_KERNEL_S = 0.002
KERNEL_ENTRIES = 20_000
KERNEL_READS = 500


class Speedometer:
    """Samples the kernel periodically while it is entered (a context)."""

    def __init__(self):
        self.table = {(i % 1000, i // 1000): Fraction(i % 13 + 1, i % 7 + 1) for i in range(KERNEL_ENTRIES)}
        self.keys = list(self.table)
        random.Random(0).shuffle(self.keys)
        self.position = 0
        self.times: list[float] = []  # sample start times, increasing
        self.kernel_s: list[float] = []
        self.busy = 0.0  # time spent in the handler so far
        self._previous = None
        self._local: list[float] = []  # local factor from each sample on

    def kernel(self) -> Fraction:
        p = self.position
        total = Fraction(0)
        for key in self.keys[p : p + KERNEL_READS]:
            total += self.table[key]
        self.position = (p + KERNEL_READS) % (len(self.keys) - KERNEL_READS)
        return total

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.kernel_s.append(end - start)
        self.busy += end - start

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """A point in time: (clock, handler time so far)."""
        return time.perf_counter(), self.busy

    def _local_factors(self) -> list[float]:
        if len(self._local) != len(self.times):
            local = []
            for t in self.times:
                lo = bisect.bisect_left(self.times, t - WINDOW)
                hi = bisect.bisect_right(self.times, t + WINDOW)
                local.append(REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi]))
            self._local = local
        return self._local

    def factor(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Reference seconds per second of work between two marks: the
        local factor, averaged over the interval by time."""
        local = self._local_factors()
        a, b = start[0], end[0]
        i = max(bisect.bisect_right(self.times, a) - 1, 0)
        if b <= a:
            return local[i]
        total = 0.0
        while a < b:
            stop = min(self.times[i + 1], b) if i + 1 < len(self.times) else b
            total += (stop - a) * local[i]
            a, i = stop, i + 1
        return total / (end[0] - start[0])

    def reference_seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Time between two marks, without the handler, at reference speed."""
        elapsed = (end[0] - start[0]) - (end[1] - start[1])
        return elapsed * self.factor(start, end)

    @staticmethod
    def wall(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Time between two marks, without the handler, as measured."""
        return (end[0] - start[0]) - (end[1] - start[1])
