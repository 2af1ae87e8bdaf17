"""A speedometer for the core this process runs on.

The benchmark shares its machine with other work, which slows this core
by up to about 2x for stretches of milliseconds to minutes.  CPU time
tracks wall time through those stretches, so neither clock can tell a
slower program from a slower machine.  The speedometer times a fixed
integer loop every PERIOD seconds of wall time from a SIGALRM handler.  An
interval then converts to nominal seconds:

    nominal = (t1 - t0) * mean(NOMINAL_LOOP_S / loop time)

over the samples taken in and around the interval.  That is the time the
interval's work would take at the speed where the loop takes
NOMINAL_LOOP_S.  The constant only fixes the unit: the same benchmark code
uses the same value on both sides of a comparison.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

PERIOD = 0.005
# The 5th percentile of 4,000 loop times on a 2-core Intel Xeon (2.0 GHz)
# under Python 3.11; only the unit of the results depends on it.
NOMINAL_LOOP_S = 14.5e-6
# Samples this close to an interval count for it, so that requests shorter
# than the sampling period still see a few samples.
MARGIN = 0.012


def _loop():
    s = 0
    for i in range(300):
        s += i * i
    return s


class Speedometer:
    """Samples the loop time from SIGALRM while started."""

    def __init__(self):
        # Raw doubles: a float object per sample, kept for the whole run,
        # would pin the heap arenas of the program's own allocations and
        # make peak memory grow with the number of passes.
        self.times = array("d")
        self.loops = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t = clock()
        _loop()
        self.times.append(t)
        self.loops.append(clock() - t)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at nominal speed."""
        lo = bisect.bisect_left(self.times, t0 - MARGIN)
        hi = bisect.bisect_right(self.times, t1 + MARGIN)
        loops = self.loops[lo:hi]
        if not loops:
            raise RuntimeError("no speed samples near the interval")
        return (t1 - t0) * sum(NOMINAL_LOOP_S / d for d in loops) / len(loops)
