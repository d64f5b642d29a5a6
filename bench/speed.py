"""Operation times scaled to a reference speed of the machine.

On a machine whose cores are shared, the speed of pure-Python code
drifts by up to ~1.8x over periods of seconds (a fixed loop measured
2.4 to 4.4 ms within one minute, in CPU time as in wall time), so raw
times of the same work differ by ~20% between 10-second runs.
:class:`SpeedProbe` times a fixed pure-Python snippet every 20 ms from
a ``SIGALRM`` handler while operations run, and :meth:`SpeedProbe.scaled`
converts an operation's time to what it would be at the speed where
the snippet takes ``NOMINAL_S``: the operation's time, less the
snippets that ran inside it, times ``NOMINAL_S`` over the mean snippet
time around it.  A faster library still reads faster; a slower machine
phase no longer does.
"""

from __future__ import annotations

import bisect
import signal
from statistics import fmean
from time import perf_counter

#: Snippet time, in seconds, that scaled times refer to (its typical time
#: on a quiet core of the machine the reference figures come from).
NOMINAL_S = 0.00025
INTERVAL_S = 0.02
#: Samples this close to an operation count towards its speed.
WINDOW_S = 0.05


def _snippet():
    """Interpreter work like the library's: dicts, tuples, small ints, calls."""
    counts = {}
    pair = ()
    for i in range(1000):
        k = i % 17
        counts[k] = counts.get(k, 0) + i
        pair = (k, pair[:1])
    return counts, pair


class SpeedProbe:
    """Samples the snippet's time while active; use as a context manager."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _snippet()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the operation from ``t0`` to ``t1`` takes at the nominal speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        own = (t1 - t0) - sum(self.times[lo:hi])
        a = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        b = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if a == b:  # no sample near: take the nearest one
            a = min(max(lo - 1, 0), len(self.times) - 1)
            b = a + 1
        return own * NOMINAL_S / fmean(self.times[a:b])
