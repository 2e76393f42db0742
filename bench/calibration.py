"""Core-speed probe that puts timings from a shared machine on one scale.

On a machine shared with other tenants the same code runs up to twice as
slow for seconds at a time, and the share of slow seconds varies from run to
run far more than any change worth measuring.  While a measurement runs, a
SIGALRM handler times a fixed pure-Python loop every PERIOD_S.  A time t
measured over [t0, t1] is reported as

    t * CAL_REF_S / c,

c being the median loop time sampled within WINDOW_S of [t0, t1]: the time
the work takes on a core where the loop takes CAL_REF_S.  The handler's own
time is subtracted from t.  The probe does not touch polykernel, so a change
to the program moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from array import array
from time import perf_counter

PERIOD_S = 0.01
WINDOW_S = 0.05

# The loop's median time, sampled this way, on an uncontended core of the
# machine the baseline was measured on (Intel Xeon, 2.0 GHz).
CAL_REF_S = 40e-6


def _loop():
    s = 0.0
    for i in range(1, 300):
        s += math.sqrt(i) * 0.5 + (i % 7)
    return s


class Sampler:
    """Times the probe loop every PERIOD_S while the `with` block runs."""

    def __init__(self):
        self.at = array("d")
        self.cost = array("d")
        self.spent = 0.0        # seconds spent in the handler, to subtract
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        self.at.append(t0)
        self.cost.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def scale_factor(at, cost, t0: float, t1: float) -> float:
    """CAL_REF_S over the median probe time sampled within WINDOW_S of
    [t0, t1]; `at` is sorted."""
    lo = bisect.bisect_left(at, t0 - WINDOW_S)
    hi = bisect.bisect_right(at, t1 + WINDOW_S)
    if hi == lo:
        raise ValueError("no speed sample near the measured interval")
    return CAL_REF_S / statistics.median(cost[lo:hi])
