"""Reference loop that tracks this host's current speed.

A shared host's speed drifts by tens of percent within minutes (noisy
neighbours, frequency changes), far beyond any useful regression bound.
The drift slows every interpreted loop alike, so the benchmark times this
fixed pure-Python loop next to each measurement and reports
*reference seconds*: host seconds scaled by ``REFERENCE_S / loop seconds``.
On a host that runs the loop in ``REFERENCE_S``, reference seconds are
host seconds.  No change to ``repro`` can move the loop.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.02          # loop time on the host the bounds were set on
LOOP_ITERATIONS = 150_000
REPEATS = 3


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i ^ (total & 0xFF)
    return time.perf_counter() - start


def loop_s() -> float:
    """Median seconds of the reference loop, now, in this process."""
    return statistics.median(_loop() for _ in range(REPEATS))


def scale(samples) -> float:
    """Factor from host seconds to reference seconds for one measurement
    bracketed by the loop timings in ``samples``."""
    return REFERENCE_S / statistics.fmean(samples)
