"""Calibration loop that puts wall times on a common CPU-speed scale.

On a shared host the speed of one core drifts by up to 1.5x over seconds
(other tenants, frequency changes).  Process CPU time drifts with it, so
it is no remedy, and raw medians of two runs of the same code differ by
more than the bounds the benchmark gates on.  A fixed pure-Python loop
timed next to each invocation slows down by the same factor, so every
reported time is the raw wall time scaled by ``REFERENCE_S / loop time``:
the time the invocation would take on a host where the loop takes
REFERENCE_S.  The loop touches nothing of the program under test, so a
change to the program moves only the numerator.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.001  # nominal loop time; fixes the unit of normalised seconds


def loop_time() -> float:
    """Wall time of a fixed mix of dict updates, calls and a keyed sort."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted(range(800), key=lambda x: -x)
    return time.perf_counter() - start


def normalised(raw_s: float, loop_s: float) -> float:
    return raw_s * REFERENCE_S / loop_s
