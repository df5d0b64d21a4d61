"""A fixed reference loop that measures how fast the host runs right now.

The benchmark host is shared: the throughput of a fixed CPU loop swings by
±30% in phases of seconds to minutes.  Process CPU time swings the same
way, so the cause is not steal time.  The worker times this loop before
and after every CLI call.  It scales the call's time by ``NOMINAL_S`` over
the mean of the two loop times, which gives the call's time at the
reference host speed.

A plain integer loop tracked the three workloads' slow phases more evenly
than loops built on Fraction arithmetic or tuple allocation did.  It uses
no weylzeta code, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

# the loop's time on the 2-vCPU host where the benchmark was written
NOMINAL_S = 0.05


def reference_seconds() -> float:
    """Time of one run of the reference loop."""
    start = time.perf_counter()
    s = 0
    for i in range(500_000):
        s += i * i % 7
    return time.perf_counter() - start
