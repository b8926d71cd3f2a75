"""The calibration unit: a fixed loop that uses the standard library only.

Step times are divided by the time of this loop, run next to each step in
the same process, so that a machine that runs everything 20% slower for a
while moves both alike.  The loop does complex arithmetic with cmath.exp
and Python-level calls, like chebgamma's kernels, and takes one to two ms.

Both the loop and the product calls it is set against are timed with
``clock``, the CPU time of the calling thread.  On a shared machine the
process is descheduled now and then for a few ms; wall time counts that
pause in whichever segment it hits, CPU time does not.
"""

from __future__ import annotations

import cmath
from time import thread_time as clock

ITERATIONS = 3000
# Median CPU seconds of one loop on the machine the bounds were set on (x86_64,
# 2 vCPUs, CPython 3.11); setup_s is reported in seconds at this speed.
REFERENCE_S = 0.00125


def _mix(acc: complex, w: complex, n: int) -> complex:
    return 0.5 * acc + w * (0.3 + 0.2j) - 1.0 / (w + n)


def calibrate() -> float:
    """Seconds one pass of the loop takes now."""
    z = 0.3 + 0.2j
    acc = 0j
    t0 = clock()
    for n in range(1, ITERATIONS):
        acc = _mix(acc, cmath.exp(z / n), n)
        if abs(acc) > 1e300:
            acc = 0j
    elapsed = clock() - t0
    if acc == 0j:
        raise RuntimeError("calibration loop produced no work")
    return elapsed
