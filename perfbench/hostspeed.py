"""Host-speed correction of measured times.

A shared host runs the same code at different speeds from one minute to the
next, in spells of tens of seconds, with CPU time tracking wall time (the
slowdown is not time stolen from the process but the processor running
slower).  Raw times of runs made minutes apart then disagree by more than a
useful bound.

So a run times a fixed pure-Python reference kernel again and again between
its operations, and multiplies every time it reports by
``(REF_S / median kernel time of the run) ** EXPONENT``.  The kernel uses
nothing from ``oblot`` and runs with the garbage collector off, so a change
to the program cannot move it.  A single kernel time is noisy; the median of
a run's many samples follows the spells and not the noise.

The program does not slow down in step with the kernel.  On a 2-vCPU x86
host, in one stretch of spells a build of C10 k=5 slowed about as much as the
kernel (1.4x); in another the kernel swung 1.9x while the benchmark's builds
and sweeps swung 1.2x, about a quarter as much in log terms.  Full
correction (exponent 1) removes the first kind but overturns the second,
leaving a larger error than no correction; the exponent 0.5 leaves about
half of the first and less than the raw swing of the second.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Seconds one kernel run takes on the nominal host: about its time in the fast
# state of the host the benchmark was written on, where the factor is 1.
REF_S = 0.003
# How far the correction follows the kernel, in log terms (see above).
EXPONENT = 0.5

_TUPLES = 1000
# Kernel runs per HostMeter.sample() call.
_RUNS = 3


def _kernel() -> int:
    """Sort small random tuples and count them in a dict: the interpreter
    work (allocation, comparison, hashing) that dominates ``oblot``."""
    rng = random.Random(12345)
    seen: dict[tuple[int, ...], int] = {}
    for _ in range(_TUPLES):
        t = tuple(sorted([rng.randrange(50) for _ in range(6)]))
        seen[t] = seen.get(t, 0) + 1
    return len(seen)


class HostMeter:
    """The kernel times sampled during one run."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        """Time the kernel a few times now and keep the times."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_RUNS):
                t0 = time.perf_counter()
                _kernel()
                self.times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """The factor for this run's times: ``(REF_S / median kernel time
        sampled so far) ** EXPONENT``; about 1 while this host runs fast,
        below 1 in a slow spell."""
        if not self.times:
            self.sample()
        return (REF_S / statistics.median(self.times)) ** EXPONENT
