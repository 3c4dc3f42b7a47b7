"""Job times corrected for the machine's speed at the moment they were taken.

The small shared machines this benchmark runs on lose speed in two ways.
The hypervisor takes the CPU away for a while (steal time), and the
machine alternates between a fast and a slow state that last from a
fraction of a second to minutes, in which the same work takes up to 1.7
times as long.  Raw wall times of repeated runs then spread by 10 to 55 %
(interquartile range over median), and the medians of two sets of runs
half an hour apart differed by up to 30 %.  Jobs and set-up are therefore
timed in CPU time of the benchmark's process, which leaves out steal time,
and each timed piece of work is paired with a fixed calibration loop
measured right next to it; the result is reported as

    cpu_seconds * (REFERENCE_S / calibration) ** exponent

The loop does not touch the package, so a change to the package moves the
corrected times as it moves the raw ones; raw wall and CPU times and the
calibrations stay in the per-run details file.  A job is timed between two
calibrations and scaled by their mean; jobs follow the loop's slowdown
nearly in full, so ``JOB_EXPONENT`` is 1.  On a 2-CPU x86-64 container
the spreads of job_p50_ms, job_p90_ms and jobs_per_s were at most 8 %
this way over two sets of ten runs per workload, whose medians agreed
within 2 %; in four runs per workload, CPU time alone spread up to 11 %,
wall time alone up to 19 % and calibrated wall time up to 15 %.  Set-up
time (imports, in a fresh process) is calibrated once before it starts
and feels the slowdown less; its spread was lowest with
``SETUP_EXPONENT`` 0.5 to 0.75.  ``REFERENCE_S`` is the
loop's time in the fast state there, so the numbers read as fast-state
seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 4e-4
JOB_EXPONENT = 1.0
SETUP_EXPONENT = 0.5
ROUNDS = 3


def calibration() -> float:
    """Fastest of ``ROUNDS`` runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, calibration_s: float, exponent: float = JOB_EXPONENT) -> float:
    return seconds * (REFERENCE_S / calibration_s) ** exponent
