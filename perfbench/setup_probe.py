"""Set-up time of one fresh process: import refinable and build the job list.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the CPU seconds from the start of the import to a ready job list,
and the calibration loop's time measured just before (``clock.py``).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clock  # noqa: E402

CALIBRATION = clock.calibration()
START = time.process_time()

import refinable.cli  # noqa: E402,F401
import corpus  # noqa: E402

corpus.jobs(sys.argv[1], int(sys.argv[2]))
print(time.process_time() - START, CALIBRATION)
