"""Set up one benchmark run and exit: import the library and draw the first
batch of inputs.  run.py times this script from spawn to exit to report
``setup_s``.  Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

next(workloads.BATCHES[sys.argv[1]](random.Random(int(sys.argv[2]))))
