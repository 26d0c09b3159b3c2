"""Set-up time probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Imports levymc
from the checkout, builds the workload's configs and prints the
``time.perf_counter()`` reading at which that finished; the parent subtracts
its own reading taken just before starting this process.
"""
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import source  # noqa: E402

source.load()

from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(perf_counter()))
