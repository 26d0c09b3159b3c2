"""Benchmark harness for levymc: pricing workloads, end-to-end metrics and traced layer timings.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the root of a source checkout; see ``perfbench/run.py``.
"""
