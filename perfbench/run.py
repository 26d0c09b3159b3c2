"""levymc benchmark: price one workload repeatedly, check the prices, print metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload nig-asian-1e6 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps levymc's public names (see ``perfbench/trace.py``) and
reports per-layer self times and counts, the cost per draw of each random
variate, and the speed-up of simulation across worker threads; it also
requires byte-identical CSV at workers=1 and workers=nproc.

Human-readable lines start with ``#``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any correctness check fails, and the
program exits non-zero without a result when the levymc sources are missing.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import source  # noqa: E402

levymc = source.load()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from levymc import cli, sampling  # noqa: E402

from perfbench import checks, trace  # noqa: E402
from perfbench import workloads as W  # noqa: E402

SETUP_PROBES = 7
PROBE = Path(__file__).with_name("setup_probe.py")
RNG_DRAWS_PER_CALL = sampling.BLOCK_SIZE
RNG_CALLS = 64
RNG_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "cells_ok_frac": "frac",
}

# Per-layer self times and call counts, keyed by the span that yields them.
LAYER_TIMES = {
    "sampling.simulate_s": W.SIMULATE,
    "pricing.payoff_s": W.PAYOFF,
    "pricing.reduce_s": W.REDUCE,
    "cli.run_experiment_self_s": W.RUN_EXPERIMENT,
    "pricing.closed_form_s": W.CLOSED_FORM,
    "special_fn.integrate_s": W.INTEGRATE,
    "levy_models.nig_density_s": W.NIG_DENSITY,
    "measures.risk_neutralize_s": W.RISK_NEUTRALIZE,
    "cli.csv_s": W.CSV,
}
LAYER_CALLS = {
    "sampling.simulate_calls": W.SIMULATE,
    "pricing.payoff_calls": W.PAYOFF,
    "pricing.closed_form_calls": W.CLOSED_FORM,
    "special_fn.integrate_calls": W.INTEGRATE,
    "levy_models.nig_density_calls": W.NIG_DENSITY,
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    "pricing.closed_form_incl_s": "s",
    "sampling.path_steps": "count",
    "sampling.path_steps_per_s": "1/s",
    "sampling.bytes_materialised": "B",
    "sampling.rng_wald_ns": "ns",
    "sampling.rng_normal_ns": "ns",
    "sampling.rng_gamma_ns": "ns",
    "sampling.speedup_workers": "x",
    "cli.csv_bytes": "B",
    "cli.config_s": "s",
    "pricing.zero_se_cells": "count",
    "pricing.se2_x_s": "price2.s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def price_table(configs: list) -> tuple[list, str]:
    """Price every config and render the CSV, through the names the tracer may wrap."""
    rows = []
    for cfg in configs:
        rows.extend(cli.run_experiment(cfg))
    return rows, cli.rows_to_csv_text(rows)


class Tally:
    """Cells attempted and failed across repetitions, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_rows(self, rows) -> None:
        reasons = checks.classify(rows)
        self.attempted += len(rows)
        for row, reason in zip(rows, reasons):
            if reason is not None:
                self.failed += 1
                self.problem(f"{row.model}/{row.measure}/{row.scheme} T={row.maturity:g} "
                             f"r={row.r:g} K={row.strike:g}: {reason}")

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def setup_seconds(workload: W.Workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's configs being built."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(PROBE), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def measure_end_to_end(workload: W.Workload, seed: int, seconds: float, tally: Tally) -> dict:
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    configs = workload.build(seed)
    _, reference_csv = price_table(configs)  # warm-up, and the determinism reference

    walls: list[float] = []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        start = perf_counter()
        rows, text = price_table(configs)
        walls.append(perf_counter() - start)
        tally.add_rows(rows)
        if text != reference_csv:
            tally.problem("CSV differs between repetitions of the same seed")

    wall = statistics.median(walls)
    print(f"# wall_s over {len(walls)} repetitions: median {wall:.4f}, "
          f"min {min(walls):.4f}, max {max(walls):.4f}; setup_s samples {[round(s, 4) for s in setups]}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells_ok_frac": 1.0 - tally.failed / tally.attempted,
    }


@dataclass
class TracedRun:
    spans: list
    rows: list
    csv: str
    wall: float
    path_steps: int


def traced_run(workload: W.Workload, seed: int, workers: int) -> TracedRun:
    tracer = trace.Tracer()
    with trace.installed(tracer):
        configs = tracer.call(W.CONFIG, workload.build, (seed,), {})
        configs = [replace(cfg, workers=workers) for cfg in configs]
        start = perf_counter()
        rows, text = price_table(configs)
        wall = perf_counter() - start
    return TracedRun(
        spans=tracer.spans, rows=rows, csv=text, wall=wall,
        path_steps=sum(len(c.measures) * len(c.schemes) * c.n_paths * c.n_steps for c in configs),
    )


def layer_metrics(workload: W.Workload, run: TracedRun, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced run; an expected span with no calls is None (absent)."""
    own = trace.self_times(run.spans)

    def absent(span: str) -> bool:
        return span in workload.expects and span not in own

    out: dict = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = None if absent(span) else own.get(span, (0.0, 0))[0]
    for metric, span in LAYER_CALLS.items():
        out[metric] = None if absent(span) else own.get(span, (0.0, 0))[1]
    out["pricing.closed_form_incl_s"] = None if absent(W.CLOSED_FORM) else trace.inclusive_time(run.spans, W.CLOSED_FORM)
    out["sampling.path_steps"] = run.path_steps
    simulate_s = out["sampling.simulate_s"]
    out["sampling.path_steps_per_s"] = run.path_steps / simulate_s if simulate_s else None
    # computed, not measured: each simulation holds n x s float64 increments and spots
    out["sampling.bytes_materialised"] = 2 * 8 * run.path_steps
    out["cli.csv_bytes"] = len(run.csv.encode())
    out["cli.config_s"] = own[W.CONFIG][0]
    out["pricing.zero_se_cells"] = sum(row.std_error == 0.0 for row in run.rows)
    se2 = [row.std_error ** 2 for row in run.rows if row.std_error is not None]
    out["pricing.se2_x_s"] = statistics.fmean(se2) * untraced_wall / len(run.rows) if se2 else None
    out["trace.wall_s"] = run.wall
    out["trace.overhead_s"] = run.wall - untraced_wall
    return out


def rng_draw_ns(configs: list, seed: int) -> dict:
    """Nanoseconds per draw of the public ``sample_*`` functions on an RngStream."""
    params = W.rng_parameters(configs)
    stream = sampling.RngStream(seed)
    n = RNG_DRAWS_PER_CALL
    draws = {
        "sampling.rng_wald_ns": lambda: sampling.sample_inverse_gaussian(stream, *params["wald"], size=n),
        "sampling.rng_normal_ns": lambda: sampling.sample_standard_normal(stream, n),
        "sampling.rng_gamma_ns": lambda: sampling.sample_gamma(stream, *params["gamma"], size=n),
    }
    out = {}
    for metric, draw in draws.items():
        times = []
        for _ in range(RNG_REPEATS):
            start = perf_counter()
            for _ in range(RNG_CALLS):
                draw()
            times.append(perf_counter() - start)
        out[metric] = statistics.median(times) / (RNG_CALLS * n) * 1e9
    return out


def measure_layers(workload: W.Workload, seed: int, seconds: float, tally: Tally) -> dict:
    configs = workload.build(seed)
    _, reference_csv = price_table(configs)  # warm-up, and the determinism reference

    samples: dict[str, list] = defaultdict(list)
    cycles = 0
    deadline = perf_counter() + seconds
    while not cycles or perf_counter() < deadline:
        start = perf_counter()
        price_table(configs)
        untraced_wall = perf_counter() - start
        parallel = traced_run(workload, seed, W.NPROC)
        cycles += 1
        tally.add_rows(parallel.rows)
        if parallel.csv != reference_csv:
            tally.problem("CSV of a traced run differs from the untraced run")
        for metric, value in layer_metrics(workload, parallel, untraced_wall).items():
            samples[metric].append(value)

    out = {
        metric: None if None in values else statistics.median(values)
        for metric, values in samples.items()
    }
    serial = traced_run(workload, seed, 1)
    if serial.csv != reference_csv:
        tally.problem(f"CSV differs between workers=1 and workers={W.NPROC}")
    serial_simulate = trace.self_times(serial.spans).get(W.SIMULATE, (0.0, 0))[0]
    parallel_simulate = out["sampling.simulate_s"]
    out["sampling.speedup_workers"] = serial_simulate / parallel_simulate if parallel_simulate else None
    out.update(rng_draw_ns(configs, seed))
    attributed = sum(out[m] or 0.0 for m in LAYER_TIMES)
    print(f"# {cycles} traced cycles; self times sum to {attributed:.4f} s of traced wall "
          f"{out['trace.wall_s']:.4f} s (overhead {out['trace.overhead_s']:.4f} s)")
    for metric in sorted(out):
        value = "absent" if out[metric] is None else f"{out[metric]:.6g}"
        print(f"# {metric:32s} {value:>14s} {PER_LAYER_UNITS[metric]:6s} moves {W.PREDICTIONS[metric]}")
    return out


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else None


def machine_facts(workload: W.Workload, seed: int) -> dict:
    configs = workload.build(seed)
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": W.NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "levymc": levymc.__version__,
        "bit_generator": type(sampling.RngStream(0).generator().bit_generator).__name__,
        "block_size": sampling.BLOCK_SIZE,
        "l3_bytes_read": l3_bytes(),
        "matrix_bytes_computed": max(c.n_paths * c.n_steps * 8 for c in configs),
        "configs": len(configs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    workload = W.WORKLOADS[args.workload]
    print("# facts " + json.dumps(machine_facts(workload, args.seed)))
    tally = Tally()
    if args.trace:
        values, units = measure_layers(workload, args.seed, args.seconds, tally), PER_LAYER_UNITS
    else:
        values, units = measure_end_to_end(workload, args.seed, args.seconds, tally), END_TO_END_UNITS
    for message in tally.problems:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
