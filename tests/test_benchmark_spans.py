"""Every layer a benchmark workload expects is still called by the pricing pipeline.

The benchmark (``perfbench/``) times layers by wrapping public names such as
``cli.simulate_paths`` or ``pricing.nig_density``.  A refactor that stops
calling one of them through that name leaves its span without calls, and a
traced benchmark run then reports the layer as absent.  Each workload is
priced here shrunk to two configs at 2000 paths, under the benchmark's own
tracer and pricing loop.
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import source  # noqa: E402

source.load()

from perfbench import run, trace  # noqa: E402
from perfbench import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_calls_every_expected_span(name):
    workload = W.WORKLOADS[name]
    configs = [replace(cfg, n_paths=2000) for cfg in workload.build(1)[:2]]
    tracer = trace.Tracer()
    with trace.installed(tracer):
        run.price_table(configs)
    called = {span.name for span in tracer.spans}
    assert not workload.expects - called, f"spans with no calls: {sorted(workload.expects - called)}"
