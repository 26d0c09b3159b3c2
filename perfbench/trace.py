"""Spans around levymc's public names, recorded from outside the package.

``installed(tracer)`` swaps each name in ``TARGETS`` for a wrapper that records
a span (name, start, end, parent) and restores the originals on exit.  Calls
are strictly nested on the calling thread, so a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

from levymc import cli, pricing
from levymc.pricing import McResult, Payoff

from perfbench import workloads as W


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Keeps spans in memory; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Map span name to (self seconds, calls); self = duration minus direct children."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        duration = span.end - span.start
        entry = out[span.name]
        entry[0] += duration
        entry[1] += 1
        if span.parent is not None:
            out[spans[span.parent].name][0] -= duration
    return {name: (total, calls) for name, (total, calls) in out.items()}


def inclusive_time(spans, name: str) -> float:
    """Total duration of the outermost spans called ``name``."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            total += span.end - span.start
    return total


# (owner, attribute, span name): the public names the CLI pipeline calls through.
TARGETS = (
    (cli, "run_experiment", W.RUN_EXPERIMENT),
    (cli, "simulate_paths", W.SIMULATE),
    (cli, "risk_neutralize", W.RISK_NEUTRALIZE),
    (cli, "european_call_nig_closed", W.CLOSED_FORM),
    (cli, "rows_to_csv_text", W.CSV),
    (Payoff, "evaluate", W.PAYOFF),
    (McResult, "from_discounted_payoffs", W.REDUCE),
    (pricing, "integrate", W.INTEGRATE),
    (pricing, "nig_density", W.NIG_DENSITY),
)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Route every (owner, attribute, span name) in ``targets`` through ``tracer`` until the block exits.

    A name the owner no longer has is skipped, so its layer shows up as absent
    rather than breaking the run.
    """
    present = [target for target in targets if hasattr(target[0], target[1])]
    saved = [(owner, attr, inspect.getattr_static(owner, attr)) for owner, attr, _ in present]
    try:
        for (owner, attr, name), (_, _, original) in zip(present, saved):
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, original.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
