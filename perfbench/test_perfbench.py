"""Tests of the benchmark's own helpers: span self times, wrapper install, cell checks, metric names."""
import json
import math
import types
from pathlib import Path

import pytest

from perfbench import source

source.load()

from levymc.cli import ResultRow  # noqa: E402

from perfbench import checks, run, trace  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.trace import Span  # noqa: E402


def test_self_times_subtract_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("child", 1.0, 4.0, 0),
        Span("grandchild", 2.0, 3.5, 1),
        Span("child", 5.0, 9.0, 0),
        Span("root", 20.0, 21.0, None),
    ]
    own = trace.self_times(spans)
    assert own["root"] == (pytest.approx(10.0 - 3.0 - 4.0 + 1.0), 2)
    assert own["child"] == (pytest.approx(3.0 - 1.5 + 4.0), 2)
    assert own["grandchild"] == (pytest.approx(1.5), 1)
    total = sum(s.end - s.start for s in spans if s.parent is None)
    assert sum(t for t, _ in own.values()) == pytest.approx(total)


def test_inclusive_time_counts_outermost_spans_once():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("f", 1.0, 5.0, 0),
        Span("g", 2.0, 4.0, 1),
        Span("f", 2.5, 3.0, 2),  # recursive call inside the first f
        Span("f", 6.0, 7.0, 0),
    ]
    assert trace.inclusive_time(spans, "f") == pytest.approx(5.0)
    assert trace.inclusive_time(spans, "missing") == 0.0


def test_installed_records_nested_spans_and_restores_originals():
    class Model:
        @classmethod
        def make(cls, x):
            return x + 1

    def inner(x):
        return Model.make(x) * 2

    owner = types.SimpleNamespace(inner=inner)

    def outer(x):
        return owner.inner(x) + 1

    owner.outer = outer
    targets = ((owner, "outer", "a.outer"), (owner, "inner", "a.inner"),
               (Model, "make", "a.make"), (owner, "gone", "a.gone"))
    tracer = trace.Tracer()
    with trace.installed(tracer, targets):
        assert owner.outer(1) == 5
    assert owner.outer is outer and owner.inner is inner
    assert isinstance(vars(Model)["make"], classmethod) and Model.make(1) == 2
    assert [s.name for s in tracer.spans] == ["a.outer", "a.inner", "a.make"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert not hasattr(owner, "gone")


def _row(**overrides):
    fields = dict(
        model="nig", measure="esscher", scheme="ig", payoff="european_call",
        s0=36.0, strike=36.0, r=0.05, maturity=0.5, n_steps=16, n_paths=10000, seed=1,
        price=1.0, std_error=0.01, ci_lo=0.98, ci_hi=1.02, closed_form=1.02, status="ok",
    )
    fields.update(overrides)
    return ResultRow(**fields)


def test_classify_accepts_correct_rows_and_zero_se_cells():
    rows = [
        _row(),
        _row(price=0.0, std_error=0.0, closed_form=1e-9),  # no path paid: not a failure
        _row(closed_form=None, payoff="asian_arithmetic_call"),
    ]
    assert checks.classify(rows) == [None, None, None]


@pytest.mark.parametrize("overrides, fragment", [
    (dict(status="closed form undefined"), "status"),
    (dict(price=None, std_error=None), "missing"),
    (dict(price=math.nan), "non-finite"),
    (dict(std_error=math.inf), "non-finite"),
    (dict(price=-0.5, closed_form=None), "outside"),
    (dict(price=40.0, closed_form=None), "outside"),
    (dict(price=1.0, std_error=0.01, closed_form=1.07), "closed form"),
    (dict(price=0.0, std_error=0.0, closed_form=0.01), "closed form"),
])
def test_classify_flags_each_failure(overrides, fragment):
    (reason,) = checks.classify([_row(**overrides)])
    assert reason is not None and fragment in reason


def test_classify_pairs_bgss_and_dg_on_the_same_cell():
    def vg(scheme, price, strike=101.0):
        return _row(model="vg", scheme=scheme, payoff="asian_arithmetic_call", s0=100.0,
                    strike=strike, price=price, std_error=0.01, closed_form=None)

    agree = [vg("bgss", 5.00), vg("dg", 5.05)]
    assert checks.classify(agree) == [None, None]
    disagree = [vg("bgss", 5.00), vg("dg", 5.20), vg("bgss", 3.0, strike=105.0)]
    reasons = checks.classify(disagree)
    assert "differ" in reasons[0] and "differ" in reasons[1] and reasons[2] is None


def test_expected_layer_without_calls_is_absent_not_zero():
    spans = [Span(W.RUN_EXPERIMENT, 0.0, 1.0, None), Span(W.SIMULATE, 0.1, 0.6, 0),
             Span(W.CONFIG, 1.0, 1.001, None)]
    traced = run.TracedRun(spans=spans, rows=[_row()], csv="x\n", wall=1.0, path_steps=160000)
    surface = run.layer_metrics(W.WORKLOADS["nig-surface-1e4"], traced, untraced_wall=0.9)
    assert surface["pricing.payoff_s"] is None and surface["pricing.payoff_calls"] is None
    assert surface["pricing.closed_form_incl_s"] is None
    assert surface["sampling.simulate_s"] == pytest.approx(0.5)
    asian = run.layer_metrics(W.WORKLOADS["nig-asian-1e6"], traced, untraced_wall=0.9)
    assert asian["pricing.closed_form_s"] == 0.0 and asian["special_fn.integrate_calls"] == 0
    assert asian["pricing.payoff_s"] is None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in W.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(W.PREDICTIONS) == set(run.PER_LAYER_UNITS)
