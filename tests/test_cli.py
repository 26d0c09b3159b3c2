"""Config parsing, experiment runner, CSV output, presets, exit codes."""
import csv
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levymc import cli
from levymc.cli import (
    CSV_HEADER,
    ConfigError,
    PRESETS,
    main,
    parse_config,
    rows_to_csv_text,
    run_experiment,
    write_csv,
)
from levymc.levy_models import vg_from_mean_variance
from levymc.measures import MarketData, risk_neutralize
from levymc.pricing import Payoff, price_mc
from levymc.sampling import BLOCK_SIZE, PathGrid, simulate_paths
from levymc.special_fn import QuadratureError

MINIMAL_NIG = {
    "model": "nig",
    "params": {"alpha": 81.6, "beta": 3.69, "mu": -0.000123, "delta": 0.0103},
    "market": {"s0": 36.0, "r": 0.1, "T": 1.0 / 12.0},
    "strikes": [34.0],
}


def test_parse_minimal_nig_config_defaults():
    cfg = parse_config(json.dumps(MINIMAL_NIG))
    assert cfg.n_steps == 16
    assert cfg.n_paths == 10000
    assert cfg.seed == 42
    assert cfg.measures == ("esscher",)
    assert cfg.schemes == ("ig",)
    assert cfg.payoff_kind == "european_call"


def test_parse_rejects_incompatible_scheme():
    doc = dict(MINIMAL_NIG, scheme="dg")
    with pytest.raises(ConfigError, match="config.scheme"):
        parse_config(json.dumps(doc))


def test_parse_accepts_vg_clock_parametrization():
    doc = {
        "model": "vg",
        "params": {"beta": -0.1436, "sigma": 0.12136, "nu": 0.3},
        "market": {"s0": 100.0, "r": 0.1, "T": 1.0},
        "strikes": [101.0],
        "payoff": "asian_arithmetic_call",
        "s": 16,
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.model == "vg"
    assert cfg.schemes == ("bgss",)
    assert cfg.params == vg_from_mean_variance(-0.1436, 0.12136, 0.3)


def test_parse_error_reports_field_path():
    with pytest.raises(ConfigError, match="config.market"):
        parse_config(json.dumps({"model": "nig", "params": MINIMAL_NIG["params"], "strikes": [1.0]}))
    with pytest.raises(ConfigError, match="config.params.alpha"):
        parse_config(json.dumps(dict(MINIMAL_NIG, params={"alpha": "big", "beta": 0, "mu": 0, "delta": 1})))
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit"):
        parse_config('{"strikes": [' + "1" * 5001 + "]}")  # past Python's integer digit limit
    for field, value in [("measure", 1), ("measure", None), ("model", ["nig"]), ("params", 5), ("payoff", []),
                         ("strikes", [34.0, -1.0]), ("out", 5)]:
        with pytest.raises(ConfigError, match=f"config.{field}"):
            parse_config(json.dumps(dict(MINIMAL_NIG, **{field: value})))
    with pytest.raises(ConfigError, match="config.n_path: unknown field"):
        parse_config(json.dumps(dict(MINIMAL_NIG, n_path=1_000_000)))
    vg_mean_variance = {"beta": -0.1436, "sigma": 0.12136, "nu": 0.3}
    vg_subordinated = {"x0": 0.0, "lambda": 1.0, "gamma": 0.1, "beta": 0.0, "sigma": 1.0}
    for model, params, key in [
        ("vg", dict(vg_mean_variance, x0=0.5), "x0"),
        ("vg", dict(vg_mean_variance, lam=2.0), "lam"),
        ("vg", dict(vg_mean_variance, gamma=0.1), "gamma"),
        ("vg", dict(vg_subordinated, theta=0.1), "theta"),
        ("vg", dict(vg_subordinated, lam=1.0), "lam"),  # one key per field: lambda and gamma have no aliases
        ("vg", dict(vg_subordinated, gamma_rate=0.1), "gamma_rate"),
        ("nig", dict(MINIMAL_NIG["params"], sigma=3), "sigma"),
    ]:
        with pytest.raises(ConfigError, match=f"config.params.{key}: unknown field"):
            parse_config(json.dumps(dict(MINIMAL_NIG, model=model, params=params)))
    with pytest.raises(ConfigError, match="config.market.q: unknown field"):
        parse_config(json.dumps(dict(MINIMAL_NIG, market=dict(MINIMAL_NIG["market"], q=0.03))))
    for params, message in [
        # 1/nu overflows to an infinite clock rate, which VgParams rejects
        (dict(vg_mean_variance, nu=1e-320), "config.params: lam must be finite and > 0, got inf"),
        (dict(vg_mean_variance, nu=0.0), "config.params: nu must be > 0"),
        (dict(vg_subordinated, gamma=0.0), "config.params: gamma_rate must be finite and > 0"),
        ({"x0": 0.0, "gamma": 0.1, "beta": 0.0, "sigma": 1.0}, "config.params.lambda: missing required field"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(dict(MINIMAL_NIG, model="vg", params=params)))
    # json writes and parses NaN, Infinity and integers past the float range; no field takes them
    for doc, field in [
        (dict(MINIMAL_NIG, strikes=[math.inf]), r"config\.strikes\[0\]"),
        (dict(MINIMAL_NIG, market=dict(MINIMAL_NIG["market"], r=math.nan)), r"config\.market\.r"),
        (dict(MINIMAL_NIG, params=dict(MINIMAL_NIG["params"], alpha=math.inf)), r"config\.params\.alpha"),
        (dict(MINIMAL_NIG, strikes=[34.0, 10**400]), r"config\.strikes\[1\]"),
    ]:
        with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
            parse_config(json.dumps(doc))


def test_parse_rejects_repeated_entries():
    for field, value, path in [
        ("measure", ["esscher", "esscher"], r"config\.measure\[1\]: repeats 'esscher'"),
        ("measure", ["mean_correct", "esscher", "mean-correct"], r"config\.measure\[2\]: repeats 'mean_correct'"),
        ("scheme", ["ig", "ig"], r"config\.scheme\[1\]: repeats 'ig'"),
        ("strikes", [34.0, 35.0, 34], r"config\.strikes\[2\]: repeats 34\.0"),
    ]:
        with pytest.raises(ConfigError, match=path):
            parse_config(json.dumps(dict(MINIMAL_NIG, **{field: value})))


def test_parse_rejects_invariant_violations():
    bad = dict(MINIMAL_NIG, params={"alpha": 1.0, "beta": 2.0, "mu": 0.0, "delta": 1.0})
    with pytest.raises(ConfigError, match="config.params"):
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match="config.strikes"):
        parse_config(json.dumps(dict(MINIMAL_NIG, strikes=[])))
    with pytest.raises(ConfigError, match="config.seed"):
        parse_config(json.dumps(dict(MINIMAL_NIG, seed=-1)))


def test_run_experiment_single_path_degenerate():
    cfg = parse_config(json.dumps(dict(MINIMAL_NIG, strikes=[0.0], n_paths=1, s=4, seed=23)))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    rnm = risk_neutralize(cfg.params, cfg.market, "esscher")
    # a European row simulates one step of length T, whatever s says
    spot = simulate_paths(rnm, PathGrid(cfg.market.T, 1), 1, seed=23).terminal[0]
    assert rows[0].price == pytest.approx(math.exp(-cfg.market.r * cfg.market.T) * spot, rel=1e-15)
    assert rows[0].std_error == 0.0
    assert rows[0].status == "ok"


@pytest.mark.parametrize("payoff, simulated_steps", [("european_call", 1), ("asian_arithmetic_call", 5)])
def test_run_experiment_simulates_the_steps_its_payoff_reads(monkeypatch, payoff, simulated_steps):
    grids = []

    def recording(rnm, grid, *args, **kwargs):
        grids.append(grid)
        return simulate_paths(rnm, grid, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recording)
    cfg = parse_config(json.dumps(dict(MINIMAL_NIG, payoff=payoff, s=5, n_paths=10)))
    rows = run_experiment(cfg)
    assert grids == [PathGrid(cfg.market.T, simulated_steps)]
    assert [(row.n_steps, row.status) for row in rows] == [(5, "ok")]


# both VG measures and both schemes at the vg-lecuyer parameters: each scheme
# shares its draws across the measures
NIG_SURFACE_SHORT = Path(__file__).parent / "configs" / "nig-surface-short.json"
VG_BOTH_MEASURES = json.loads((Path(__file__).parent / "configs" / "vg-lecuyer-both-measures.json").read_text())
# the same model in the subordinated spelling: x0 = 0, lambda = gamma = 1/nu
VG_SUBORDINATED = json.loads((Path(__file__).parent / "configs" / "vg-lecuyer-subordinated.json").read_text())
NIG_ASIAN_BOTH_MEASURES = dict(
    MINIMAL_NIG, measure=["esscher", "mean_correct"], strikes=[34.0, 36.0], payoff="asian_arithmetic_call",
)


def _block_moments_combined(discounted):
    """(mean, SE) of ``discounted`` from each block's mean and sum of squared deviations, combined in block order.

    The pairwise update of Chan, Golub & LeVeque (1979), written out here as the reference.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for lo in range(0, len(discounted), BLOCK_SIZE):
        block = discounted[lo:lo + BLOCK_SIZE]
        b_n, b_mean = len(block), float(np.mean(block))
        b_m2 = float(np.sum(np.square(block - b_mean))) if b_n > 1 else 0.0
        if n == 0:
            n, mean, m2 = b_n, b_mean, b_m2
            continue
        total, delta = n + b_n, b_mean - mean
        mean = mean + delta * (b_n / total)
        m2 = m2 + b_m2 + delta * delta * (n * b_n / total)
        n = total
    return mean, (math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0)


def _one_simulation_per_cell(cfg):
    """(measure, scheme, strike, price, SE) from one one-model simulation per (measure, scheme), reduced per block."""
    grid = PathGrid(cfg.market.T, cfg.n_steps)
    discount = math.exp(-cfg.market.r * cfg.market.T)
    cells = []
    for measure in cfg.measures:
        rnm = risk_neutralize(cfg.params, cfg.market, measure)
        for scheme in cfg.schemes:
            paths = simulate_paths(rnm, grid, cfg.n_paths, cfg.seed, scheme=scheme)
            for strike in cfg.strikes:
                discounted = discount * np.maximum(paths.average - strike, 0.0)
                cells.append((measure, scheme, strike, *_block_moments_combined(discounted)))
    return cells


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("doc", [
    dict(cli._PRESET_DOCS["vg-table"][0], n_paths=2 * BLOCK_SIZE + 5),
    VG_BOTH_MEASURES,
    dict(NIG_ASIAN_BOTH_MEASURES, n_paths=2 * BLOCK_SIZE + 5),
], ids=["vg-table", "vg-lecuyer-both-measures", "nig-asian"])
def test_run_experiment_rows_equal_one_simulation_per_cell(doc, workers):
    cfg = parse_config(json.dumps(dict(doc, workers=workers)))
    assert cfg.n_paths > BLOCK_SIZE
    rows = run_experiment(cfg)
    assert [(r.measure, r.scheme, r.strike, r.price, r.std_error) for r in rows] == _one_simulation_per_cell(cfg)
    assert all(r.status == "ok" for r in rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_both_vg_spellings_of_one_model_give_the_same_csv(workers):
    # (beta, sigma, nu) is read as VgParams(0, 1/nu, 1/nu, beta, sigma), so both measures under
    # both schemes price to the same bytes as the subordinated twin
    mv = VG_BOTH_MEASURES["params"]
    assert VG_SUBORDINATED == dict(VG_BOTH_MEASURES, params={
        "x0": 0.0, "lambda": 1.0 / mv["nu"], "gamma": 1.0 / mv["nu"], "beta": mv["beta"], "sigma": mv["sigma"],
    })
    cfg, twin = (parse_config(json.dumps(dict(doc, workers=workers))) for doc in (VG_BOTH_MEASURES, VG_SUBORDINATED))
    assert (cfg.measures, cfg.schemes) == (("esscher", "mean_correct"), ("bgss", "dg"))
    assert cfg.params == twin.params
    assert rows_to_csv_text(run_experiment(cfg)) == rows_to_csv_text(run_experiment(twin))


@pytest.mark.parametrize("doc, measure, grid", [
    (NIG_ASIAN_BOTH_MEASURES, "esscher", PathGrid(1.0 / 12.0, 16)),
    (NIG_ASIAN_BOTH_MEASURES, "mean_correct", PathGrid(1.0 / 12.0, 16)),
    (dict(MINIMAL_NIG, strikes=[34.0, 36.0]), "esscher", PathGrid(1.0 / 12.0, 1)),
    (dict(MINIMAL_NIG, strikes=[34.0, 36.0], s=4), "esscher", PathGrid(1.0 / 12.0, 4)),
    (dict(MINIMAL_NIG, strikes=[34.0, 36.0], s=16), "esscher", PathGrid(1.0 / 12.0, 16)),
], ids=["nig-asian-esscher", "nig-asian-mean-correct", "nig-european", "nig-european-4-steps",
        "nig-european-16-steps"])
def test_price_mc_equals_the_run_experiment_row(doc, measure, grid):
    # one pipeline behind both entry points: a cell's price_mc result is its row, bit for bit, on
    # the config's own grid (a European call simulates one step of length T in both)
    cfg = parse_config(json.dumps(dict(doc, n_paths=BLOCK_SIZE + 5, workers=2)))
    rnm = risk_neutralize(cfg.params, cfg.market, measure)
    for row in (r for r in run_experiment(cfg) if r.measure == measure):
        result = price_mc(rnm, Payoff(cfg.payoff_kind, row.strike), grid, cfg.n_paths, cfg.seed, scheme=row.scheme)
        assert (result.estimate, result.std_error, result.ci_lo, result.ci_hi) == (
            row.price, row.std_error, row.ci_lo, row.ci_hi)


@pytest.mark.parametrize("doc, simulations", [
    (cli._PRESET_DOCS["vg-table"][0], [("bgss", ["esscher", "mean_correct"]), ("dg", ["esscher", "mean_correct"])]),
    (VG_BOTH_MEASURES, [("bgss", ["esscher", "mean_correct"]), ("dg", ["esscher", "mean_correct"])]),
    (NIG_ASIAN_BOTH_MEASURES, [("ig", ["esscher", "mean_correct"])]),
], ids=["vg-table", "vg-lecuyer-both-measures", "nig-asian"])
def test_run_experiment_simulates_measures_together_only_when_their_draws_match(monkeypatch, doc, simulations):
    calls = []

    def recording(models, grid, *args, scheme, **kwargs):
        calls.append((scheme, [model.measure for model in models]))
        return simulate_paths(models, grid, *args, scheme=scheme, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recording)
    cfg = parse_config(json.dumps(dict(doc, n_paths=100)))
    rows = run_experiment(cfg)
    assert calls == simulations
    # rows keep the (measure, scheme, strike) order whatever was simulated together
    assert [(r.measure, r.scheme, r.strike) for r in rows] == [
        (m, s, k) for m in cfg.measures for s in cfg.schemes for k in cfg.strikes
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("doc, schemes, models", [
    (NIG_ASIAN_BOTH_MEASURES, ["ig"], 2),  # two measures from shared draws
    (VG_BOTH_MEASURES, ["bgss"], 2),
], ids=["nig-asian", "vg-shared"])
def test_run_experiment_memory_in_n_vectors(doc, schemes, models, workers):
    # no n_paths-vector: each block is priced as it is simulated, so the peak is
    # block-length vectors only.  At most 2 blocks per worker are in flight and
    # one more is being priced; each holds every model's terminal spots,
    # averages and running log spots, plus a few draws and temporaries
    n_paths, n_steps = 32 * BLOCK_SIZE, 4
    cfg = parse_config(json.dumps(dict(doc, scheme=schemes, s=n_steps, n_paths=n_paths, workers=workers)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < (2 * workers + 1) * (3 * models + 6) * BLOCK_SIZE * 8


@pytest.mark.parametrize("params, message", [
    ({"alpha": 1e200}, r"alpha must be > 0 and below 1e\+150, got 1e\+200"),
    ({"mu": -1e200}, r"\|mu\| must be below 1e\+150, got -1e\+200"),
    ({"delta": 1e-200}, r"delta must lie between 1e-150 and 1e\+150, got 1e-200"),
])
def test_cli_nig_params_past_the_float_range_exit_one(tmp_path, capsys, params, message):
    # alpha^2 used to overflow in the Esscher tilt, and delta^2 to underflow to a
    # divisor of 0: a traceback, not a row status
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(NIG_ASIAN_BOTH_MEASURES, params=dict(MINIMAL_NIG["params"], **params))))
    assert main(["--config", str(path)]) == 1
    assert re.search(f"price: error: config.params: {message}", capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("payoff", ["european_call", "asian_arithmetic_call"])
@pytest.mark.parametrize("params", [
    {"alpha": 1e149, "beta": 3.69, "mu": -0.000123, "delta": 0.0103},
    {"alpha": 81.6, "beta": 3.69, "mu": -1e149, "delta": 0.0103},
    {"alpha": 81.6, "beta": 3.69, "mu": 1e149, "delta": 1e-149},
    {"alpha": 1e149, "beta": -9e148, "mu": 0.0, "delta": 1e149},
])
def test_nig_params_at_the_float_range_give_every_row_a_status(params, payoff):
    doc = dict(NIG_ASIAN_BOTH_MEASURES, params=params, payoff=payoff, n_paths=BLOCK_SIZE + 5, workers=2)
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert [(row.measure, row.strike) for row in rows] == [
        (m, k) for m in ("esscher", "mean_correct") for k in NIG_ASIAN_BOTH_MEASURES["strikes"]
    ]
    for row in rows:
        assert row.status == "ok" or (row.measure == "esscher" and "Esscher" in row.status)


def test_run_experiment_reports_measure_failure_as_row():
    # drift-to-scale ratio too large for the tilt to exist; mean correcting still fine
    doc = {
        "model": "nig",
        "params": {"alpha": 1.0, "beta": 0.0, "mu": -0.1, "delta": 0.01},
        "measure": ["esscher", "mean_correct"],
        "market": {"s0": 36.0, "r": 0.05, "T": 0.5},
        "strikes": [34.0, 38.0],
        "n_paths": 100,
    }
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert len(rows) == 4
    esscher_rows = [r for r in rows if r.measure == "esscher"]
    assert all(r.status != "ok" and r.price is None for r in esscher_rows)
    assert all(r.status == "ok" and r.price is not None for r in rows if r.measure == "mean_correct")


def test_run_experiment_emits_rows_when_every_measure_fails():
    # sigma = 1 with a tiny clock rate: neither tilt nor exponential moment exists
    doc = {
        "model": "vg",
        "params": {"x0": 1e-8, "lambda": 1.0, "gamma": 0.1, "beta": 0.0, "sigma": 1.0},
        "measure": ["esscher", "mean_correct"],
        "market": {"s0": 100.0, "r": 0.1, "T": 1.0},
        "strikes": [95.0, 105.0],
        "payoff": "asian_arithmetic_call",
        "n_paths": 100,
    }
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert len(rows) == 4
    assert all(r.status != "ok" and r.price is None for r in rows)


def test_write_csv_round_trip(tmp_path):
    cfg = parse_config(json.dumps(dict(MINIMAL_NIG, n_paths=200)))
    rows = run_experiment(cfg)
    out = tmp_path / "rows.csv"
    write_csv(rows, str(out))
    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    first = parsed[0]
    assert float(first["price"]) == rows[0].price  # full precision survives the text round trip
    assert float(first["std_error"]) == rows[0].std_error
    assert float(first["ci_lo"]) == rows[0].price - 1.96 * rows[0].std_error
    assert float(first["ci_hi"]) == rows[0].price + 1.96 * rows[0].std_error
    assert float(first["closed_form"]) == rows[0].closed_form


def test_write_csv_rejects_empty():
    with pytest.raises(ValueError):
        write_csv([], "unused.csv")


def test_csv_header_is_exact(tmp_path):
    cfg = parse_config(json.dumps(dict(MINIMAL_NIG, n_paths=50)))
    out = tmp_path / "h.csv"
    rows = run_experiment(cfg)
    write_csv(rows, str(out))
    header = out.read_text().splitlines()[0]
    assert header == "model,measure,scheme,payoff,S0,K,r,T,s,n_paths,seed,price,std_error,ci_lo,ci_hi,closed_form,status"
    assert header == ",".join(CSV_HEADER)
    # every column holds the ResultRow field its header names
    field_of = {"S0": "s0", "K": "strike", "T": "maturity", "s": "n_steps"}
    written = list(csv.DictReader(out.read_text().splitlines()))
    assert len(written) == len(rows)
    for row, line in zip(rows, written):
        assert line == {col: cli._format_cell(getattr(row, field_of.get(col, col))) for col in CSV_HEADER}


def _tiny(cfg):
    from dataclasses import replace

    return replace(cfg, n_paths=50)


def test_preset_row_counts():
    sizes = {"nig-table": 16, "nig-asian": 32, "vg-table": 24, "vg-lecuyer": 1}
    for name, expected in sizes.items():
        rows = [row for cfg in PRESETS[name]() for row in run_experiment(_tiny(cfg))]
        assert len(rows) == expected, name


def test_nig_table_preset_shape(tmp_path):
    rows = [row for cfg in PRESETS["nig-table"]() for row in run_experiment(_tiny(cfg))]
    assert {(r.maturity, r.r) for r in rows} == {
        (1.0 / 12.0, 0.1), (1.0 / 12.0, 0.05), (2.0 / 12.0, 0.1), (2.0 / 12.0, 0.05)
    }
    assert {r.strike for r in rows} == {34.0, 35.0, 36.0, 37.0}
    assert all(r.payoff == "european_call" and r.measure == "esscher" for r in rows)
    assert all(r.closed_form is not None for r in rows)


def test_vg_table_preset_shape():
    rows = [row for cfg in PRESETS["vg-table"]() for row in run_experiment(_tiny(cfg))]
    combos = {(r.measure, r.scheme) for r in rows}
    assert combos == {("esscher", "bgss"), ("esscher", "dg"), ("mean_correct", "bgss"), ("mean_correct", "dg")}
    assert {r.strike for r in rows} == {95.0, 101.0, 105.0}
    assert {r.r for r in rows} == {0.1, 0.05}
    assert all(r.payoff == "asian_arithmetic_call" for r in rows)


def test_cli_writes_identical_csv_across_runs_and_workers(tmp_path, capsys):
    out1, out2, out3 = (str(tmp_path / f"t{i}.csv") for i in range(3))
    base = ["--preset", "vg-lecuyer", "--paths", "4000", "--seed", "7"]
    assert main(base + ["--out", out1]) == 0
    assert main(base + ["--out", out2]) == 0
    assert main(base + ["--workers", "3", "--out", out3]) == 0
    capsys.readouterr()
    b1, b2, b3 = (open(p, "rb").read() for p in (out1, out2, out3))
    assert b1 == b2 == b3


def test_cli_stdout_streaming(capsys):
    assert main(["--preset", "vg-lecuyer", "--paths", "500"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("model,measure,")
    assert len(lines) == 2
    assert "running" in captured.err  # progress stays on stderr


def test_cli_config_file_run(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    out_path = tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(dict(MINIMAL_NIG, n_paths=300, out=str(out_path))))
    assert main(["--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert out_path.exists()
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["status"] == "ok"


def test_cli_override_flags(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(MINIMAL_NIG))
    out_path = tmp_path / "o.csv"
    code = main(["--config", str(cfg_path), "--paths", "77", "--seed", "9",
                 "--measure", "mean-correct", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n_paths"] == "77"
    assert rows[0]["seed"] == "9"
    assert rows[0]["measure"] == "mean_correct"


@pytest.mark.parametrize("flags, field", [
    (["--paths", "0"], "n_paths"),
    (["--seed", str(2**64)], "seed"),
    (["--workers", "0"], "workers"),
    (["--scheme", "dg"], "scheme"),
    (["--scheme", "foo"], "scheme"),
    (["--measure", "foo"], "measure"),
    (["--paths", "1e5"], "n_paths"),
    (["--seed", "seven"], "seed"),
    (["--workers", "2.5"], "workers"),
])
def test_cli_flag_is_validated_as_the_field_it_replaces(tmp_path, capsys, flags, field):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(MINIMAL_NIG))
    assert main(["--config", str(cfg_path)] + flags) == 1
    captured = capsys.readouterr()
    assert f"price: error: config.{field}: " in captured.err
    assert captured.out == ""


def test_cli_flag_replaces_field_before_validation(tmp_path, capsys):
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1]")
    assert main(["--config", str(not_an_object), "--paths", "5"]) == 1
    assert "price: error: config: expected a JSON object at the top level" in capsys.readouterr().err
    zero_paths = tmp_path / "zero.json"
    zero_paths.write_text(json.dumps(dict(MINIMAL_NIG, n_paths=0)))
    assert main(["--config", str(zero_paths), "--paths", "100"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["n_paths"], row["status"]) for row in rows] == [("100", "ok")]


def test_cli_exit_code_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": \"heston\"}")
    assert main(["--config", str(bad)]) == 1
    capsys.readouterr()
    infinite = tmp_path / "infinite.json"
    infinite.write_text(json.dumps(dict(MINIMAL_NIG, strikes=[math.inf])))
    assert main(["--config", str(infinite)]) == 1
    assert "price: error: config.strikes[0]: expected a finite number" in capsys.readouterr().err
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps(MINIMAL_NIG).replace("[34.0]", "[" + "1" * 5001 + "]"))
    assert main(["--config", str(digits)]) == 1
    assert "price: error: config: invalid JSON: Exceeds the limit" in capsys.readouterr().err
    # 1/nu past the float range is an infinite clock rate: a config error under either scheme
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(dict(VG_BOTH_MEASURES, params=dict(VG_BOTH_MEASURES["params"], nu=1e-320))))
    for scheme in ("bgss", "dg"):
        assert main(["--config", str(overflow), "--scheme", scheme]) == 1
        assert "price: error: config.params: lam must be finite and > 0, got inf" in capsys.readouterr().err


def test_cli_unwritable_out_exits_one(tmp_path, capsys):
    # a directory cannot be written as the CSV: the error goes to stderr and nothing to stdout
    assert main(["--preset", "vg-lecuyer", "--paths", "200", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert f"price: error: [Errno 21] Is a directory: {str(tmp_path)!r}" in captured.err
    assert captured.out == ""


def test_cli_vg_lecuyer_esscher_is_ok(capsys):
    # the VG Esscher tilt solves for every sigma, the small-vol clock included
    assert main(["--preset", "vg-lecuyer", "--paths", "100", "--measure", "esscher"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and out[1].startswith("vg,esscher,bgss,") and out[1].endswith(",ok")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s0", [1e300, 1.7e308])
def test_non_finite_result_is_not_ok(tmp_path, capsys, s0):
    # the payoffs overflow: a std_error (and at 1.7e308 a price) of inf is no result
    doc = dict(MINIMAL_NIG, market={"s0": s0, "r": 0.1, "T": 1.0 / 12.0}, n_paths=1000,
               payoff="asian_arithmetic_call")
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert len(rows) == 1 and not math.isfinite(rows[0].std_error)
    assert rows[0].status == "non-finite result"
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s0", [1e300, 1.7e308])
def test_non_finite_block_results_combine_to_a_non_finite_row(s0):
    # every block's squared deviations (and at 1.7e308 some spots) overflow; the
    # combined result of all the blocks is still no result
    doc = dict(NIG_ASIAN_BOTH_MEASURES, market={"s0": s0, "r": 0.1, "T": 1.0 / 12.0},
               n_paths=2 * BLOCK_SIZE + 5, workers=2)
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert len(rows) == 4 and all(row.status == "non-finite result" for row in rows)


@pytest.mark.parametrize("doc", [NIG_ASIAN_BOTH_MEASURES, VG_BOTH_MEASURES], ids=["nig-asian", "vg-both-measures"])
def test_run_experiment_csv_is_the_same_at_one_two_and_three_workers(doc):
    texts = {
        rows_to_csv_text(run_experiment(parse_config(json.dumps(dict(doc, n_paths=3 * BLOCK_SIZE + 7, workers=w)))))
        for w in (1, 2, 3)
    }
    assert len(texts) == 1


def test_cli_preset_flag_error_exits_one(capsys):
    assert main(["--preset", "nig-table", "--paths", "1e5"]) == 1
    captured = capsys.readouterr()
    assert "price: error: config.n_paths: expected an integer, got '1e5'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--preset", "nope"], ["--preset", "nig-table", "--paths"], ["--color"], []])
def test_cli_usage_error_exits_one(capsys, argv):
    # exit code 2 is kept for a single-row run whose row is not ok
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "price: error: " in capsys.readouterr().err


def test_closed_form_quadrature_failure_leaves_column_empty(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise QuadratureError("tail quadrature did not converge")

    monkeypatch.setattr(cli, "european_call_nig_closed", fail)
    doc = dict(MINIMAL_NIG, n_paths=1000)
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert [(row.status, row.closed_form) for row in rows] == [("ok", None)]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("s0", [1e50, 1e300])
def test_closed_form_prices_deep_in_the_money(monkeypatch, s0):
    # every density value below the boundary is 0 in double precision, so the put term
    # vanishes and the call is worth s0 - exp(-rT) K
    closed_form = cli.european_call_nig_closed

    def warnings_are_errors(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return closed_form(*args)

    monkeypatch.setattr(cli, "european_call_nig_closed", warnings_are_errors)
    market = {"s0": s0, "r": 0.1, "T": 1.0 / 12.0}
    rows = run_experiment(parse_config(json.dumps(dict(MINIMAL_NIG, market=market, n_paths=1))))
    expected = s0 - math.exp(-market["r"] * market["T"]) * MINIMAL_NIG["strikes"][0]
    assert [row.status for row in rows] == ["ok"]
    assert rows[0].closed_form == pytest.approx(expected, rel=1e-15)


def test_run_experiment_prices_the_closed_form_once_per_config(monkeypatch):
    # all strikes of a config in one call; each column entry is the strike's price alone
    calls = []
    closed_form = cli.european_call_nig_closed

    def recording(p, market, strikes):
        calls.append(strikes)
        return closed_form(p, market, strikes)

    monkeypatch.setattr(cli, "european_call_nig_closed", recording)
    configs = PRESETS["nig-table"]() + [parse_config(NIG_SURFACE_SHORT.read_text())]
    rows = [row for cfg in configs for row in run_experiment(replace(cfg, n_paths=200))]
    assert calls == [cfg.strikes for cfg in configs]
    assert [row.closed_form for row in rows] == [
        closed_form(cfg.params, cfg.market, k) for cfg in configs for k in cfg.strikes
    ]
    assert all(row.status == "ok" for row in rows)


def test_closed_form_is_not_priced_without_esscher(monkeypatch):
    def fail(*args):
        raise AssertionError("closed form priced though no row reads it")

    monkeypatch.setattr(cli, "european_call_nig_closed", fail)
    rows = run_experiment(parse_config(json.dumps(dict(MINIMAL_NIG, measure="mean_correct", n_paths=200))))
    assert [(row.status, row.closed_form) for row in rows] == [("ok", None)]


def test_cli_exit_code_existence_failure_single_row(tmp_path, capsys):
    doc = {
        "model": "vg",
        "params": {"x0": 1e-8, "lambda": 1.0, "gamma": 0.1, "beta": 0.0, "sigma": 1.0},
        "measure": "esscher",
        "market": {"s0": 100.0, "r": 0.1, "T": 1.0},
        "strikes": [101.0],
        "payoff": "asian_arithmetic_call",
        "n_paths": 100,
    }
    cfg_path = tmp_path / "fail.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "f.csv")]) == 2
    capsys.readouterr()


def test_market_data_helper():
    with pytest.raises(ValueError):
        MarketData(s0=-5.0, r=0.0, T=1.0)


def test_monte_carlo_pricing_leaves_scipy_submodules_unloaded():
    # scipy.special loads on first use, and only the NIG closed form (a European
    # Esscher row) reaches it; no library code uses integrate or optimize
    code = """
import sys
from dataclasses import replace
from levymc import cli
loaded = lambda: sorted(m for m in ("scipy.integrate", "scipy.optimize", "scipy.special") if m in sys.modules)
print(loaded())
for name in ("nig-asian", "vg-table"):
    cli.run_experiment(replace(cli.PRESETS[name]()[0], n_paths=100))
print(loaded())
cli.run_experiment(replace(cli.PRESETS["nig-table"]()[0], n_paths=100))
print(loaded())
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    after_import, after_monte_carlo, after_closed_form = done.stdout.splitlines()
    assert after_import == after_monte_carlo == "[]"
    assert after_closed_form == "['scipy.special']"


def test_module_entry_point_exits_with_the_code_main_returns(monkeypatch, capsys):
    # python -m levymc, run in this process: __main__ exits with main's return code
    monkeypatch.setattr(sys, "argv", ["levymc", "--preset", "vg-lecuyer", "--paths", "200", "--seed", "1"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("levymc", run_name="__main__")
    assert exited.value.code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == CSV_HEADER and len(rows) == 2


def test_module_entry_point_prints_the_csv():
    # python -m levymc runs the price command
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "levymc", "--preset", "vg-lecuyer", "--paths", "2000", "--seed", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    rows = list(csv.reader(done.stdout.splitlines()))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 2 and rows[1][-1] == "ok"
