"""Config parsing, experiment runner, CSV output, presets, exit codes."""
import csv
import json
import math

import pytest

from levymc.cli import (
    CSV_HEADER,
    ConfigError,
    PRESETS,
    main,
    parse_config,
    run_experiment,
    write_csv,
)
from levymc.measures import MarketData, risk_neutralize
from levymc.sampling import PathGrid, simulate_paths

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
    assert cfg.params.nu == 0.3


def test_parse_error_reports_field_path():
    with pytest.raises(ConfigError, match="config.market"):
        parse_config(json.dumps({"model": "nig", "params": MINIMAL_NIG["params"], "strikes": [1.0]}))
    with pytest.raises(ConfigError, match="config.params.alpha"):
        parse_config(json.dumps(dict(MINIMAL_NIG, params={"alpha": "big", "beta": 0, "mu": 0, "delta": 1})))
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit"):
        parse_config('{"strikes": [' + "1" * 5001 + "]}")  # past Python's integer digit limit
    for field, value in [("measure", 1), ("measure", None), ("model", ["nig"]), ("params", 5), ("payoff", [])]:
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
        ("nig", dict(MINIMAL_NIG["params"], sigma=3), "sigma"),
    ]:
        with pytest.raises(ConfigError, match=f"config.params.{key}: unknown field"):
            parse_config(json.dumps(dict(MINIMAL_NIG, model=model, params=params)))
    with pytest.raises(ConfigError, match="config.market.q: unknown field"):
        parse_config(json.dumps(dict(MINIMAL_NIG, market=dict(MINIMAL_NIG["market"], q=0.03))))
    for extra, pair in [({"lam": 1.0}, "'lam' and 'lambda'"), ({"gamma_rate": 0.2}, "'gamma_rate' and 'gamma'")]:
        with pytest.raises(ConfigError, match=f"config.params: give only one of {pair}"):
            parse_config(json.dumps(dict(MINIMAL_NIG, model="vg", params=dict(vg_subordinated, **extra))))
    # json writes and parses NaN, Infinity and integers past the float range; no field takes them
    for doc, field in [
        (dict(MINIMAL_NIG, strikes=[math.inf]), r"config\.strikes\[0\]"),
        (dict(MINIMAL_NIG, market=dict(MINIMAL_NIG["market"], r=math.nan)), r"config\.market\.r"),
        (dict(MINIMAL_NIG, params=dict(MINIMAL_NIG["params"], alpha=math.inf)), r"config\.params\.alpha"),
        (dict(MINIMAL_NIG, strikes=[34.0, 10**400]), r"config\.strikes\[1\]"),
    ]:
        with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
            parse_config(json.dumps(doc))


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
    spot = simulate_paths(rnm, PathGrid(cfg.market.T, 4), 1, seed=23).terminal[0]
    assert rows[0].price == pytest.approx(math.exp(-cfg.market.r * cfg.market.T) * spot, rel=1e-15)
    assert rows[0].std_error == 0.0
    assert rows[0].status == "ok"


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
    write_csv(run_experiment(cfg), str(out))
    header = out.read_text().splitlines()[0]
    assert header == "model,measure,scheme,payoff,S0,K,r,T,s,n_paths,seed,price,std_error,ci_lo,ci_hi,closed_form,status"
    assert header == ",".join(CSV_HEADER)


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


def test_cli_vg_lecuyer_esscher_is_ok(capsys):
    # the VG Esscher tilt solves for every sigma, the small-vol clock included
    assert main(["--preset", "vg-lecuyer", "--paths", "100", "--measure", "esscher"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and out[1].startswith("vg,esscher,bgss,") and out[1].endswith(",ok")


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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_closed_form_quadrature_failure_leaves_column_empty(tmp_path, capsys):
    # at s0 = 1e50 the tail quadrature of the NIG closed form does not converge
    doc = dict(MINIMAL_NIG, market={"s0": 1e50, "r": 0.1, "T": 1.0 / 12.0}, n_paths=1000)
    rows = run_experiment(parse_config(json.dumps(doc)))
    assert [(row.status, row.closed_form) for row in rows] == [("ok", None)]
    cfg_path = tmp_path / "huge_spot.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 0
    capsys.readouterr()


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
