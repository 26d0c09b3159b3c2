"""Experiment runner: JSON run configurations, built-in table presets, CSV output.

A run is a list of config documents (``--config`` reads one, ``--preset``
names a built-in list), each read by ``config_from_dict``.  A flag replaces
the field it names (``--paths`` replaces ``n_paths``) before validation, so a
bad flag fails with the same ``config.<field>`` error as a bad field.

Usage:
    price --config run.json
    price --preset nig-table --paths 100000 --seed 7 --out table.csv

Rows stream to stdout as CSV when no output path is given; progress and
warnings go to stderr only.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .levy_models import NigParams, VgParams, vg_from_mean_variance
from .measures import ESSCHER, MEASURES, MarketData, MeasureExistenceError, risk_neutralize
from .pricing import (ASIAN_CALL, EUROPEAN_CALL, PAYOFF_KINDS, McResult, european_call_nig_closed, price_paths,
                      simulation_grid)
from .sampling import MODEL_SCHEMES, SCHEMES, PathGrid, PathSet, simulate_paths
from .special_fn import QuadratureError

__all__ = [
    "ConfigError",
    "RunConfig",
    "ResultRow",
    "CSV_HEADER",
    "PRESETS",
    "parse_config",
    "run_experiment",
    "write_csv",
    "main",
]

CSV_HEADER = [
    "model", "measure", "scheme", "payoff", "S0", "K", "r", "T", "s",
    "n_paths", "seed", "price", "std_error", "ci_lo", "ci_hi", "closed_form", "status",
]

_FIELDS = ("model", "params", "measure", "scheme", "market", "strikes",
           "payoff", "s", "n_paths", "seed", "workers", "out")

DEFAULT_N_STEPS = 16
DEFAULT_N_PATHS = 10000
DEFAULT_SEED = 42


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One validated pricing experiment: model, measures, schemes, market, strikes."""

    model: str
    params: NigParams | VgParams
    measures: tuple[str, ...]
    schemes: tuple[str, ...]
    market: MarketData
    strikes: tuple[float, ...]
    payoff_kind: str
    n_steps: int
    n_paths: int
    seed: int
    workers: int
    out: str | None


@dataclass(frozen=True)
class ResultRow:
    """One priced (measure, scheme, strike) cell, or its failure record; fields in ``CSV_HEADER``'s order."""

    model: str
    measure: str
    scheme: str
    payoff: str
    s0: float
    strike: float
    r: float
    maturity: float
    n_steps: int
    n_paths: int
    seed: int
    price: float | None
    std_error: float | None
    ci_lo: float | None
    ci_hi: float | None
    closed_form: float | None
    status: str


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _reject_unknown(mapping: dict, fields: tuple[str, ...], path: str) -> None:
    for key in mapping:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")


def _as_float(value, path: str) -> float:
    # json also parses NaN, +-Infinity and integers past the float range; no field accepts them
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_count(value, path: str) -> int:
    count = _as_int(value, path)
    if count < 1:
        raise ConfigError(f"{path}: must be >= 1, got {count}")
    return count


def _as_list(value, path: str) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _as_choice(value, choices, path: str) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def _reject_repeats(values: tuple, path: str) -> None:
    # a repeated entry would price the same cells twice
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{path}[{i}]: repeats {value!r}")


def _record(raw, path: str, build: Callable, keys: tuple[str, ...], defaults: dict | None = None):
    """``build`` called with the finite numbers the JSON object ``raw`` holds under ``keys``, in order.

    A key in ``defaults`` may be left out.  A non-object, an unknown or a
    missing key, a value that is not a finite number, and a ValueError from
    ``build`` each fail as a ConfigError at ``path``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object with {', '.join(keys)}, got {raw!r}")
    _reject_unknown(raw, keys, path)
    given = {**(defaults or {}), **raw}
    values = [_as_float(_require(given, key, path), f"{path}.{key}") for key in keys]
    try:
        return build(*values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_params(model: str, raw, path: str) -> NigParams | VgParams:
    """The model's parameters; a VG record with a ``nu`` key is the unit-mean-clock spelling."""
    if model == "nig":
        return _record(raw, path, NigParams, ("alpha", "beta", "mu", "delta"))
    if isinstance(raw, dict) and "nu" in raw:
        return _record(raw, path, vg_from_mean_variance, ("beta", "sigma", "nu"))
    return _record(raw, path, VgParams, ("x0", "lambda", "gamma", "beta", "sigma"), {"x0": 0.0})


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a JSON-shaped mapping into a RunConfig; errors carry field paths."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    _reject_unknown(doc, _FIELDS, "config")
    model = _as_choice(_require(doc, "model", "config"), tuple(MODEL_SCHEMES), "config.model")

    params = _build_params(model, _require(doc, "params", "config"), "config.params")

    measures = tuple(
        _as_choice(m.replace("-", "_") if isinstance(m, str) else m, MEASURES, "config.measure")
        for m in _as_list(doc.get("measure", ESSCHER), "config.measure")
    )
    _reject_repeats(measures, "config.measure")

    schemes = tuple(
        _as_choice(sch, tuple(SCHEMES), "config.scheme")
        for sch in _as_list(doc.get("scheme", MODEL_SCHEMES[model][0]), "config.scheme")
    )
    for sch in schemes:
        if sch not in MODEL_SCHEMES[model]:
            raise ConfigError(f"config.scheme: scheme {sch!r} is incompatible with model {model!r}")
    _reject_repeats(schemes, "config.scheme")

    market = _record(_require(doc, "market", "config"), "config.market", MarketData, ("s0", "r", "T"))

    strikes_raw = _as_list(_require(doc, "strikes", "config"), "config.strikes")
    if not strikes_raw:
        raise ConfigError("config.strikes: must not be empty")
    strikes = tuple(_as_float(k, f"config.strikes[{i}]") for i, k in enumerate(strikes_raw))
    for i, k in enumerate(strikes):
        if k < 0:
            raise ConfigError(f"config.strikes[{i}]: strike must be >= 0, got {k}")
    _reject_repeats(strikes, "config.strikes")

    payoff_kind = _as_choice(doc.get("payoff", EUROPEAN_CALL), PAYOFF_KINDS, "config.payoff")

    n_steps = _as_count(doc.get("s", DEFAULT_N_STEPS), "config.s")
    n_paths = _as_count(doc.get("n_paths", DEFAULT_N_PATHS), "config.n_paths")
    seed = _as_int(doc.get("seed", DEFAULT_SEED), "config.seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"config.seed: must be a 64-bit unsigned integer, got {seed}")
    workers = _as_count(doc.get("workers", 1), "config.workers")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"config.out: expected a string path, got {out!r}")

    return RunConfig(
        model=model, params=params, measures=measures, schemes=schemes,
        market=market, strikes=strikes, payoff_kind=payoff_kind,
        n_steps=n_steps, n_paths=n_paths, seed=seed, workers=workers, out=out,
    )


def _read_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"config: invalid JSON: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration document."""
    return config_from_dict(_read_json(text))


def _configs(docs: Sequence, flags: dict) -> list[RunConfig]:
    """Validate each document with the flags written over the fields they name; a non-object stays as is."""
    return [config_from_dict({**doc, **flags} if isinstance(doc, dict) else doc) for doc in docs]


def _row(cfg: RunConfig, measure: str, scheme: str, strike: float, outcome: McResult | str,
         closed_form: float | None = None) -> ResultRow:
    """One (measure, scheme, strike) cell from its result, or from its failure status with empty price columns.

    A result whose price, SE or CI is not finite gets the status ``non-finite result``.
    """
    if isinstance(outcome, str):
        status, values = outcome, (None,) * 4
    else:
        values = (outcome.estimate, outcome.std_error, outcome.ci_lo, outcome.ci_hi)
        status = "ok" if all(map(math.isfinite, values)) else "non-finite result"
    price, std_error, ci_lo, ci_hi = values
    return ResultRow(
        model=cfg.model, measure=measure, scheme=scheme, payoff=cfg.payoff_kind,
        s0=cfg.market.s0, strike=strike, r=cfg.market.r, maturity=cfg.market.T,
        n_steps=cfg.n_steps, n_paths=cfg.n_paths, seed=cfg.seed,
        price=price, std_error=std_error, ci_lo=ci_lo, ci_hi=ci_hi,
        closed_form=closed_form, status=status,
    )


def run_experiment(cfg: RunConfig) -> list[ResultRow]:
    """Price every requested (measure x scheme x strike) cell.

    Paths are simulated per (measure, scheme), and ``simulate_paths`` hands
    each finished block, reduced to its paths' terminal spots and averages,
    to ``price_paths`` on this thread in block order: every strike's
    discounted payoffs are reduced per block and combined in block order,
    the pipeline ``price_mc`` runs too, and no n_paths-vector is allocated.
    The strikes reuse the paths (common random numbers), so prices are
    comparable across strikes and the whole table is deterministic for a
    fixed seed.  Every measure that exists is simulated in one call per
    scheme: the Esscher tilt moves neither delta nor lambda, so both
    measures' draws are equal under every scheme (``simulate_paths`` raises
    if they differ), and each block draws its variates once and every
    measure builds its paths from them, bit for bit the paths it would get
    alone.  The grid is ``simulation_grid``'s, as in ``price_mc``: European
    rows simulate one step of length T, Asian rows the config's ``s``
    monitoring steps.  A measure that fails to exist, or a non-finite price,
    SE or CI, yields a row whose status says so.  Rows come in (measure,
    scheme, strike) order.  A NIG European config priced under Esscher fills
    the ``closed_form`` column of its Esscher rows from one
    ``european_call_nig_closed`` call on all its strikes; if any strike fails
    (no measure, or a quadrature that does not converge), the column stays
    empty for the whole config.
    """
    grid = simulation_grid(cfg.payoff_kind, PathGrid(cfg.market.T, cfg.n_steps))
    discount = math.exp(-cfg.market.r * cfg.market.T)

    closed: dict[float, float] = {}
    if cfg.model == "nig" and cfg.payoff_kind == EUROPEAN_CALL and ESSCHER in cfg.measures:
        try:
            closed = dict(zip(cfg.strikes, european_call_nig_closed(cfg.params, cfg.market, cfg.strikes)))
        except (MeasureExistenceError, QuadratureError):
            pass  # benchmark column stays empty; a missing measure also fails the row status

    cells: dict[tuple[str, str], list[ResultRow]] = {}
    models = {}
    for measure in cfg.measures:
        try:
            models[measure] = risk_neutralize(cfg.params, cfg.market, measure)
        except MeasureExistenceError as exc:
            for scheme in cfg.schemes:
                cells[measure, scheme] = [_row(cfg, measure, scheme, k, str(exc)) for k in cfg.strikes]

    for scheme in cfg.schemes if models else ():  # no call when every measure failed
        results = [None] * len(models)  # each measure's McResult per strike, over the blocks so far

        def consume(blocks: list[PathSet]) -> None:
            for i, paths in enumerate(blocks):
                results[i] = price_paths(paths, cfg.payoff_kind, cfg.strikes, discount, results[i])

        simulate_paths(
            list(models.values()), grid, cfg.n_paths, cfg.seed, scheme=scheme, workers=cfg.workers, consume=consume,
        )
        for measure, measure_results in zip(models, results):
            cells[measure, scheme] = [
                _row(cfg, measure, scheme, k, result, closed.get(k) if measure == ESSCHER else None)
                for k, result in zip(cfg.strikes, measure_results)
            ]
    return [row for measure in cfg.measures for scheme in cfg.schemes for row in cells[measure, scheme]]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows: Sequence[ResultRow]) -> str:
    """The rows as CSV text under ``CSV_HEADER``, one column per ``ResultRow`` field, in field order."""
    if not rows:
        raise ValueError("refusing to render an empty result set")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    names = [field.name for field in fields(ResultRow)]
    writer.writerows([_format_cell(getattr(row, name)) for name in names] for row in rows)
    return buf.getvalue()


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """Write result rows as CSV with the fixed header; numbers keep full precision."""
    text = rows_to_csv_text(rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------

# what the two NIG tables share; each prices it on every one of the four markets
_NIG_PRESET = {"model": "nig", "params": {"alpha": 81.6, "beta": 3.69, "mu": -0.000123, "delta": 0.0103},
               "scheme": "ig", "strikes": [34.0, 35.0, 36.0, 37.0]}
_NIG_PRESET_MARKETS = [{"s0": 36.0, "r": r, "T": T} for T in (1.0 / 12.0, 2.0 / 12.0) for r in (0.1, 0.05)]

# preset name -> the config documents of its table
_PRESET_DOCS = {
    # European call validation table: 4 markets x 4 strikes, Esscher MC vs closed form
    "nig-table": [
        dict(_NIG_PRESET, measure="esscher", market=mkt, payoff=EUROPEAN_CALL) for mkt in _NIG_PRESET_MARKETS
    ],
    # Asian comparison table: both measures on every NIG market cell
    "nig-asian": [
        dict(_NIG_PRESET, measure=["esscher", "mean_correct"], market=mkt, payoff=ASIAN_CALL)
        for mkt in _NIG_PRESET_MARKETS
    ],
    # Asian prices under both measures and both VG schemes, sigma = nu = 1 regime
    "vg-table": [
        {"model": "vg", "params": {"beta": -0.1436, "sigma": 1.0, "nu": 1.0},
         "measure": ["esscher", "mean_correct"], "scheme": ["bgss", "dg"],
         "market": {"s0": 100.0, "r": r, "T": 1.0}, "strikes": [95.0, 101.0, 105.0], "payoff": ASIAN_CALL}
        for r in (0.1, 0.05)
    ],
    # single validation point for the mean-correcting VG Asian price
    "vg-lecuyer": [
        {"model": "vg", "params": {"beta": -0.1436, "sigma": 0.12136, "nu": 0.3},
         "measure": "mean_correct", "scheme": "bgss",
         "market": {"s0": 100.0, "r": 0.1, "T": 1.0}, "strikes": [101.0], "payoff": ASIAN_CALL}
    ],
}

# preset name -> a callable returning its validated RunConfigs
PRESETS = {name: functools.partial(_configs, docs, {}) for name, docs in _PRESET_DOCS.items()}


# ---------------------------------------------------------------------------
# Command line entry point
# ---------------------------------------------------------------------------

def _int_or_text(text: str):
    """A flag's integer, or its text as given, which ``config_from_dict`` then rejects as the field's value."""
    try:
        return int(text)
    except ValueError:
        return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on a usage error; here 2 means a single-row run whose row is not ok
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each flag's ``dest`` is the config field it replaces, and its value is validated as that field."""
    parser = _Parser(
        prog="price",
        description="Monte Carlo option pricing under exponential NIG and VG models.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="JSON run configuration")
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in experiment")
    parser.add_argument("--paths", type=_int_or_text, dest="n_paths", metavar="N",
                        help="override the number of Monte Carlo paths")
    parser.add_argument("--seed", type=_int_or_text, metavar="S", help="override the base seed")
    parser.add_argument("--out", metavar="CSV", help="output file (default: CSV to stdout)")
    parser.add_argument("--measure", help="restrict to one measure: esscher or mean-correct")
    parser.add_argument("--scheme", help=f"restrict to one simulation scheme: {', '.join(sorted(SCHEMES))}")
    parser.add_argument("--workers", type=_int_or_text, metavar="W", help="worker threads per simulation")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 success, 1 configuration or usage error (argparse's own
    usage errors raise ``SystemExit(1)``), 2 a single-row run whose row is not
    ``ok`` (the measure does not exist or the result is not finite).
    """
    args = _build_parser().parse_args(argv)
    flags = {name: value for name, value in vars(args).items() if name in _FIELDS and value is not None}
    try:
        if args.config is not None:
            with open(args.config) as fh:
                docs = [_read_json(fh.read())]
        else:
            docs = _PRESET_DOCS[args.preset]
        configs = _configs(docs, flags)
    except (ConfigError, OSError) as exc:
        print(f"price: error: {exc}", file=sys.stderr)
        return 1

    rows: list[ResultRow] = []
    for i, cfg in enumerate(configs):
        print(
            f"price: running {cfg.model} T={cfg.market.T:g} r={cfg.market.r:g} "
            f"({i + 1}/{len(configs)}, n_paths={cfg.n_paths})",
            file=sys.stderr,
        )
        rows.extend(run_experiment(cfg))
    for row in rows:
        if row.status != "ok":
            print(f"price: warning: {row.measure}/{row.scheme} K={row.strike:g}: {row.status}", file=sys.stderr)

    out_path = configs[0].out
    try:
        if out_path:
            write_csv(rows, out_path)
            print(f"price: wrote {len(rows)} rows to {out_path}", file=sys.stderr)
        else:
            sys.stdout.write(rows_to_csv_text(rows))
    except OSError as exc:
        print(f"price: error: {exc}", file=sys.stderr)
        return 1

    if len(rows) == 1 and rows[0].status != "ok":
        return 2
    return 0
