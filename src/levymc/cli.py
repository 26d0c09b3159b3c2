"""Experiment runner: JSON run configurations, built-in table presets, CSV output.

Usage:
    price --config run.json
    price --preset nig-table --paths 100000 --seed 7 --out table.csv

Rows stream to stdout as CSV when no output path is given; progress and
warnings go to stderr only.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .levy_models import NigParams, VgMeanVarianceParams, VgParams
from .measures import ESSCHER, MEAN_CORRECT, MarketData, MeasureExistenceError, risk_neutralize
from .pricing import ASIAN_CALL, EUROPEAN_CALL, McResult, Payoff, european_call_nig_closed
from .sampling import MODEL_SCHEMES, SCHEMES, PathGrid, simulate_paths
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

_PAYOFF_KINDS = (EUROPEAN_CALL, ASIAN_CALL)
_FIELDS = ("model", "params", "measure", "scheme", "market", "strikes",
           "payoff", "s", "n_paths", "seed", "workers", "out")
_NIG_FIELDS = ("alpha", "beta", "mu", "delta")
_VG_MEAN_VARIANCE_FIELDS = ("beta", "sigma", "nu")
_VG_SUBORDINATED_FIELDS = ("x0", "lam", "lambda", "gamma_rate", "gamma", "beta", "sigma")
_MARKET_FIELDS = ("s0", "r", "T")

DEFAULT_N_STEPS = 16
DEFAULT_N_PATHS = 10000
DEFAULT_SEED = 42


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One validated pricing experiment: model, measures, schemes, market, strikes."""

    model: str
    params: Union[NigParams, VgParams, VgMeanVarianceParams]
    measures: tuple[str, ...]
    schemes: tuple[str, ...]
    market: MarketData
    strikes: tuple[float, ...]
    payoff_kind: str
    n_steps: int = DEFAULT_N_STEPS
    n_paths: int = DEFAULT_N_PATHS
    seed: int = DEFAULT_SEED
    workers: int = 1
    out: str | None = None


@dataclass(frozen=True)
class ResultRow:
    """One priced (measure, scheme, strike) cell, or its failure record."""

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


def _as_list(value, path: str) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _as_choice(value, choices, path: str) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def _build_params(model: str, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {raw!r}")
    try:
        if model == "nig":
            _reject_unknown(raw, _NIG_FIELDS, path)
            return NigParams(
                alpha=_as_float(_require(raw, "alpha", path), f"{path}.alpha"),
                beta=_as_float(_require(raw, "beta", path), f"{path}.beta"),
                mu=_as_float(_require(raw, "mu", path), f"{path}.mu"),
                delta=_as_float(_require(raw, "delta", path), f"{path}.delta"),
            )
        if "nu" in raw:
            _reject_unknown(raw, _VG_MEAN_VARIANCE_FIELDS, path)
            return VgMeanVarianceParams(
                beta=_as_float(_require(raw, "beta", path), f"{path}.beta"),
                sigma=_as_float(_require(raw, "sigma", path), f"{path}.sigma"),
                nu=_as_float(raw["nu"], f"{path}.nu"),
            )
        _reject_unknown(raw, _VG_SUBORDINATED_FIELDS, path)
        for name, alias in (("lam", "lambda"), ("gamma_rate", "gamma")):
            if name in raw and alias in raw:
                raise ConfigError(f"{path}: give only one of {name!r} and {alias!r}")
        lam = raw.get("lam", raw.get("lambda"))
        gamma_rate = raw.get("gamma_rate", raw.get("gamma"))
        if lam is None or gamma_rate is None:
            raise ConfigError(
                f"{path}: vg parameters need either (beta, sigma, nu) or (x0, lambda, gamma, beta, sigma)"
            )
        return VgParams(
            x0=_as_float(raw.get("x0", 0.0), f"{path}.x0"),
            lam=_as_float(lam, f"{path}.lambda"),
            gamma_rate=_as_float(gamma_rate, f"{path}.gamma"),
            beta=_as_float(_require(raw, "beta", path), f"{path}.beta"),
            sigma=_as_float(_require(raw, "sigma", path), f"{path}.sigma"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Validate a JSON-shaped mapping into a RunConfig; errors carry field paths."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    _reject_unknown(doc, _FIELDS, "config")
    model = _as_choice(_require(doc, "model", "config"), tuple(MODEL_SCHEMES), "config.model")

    params = _build_params(model, _require(doc, "params", "config"), "config.params")

    measures = tuple(
        _as_choice(m.replace("-", "_") if isinstance(m, str) else m, (ESSCHER, MEAN_CORRECT), "config.measure")
        for m in _as_list(doc.get("measure", ESSCHER), "config.measure")
    )

    schemes = tuple(
        _as_choice(sch, tuple(SCHEMES), "config.scheme")
        for sch in _as_list(doc.get("scheme", MODEL_SCHEMES[model][0]), "config.scheme")
    )
    for sch in schemes:
        if sch not in MODEL_SCHEMES[model]:
            raise ConfigError(f"config.scheme: scheme {sch!r} is incompatible with model {model!r}")

    mkt = _require(doc, "market", "config")
    if not isinstance(mkt, dict):
        raise ConfigError("config.market: expected an object with s0, r, T")
    _reject_unknown(mkt, _MARKET_FIELDS, "config.market")
    try:
        market = MarketData(
            s0=_as_float(_require(mkt, "s0", "config.market"), "config.market.s0"),
            r=_as_float(_require(mkt, "r", "config.market"), "config.market.r"),
            T=_as_float(_require(mkt, "T", "config.market"), "config.market.T"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config.market: {exc}") from exc

    strikes_raw = _as_list(_require(doc, "strikes", "config"), "config.strikes")
    if not strikes_raw:
        raise ConfigError("config.strikes: must not be empty")
    strikes = tuple(_as_float(k, f"config.strikes[{i}]") for i, k in enumerate(strikes_raw))
    for i, k in enumerate(strikes):
        if k < 0:
            raise ConfigError(f"config.strikes[{i}]: strike must be >= 0, got {k}")

    payoff_kind = _as_choice(doc.get("payoff", EUROPEAN_CALL), _PAYOFF_KINDS, "config.payoff")

    n_steps = _as_int(doc.get("s", DEFAULT_N_STEPS), "config.s")
    if n_steps < 1:
        raise ConfigError(f"config.s: must be >= 1, got {n_steps}")
    n_paths = _as_int(doc.get("n_paths", DEFAULT_N_PATHS), "config.n_paths")
    if n_paths < 1:
        raise ConfigError(f"config.n_paths: must be >= 1, got {n_paths}")
    seed = _as_int(doc.get("seed", DEFAULT_SEED), "config.seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"config.seed: must be a 64-bit unsigned integer, got {seed}")
    workers = _as_int(doc.get("workers", 1), "config.workers")
    if workers < 1:
        raise ConfigError(f"config.workers: must be >= 1, got {workers}")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"config.out: expected a string path, got {out!r}")

    return RunConfig(
        model=model, params=params, measures=measures, schemes=schemes,
        market=market, strikes=strikes, payoff_kind=payoff_kind,
        n_steps=n_steps, n_paths=n_paths, seed=seed, workers=workers, out=out,
    )


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def _failed_rows(cfg: RunConfig, measure: str, scheme: str, message: str) -> list[ResultRow]:
    return [
        ResultRow(
            model=cfg.model, measure=measure, scheme=scheme, payoff=cfg.payoff_kind,
            s0=cfg.market.s0, strike=k, r=cfg.market.r, maturity=cfg.market.T,
            n_steps=cfg.n_steps, n_paths=cfg.n_paths, seed=cfg.seed,
            price=None, std_error=None, ci_lo=None, ci_hi=None, closed_form=None,
            status=message,
        )
        for k in cfg.strikes
    ]


def run_experiment(cfg: RunConfig) -> list[ResultRow]:
    """Price every requested (measure x scheme x strike) cell.

    Paths are simulated once per (measure, scheme), each reduced to its
    terminal spot and average, and reused across strikes (common random
    numbers), so prices are comparable across strikes and the whole table is
    deterministic for a fixed seed.  A measure that fails to exist, or a
    non-finite price, SE or CI, yields a row whose status says so.
    """
    rows: list[ResultRow] = []
    grid = PathGrid(maturity=cfg.market.T, n_steps=cfg.n_steps)
    discount = math.exp(-cfg.market.r * cfg.market.T)

    closed: dict[float, float] = {}
    if cfg.model == "nig" and cfg.payoff_kind == EUROPEAN_CALL:
        try:
            for k in cfg.strikes:
                closed[k] = european_call_nig_closed(cfg.params, cfg.market, k)
        except (MeasureExistenceError, QuadratureError):
            closed = {}  # benchmark column stays empty; a missing measure also fails the row status

    for measure in cfg.measures:
        try:
            rnm = risk_neutralize(cfg.params, cfg.market, measure)
        except MeasureExistenceError as exc:
            for scheme in cfg.schemes:
                rows.extend(_failed_rows(cfg, measure, scheme, str(exc)))
            continue
        for scheme in cfg.schemes:
            paths = simulate_paths(rnm, grid, cfg.n_paths, cfg.seed, scheme=scheme, workers=cfg.workers)
            for strike in cfg.strikes:
                payoffs = Payoff(cfg.payoff_kind, strike).evaluate(paths)
                result = McResult.from_discounted_payoffs(discount * payoffs, cfg.seed)
                finite = all(map(math.isfinite, (result.estimate, result.std_error, result.ci_lo, result.ci_hi)))
                rows.append(ResultRow(
                    model=cfg.model, measure=measure, scheme=scheme, payoff=cfg.payoff_kind,
                    s0=cfg.market.s0, strike=strike, r=cfg.market.r, maturity=cfg.market.T,
                    n_steps=cfg.n_steps, n_paths=cfg.n_paths, seed=cfg.seed,
                    price=result.estimate, std_error=result.std_error,
                    ci_lo=result.ci_lo, ci_hi=result.ci_hi,
                    closed_form=closed.get(strike) if measure == ESSCHER else None,
                    status="ok" if finite else "non-finite result",
                ))
            del paths  # free these two n-vectors before simulate_paths allocates the next ones
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows: Sequence[ResultRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.model, row.measure, row.scheme, row.payoff,
            _format_cell(row.s0), _format_cell(row.strike), _format_cell(row.r),
            _format_cell(row.maturity), _format_cell(row.n_steps),
            _format_cell(row.n_paths), _format_cell(row.seed),
            _format_cell(row.price), _format_cell(row.std_error),
            _format_cell(row.ci_lo), _format_cell(row.ci_hi),
            _format_cell(row.closed_form), row.status,
        ])


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """Write result rows as CSV with the fixed header; numbers keep full precision."""
    if not rows:
        raise ValueError("refusing to write an empty result set")
    with open(path, "w", newline="") as fh:
        _write_rows(rows, fh)


def rows_to_csv_text(rows: Sequence[ResultRow]) -> str:
    if not rows:
        raise ValueError("refusing to render an empty result set")
    buf = io.StringIO()
    _write_rows(rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------

_NIG_PRESET_PARAMS = {"alpha": 81.6, "beta": 3.69, "mu": -0.000123, "delta": 0.0103}


def _nig_market_grid() -> list[dict]:
    return [
        {"s0": 36.0, "r": r, "T": T}
        for T in (1.0 / 12.0, 2.0 / 12.0)
        for r in (0.1, 0.05)
    ]


def _preset_nig_table() -> list[RunConfig]:
    """European call validation table: 4 markets x 4 strikes, Esscher MC vs closed form."""
    return [
        config_from_dict({
            "model": "nig", "params": _NIG_PRESET_PARAMS,
            "measure": "esscher", "scheme": "ig",
            "market": mkt, "strikes": [34.0, 35.0, 36.0, 37.0],
            "payoff": EUROPEAN_CALL,
        })
        for mkt in _nig_market_grid()
    ]


def _preset_nig_asian() -> list[RunConfig]:
    """Asian comparison table: both measures on every NIG market cell."""
    return [
        config_from_dict({
            "model": "nig", "params": _NIG_PRESET_PARAMS,
            "measure": ["esscher", "mean_correct"], "scheme": "ig",
            "market": mkt, "strikes": [34.0, 35.0, 36.0, 37.0],
            "payoff": ASIAN_CALL,
        })
        for mkt in _nig_market_grid()
    ]


def _preset_vg_table() -> list[RunConfig]:
    """Asian prices under both measures and both VG schemes, sigma = nu = 1 regime."""
    return [
        config_from_dict({
            "model": "vg", "params": {"beta": -0.1436, "sigma": 1.0, "nu": 1.0},
            "measure": ["esscher", "mean_correct"], "scheme": ["bgss", "dg"],
            "market": {"s0": 100.0, "r": r, "T": 1.0},
            "strikes": [95.0, 101.0, 105.0],
            "payoff": ASIAN_CALL,
        })
        for r in (0.1, 0.05)
    ]


def _preset_vg_lecuyer() -> list[RunConfig]:
    """Single validation point for the mean-correcting VG Asian price."""
    return [
        config_from_dict({
            "model": "vg", "params": {"beta": -0.1436, "sigma": 0.12136, "nu": 0.3},
            "measure": "mean_correct", "scheme": "bgss",
            "market": {"s0": 100.0, "r": 0.1, "T": 1.0},
            "strikes": [101.0],
            "payoff": ASIAN_CALL,
        })
    ]


PRESETS = {
    "nig-table": _preset_nig_table,
    "nig-asian": _preset_nig_asian,
    "vg-table": _preset_vg_table,
    "vg-lecuyer": _preset_vg_lecuyer,
}


# ---------------------------------------------------------------------------
# Command line entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Monte Carlo option pricing under exponential NIG and VG models.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="JSON run configuration")
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in experiment")
    parser.add_argument("--paths", type=int, metavar="N", help="override the number of Monte Carlo paths")
    parser.add_argument("--seed", type=int, metavar="S", help="override the base seed")
    parser.add_argument("--out", metavar="CSV", help="output file (default: CSV to stdout)")
    parser.add_argument("--measure", choices=["esscher", "mean-correct"], help="restrict to one measure")
    parser.add_argument("--scheme", choices=sorted(SCHEMES), help="restrict to one simulation scheme")
    parser.add_argument("--workers", type=int, default=None, metavar="W", help="worker threads per simulation")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.paths is not None:
        if args.paths < 1:
            raise ConfigError(f"--paths: must be >= 1, got {args.paths}")
        cfg = replace(cfg, n_paths=args.paths)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed: must be a 64-bit unsigned integer, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
        cfg = replace(cfg, workers=args.workers)
    if args.measure is not None:
        cfg = replace(cfg, measures=(args.measure.replace("-", "_"),))
    if args.scheme is not None:
        if args.scheme not in MODEL_SCHEMES[cfg.model]:
            raise ConfigError(f"--scheme: scheme {args.scheme!r} is incompatible with model {cfg.model!r}")
        cfg = replace(cfg, schemes=(args.scheme,))
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 success, 1 configuration error, 2 a single-row run whose
    row is not ``ok`` (the measure does not exist or the result is not finite).
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config) as fh:
                configs = [parse_config(fh.read())]
        else:
            configs = PRESETS[args.preset]()
        configs = [_apply_overrides(cfg, args) for cfg in configs]
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

    out_path = args.out if args.out is not None else configs[0].out
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


if __name__ == "__main__":
    sys.exit(main())
