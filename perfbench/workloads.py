"""The benchmark's workloads: which tables are priced, why, and what the trace should show.

Every workload is a list of ``cli.RunConfig`` built from the workload seed,
which becomes the Monte Carlo seed of every config.  Import after
``perfbench.source.load()``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from levymc import cli
from levymc.measures import ESSCHER, MarketData, risk_neutralize
from levymc.pricing import EUROPEAN_CALL

NPROC = len(os.sched_getaffinity(0))

# Span names recorded by the tracer; each is the layer (module) that owns the code.
SIMULATE = "sampling.simulate"
RISK_NEUTRALIZE = "measures.risk_neutralize"
CLOSED_FORM = "pricing.closed_form"
PAYOFF = "pricing.payoff"
REDUCE = "pricing.reduce"
INTEGRATE = "special_fn.integrate"
NIG_DENSITY = "levy_models.nig_density"
CSV = "cli.csv"
RUN_EXPERIMENT = "cli.run_experiment"
CONFIG = "cli.config"

MC_PIPELINE = frozenset({SIMULATE, RISK_NEUTRALIZE, PAYOFF, REDUCE, CSV, RUN_EXPERIMENT})
QUADRATURE = frozenset({CLOSED_FORM, INTEGRATE, NIG_DENSITY})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]
    # Spans the trace must record calls for; a missing one is reported as absent.
    expects: frozenset


def _preset(name: str, n_paths: int) -> Callable[[int], list]:
    def build(seed: int) -> list:
        return [
            replace(cfg, n_paths=n_paths, seed=seed, workers=NPROC)
            for cfg in cli.PRESETS[name]()
        ]
    return build


SURFACE_MATURITIES = tuple(float(t) for t in np.linspace(1.0 / 52.0, 1.0, 26))
SURFACE_RATES = (0.05, 0.1)
SURFACE_STRIKES = tuple(float(k) for k in range(30, 43, 2))


def _nig_surface(seed: int) -> list:
    """NIG European calls under Esscher on a (T, r) grid at the CLI's default path count."""
    base = cli.PRESETS["nig-table"]()[0]
    return [
        replace(
            base, market=MarketData(s0=base.market.s0, r=r, T=T), strikes=SURFACE_STRIKES,
            measures=(ESSCHER,), payoff_kind=EUROPEAN_CALL,
            n_paths=cli.DEFAULT_N_PATHS, seed=seed, workers=NPROC,
        )
        for T in SURFACE_MATURITIES
        for r in SURFACE_RATES
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nig-asian-1e6",
            "preset nig-asian at 1e6 paths: sampling-bound through Philox wald and normal draws, "
            "payoff recomputes the Asian mean per strike, full 1e6x16 matrices, no quadrature",
            _preset("nig-asian", 1_000_000),
            MC_PIPELINE,
        ),
        Workload(
            "vg-table-1e6",
            "preset vg-table at 1e6 paths: BGSS and DG under both measures, sampling-bound through "
            "gamma draws; bypasses any change tuned to the inverse Gaussian draw",
            _preset("vg-table", 1_000_000),
            MC_PIPELINE,
        ),
        Workload(
            "nig-surface-1e4",
            "52 NIG European configs x 7 strikes at 10k paths: one block per simulation so workers "
            "do nothing; quadrature closed form dominates, bypassing sampler changes",
            _nig_surface,
            MC_PIPELINE | QUADRATURE,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which workloads.
PREDICTIONS = {
    "sampling.simulate_s": "wall_s on both -1e6 workloads; about 11% of wall_s on nig-surface-1e4",
    "sampling.simulate_calls": "wall_s on both -1e6 workloads",
    "sampling.path_steps": "wall_s on both -1e6 workloads",
    "sampling.path_steps_per_s": "wall_s on both -1e6 workloads",
    "sampling.bytes_materialised": "peak_rss_mb on both -1e6 workloads (computed as 2*8*n*s per call)",
    "sampling.rng_wald_ns": "wall_s on nig-asian-1e6",
    "sampling.rng_normal_ns": "wall_s on nig-asian-1e6 and vg-table-1e6",
    "sampling.rng_gamma_ns": "wall_s on vg-table-1e6",
    "sampling.speedup_workers": "wall_s on both -1e6 workloads; about 1 on nig-surface-1e4",
    "pricing.payoff_s": "wall_s on nig-asian-1e6",
    "pricing.payoff_calls": "wall_s on nig-asian-1e6",
    "pricing.reduce_s": "wall_s on both -1e6 workloads",
    "cli.run_experiment_self_s": "wall_s on both -1e6 workloads",
    "pricing.closed_form_s": "self time outside quadrature (the Esscher solve); small on nig-surface-1e4, zero elsewhere",
    "pricing.closed_form_incl_s": "wall_s on nig-surface-1e4 (closed form with its quadrature, most of wall_s); zero elsewhere",
    "pricing.closed_form_calls": "wall_s on nig-surface-1e4; zero elsewhere",
    "special_fn.integrate_s": "wall_s on nig-surface-1e4; zero elsewhere",
    "special_fn.integrate_calls": "wall_s on nig-surface-1e4; zero elsewhere",
    "levy_models.nig_density_s": "wall_s on nig-surface-1e4 (its largest self time); zero elsewhere",
    "levy_models.nig_density_calls": "wall_s on nig-surface-1e4; zero elsewhere",
    "measures.risk_neutralize_s": "negligible everywhere (control)",
    "cli.csv_s": "negligible everywhere (control)",
    "cli.csv_bytes": "negligible everywhere (control)",
    "cli.config_s": "setup_s",
    "pricing.zero_se_cells": "diagnostic",
    "pricing.se2_x_s": "work-normalised variance; falls with variance reduction on nig-asian-1e6",
    "trace.overhead_s": "diagnostic",
    "trace.wall_s": "diagnostic",
}


def rng_parameters(configs: list) -> dict:
    """Arguments of the sampler's per-step inverse Gaussian and gamma draws.

    Mirrors the step parameters of ``simulate_nig_paths`` and
    ``simulate_vg_paths_bgss`` for the first config of each model; a model the
    workload does not price is taken from its preset.
    """
    nig = next((c for c in configs if c.model == "nig"), None) or cli.PRESETS["nig-asian"]()[0]
    vg = next((c for c in configs if c.model == "vg"), None) or cli.PRESETS["vg-table"]()[0]
    p = risk_neutralize(nig.params, nig.market, nig.measures[0]).model
    q = risk_neutralize(vg.params, vg.market, vg.measures[0]).model
    dt_nig = nig.market.T / nig.n_steps
    dt_vg = vg.market.T / vg.n_steps
    return {
        "wald": (p.delta * dt_nig / p.gamma_bar, (p.delta * dt_nig) ** 2),
        "gamma": (q.lam * dt_vg, q.gamma_rate),
    }
