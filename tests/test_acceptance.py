"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line with the
measured margins (run with ``pytest tests/test_acceptance.py -v -s``).
Tolerances are pinned here and nowhere else.
"""
import math

import numpy as np
import pytest
from scipy import stats

from levymc.cli import main
from levymc.levy_models import (
    NigParams,
    VgMeanVarianceParams,
    VgParams,
    nig_cumulant,
    nig_density,
    nig_levy_density,
    vg_density,
)
from levymc.measures import (
    ESSCHER,
    MEAN_CORRECT,
    MarketData,
    esscher_theta,
    nig_esscher,
    nig_esscher_bracket,
    risk_neutralize,
    vg_esscher,
)
from levymc.pricing import (
    ASIAN_CALL,
    EUROPEAN_CALL,
    Payoff,
    european_call_nig_closed,
    price_mc,
)
from levymc.sampling import (
    PathGrid,
    RngStream,
    sample_gamma,
    sample_inverse_gaussian,
    simulate_paths,
)
from levymc.special_fn import bessel_k, integrate

NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)
NIG_MARKETS = [
    MarketData(s0=36.0, r=r, T=T) for T in (1.0 / 12.0, 2.0 / 12.0) for r in (0.1, 0.05)
]
NIG_STRIKES = (34.0, 35.0, 36.0, 37.0)
VG_TABLE_CLOCK = VgMeanVarianceParams(beta=-0.1436, sigma=1.0, nu=1.0)
VG_BENCH_CLOCK = VgMeanVarianceParams(beta=-0.1436, sigma=0.12136, nu=0.3)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_closed_form_benchmark_values():
    market = MarketData(s0=36.0, r=0.1, T=1.0 / 12.0)
    prices = {k: european_call_nig_closed(NIG_BENCH, market, k) for k in NIG_STRIKES}
    ok_34 = abs(prices[34.0] - 2.2822) <= 0.02
    ok_35 = abs(prices[35.0] - 1.2918) <= 0.02
    monotone = all(prices[a] > prices[b] for a, b in zip(NIG_STRIKES, NIG_STRIKES[1:]))
    ok = ok_34 and ok_35 and monotone
    _report(
        "criterion 1 (closed form, +-0.02, strict monotonicity)", ok,
        f"C(34)={prices[34.0]:.4f} (target 2.2822), C(35)={prices[35.0]:.4f} (target 1.2918), "
        f"C(36)={prices[36.0]:.4f}, C(37)={prices[37.0]:.6f}",
    )
    assert ok


def test_criterion_2_closed_form_vs_mc_16_cells():
    worst = 0.0
    ok = True
    for i, market in enumerate(NIG_MARKETS):
        rnm = risk_neutralize(NIG_BENCH, market, ESSCHER)
        # single step: the terminal law is exact at any step count
        grid = PathGrid(market.T, 1)
        paths = simulate_paths(rnm, grid, 1_000_000, seed=1001 + i)
        discount = math.exp(-market.r * market.T)
        for strike in NIG_STRIKES:
            closed = european_call_nig_closed(NIG_BENCH, market, strike)
            payoff = discount * Payoff(EUROPEAN_CALL, strike).evaluate(paths)
            est = payoff.mean()
            se = payoff.std(ddof=1) / 1000.0
            z = abs(closed - est) / se
            worst = max(worst, z)
            ok = ok and z <= 3.0
    _report(
        "criterion 2 (closed vs MC, 16 cells, 3 SE at n=1e6)", ok,
        f"worst |closed - mc| / se = {worst:.2f}",
    )
    assert ok


def test_criterion_3_esscher_vs_mean_correct_asian_cis_overlap():
    ok = True
    max_diff = 0.0
    diffs = []
    for i, market in enumerate(NIG_MARKETS):
        grid = PathGrid(market.T, 16)
        rnm_e = risk_neutralize(NIG_BENCH, market, ESSCHER)
        rnm_m = risk_neutralize(NIG_BENCH, market, MEAN_CORRECT)
        for strike in (34.0, 35.0, 36.0):
            # common seed: paired comparison through common random numbers
            a = price_mc(rnm_e, Payoff(ASIAN_CALL, strike), grid, 100_000, seed=2001 + i)
            b = price_mc(rnm_m, Payoff(ASIAN_CALL, strike), grid, 100_000, seed=2001 + i)
            overlap = a.ci_lo <= b.ci_hi and b.ci_lo <= a.ci_hi
            ok = ok and overlap
            diffs.append(a.estimate - b.estimate)
            max_diff = max(max_diff, abs(a.estimate - b.estimate))
    _report(
        "criterion 3 (Esscher vs mean-correct Asian, 95% CIs overlap, n=1e5)", ok,
        f"12 cells, max |paired difference| = {max_diff:.2e}, mean = {np.mean(diffs):+.2e}",
    )
    assert ok


def test_criterion_4_vg_validation_point():
    market = MarketData(s0=100.0, r=0.1, T=1.0)
    rnm = risk_neutralize(VG_BENCH_CLOCK, market, MEAN_CORRECT)
    result = price_mc(rnm, Payoff(ASIAN_CALL, 101.0), PathGrid(1.0, 16), 100_000, seed=13)
    in_ci = result.ci_lo <= 5.725 <= result.ci_hi
    in_band = 5.2 <= result.estimate <= 5.9
    ok = in_ci and in_band
    _report(
        "criterion 4 (VG mean-correct Asian contains 5.725, estimate in [5.2, 5.9])", ok,
        f"estimate = {result.estimate:.4f}, CI = ({result.ci_lo:.4f}, {result.ci_hi:.4f})",
    )
    assert ok


def test_criterion_5_bgss_dg_equivalence():
    ok = True
    worst = 0.0
    for i, r in enumerate((0.1, 0.05)):
        market = MarketData(s0=100.0, r=r, T=1.0)
        grid = PathGrid(1.0, 16)
        for j, measure in enumerate((ESSCHER, MEAN_CORRECT)):
            rnm = risk_neutralize(VG_TABLE_CLOCK, market, measure)
            for strike in (95.0, 101.0, 105.0):
                a = price_mc(rnm, Payoff(ASIAN_CALL, strike), grid, 100_000,
                             seed=3001 + 10 * i + j, scheme="bgss")
                b = price_mc(rnm, Payoff(ASIAN_CALL, strike), grid, 100_000,
                             seed=4001 + 10 * i + j, scheme="dg")
                z = abs(a.estimate - b.estimate) / math.hypot(a.std_error, b.std_error)
                worst = max(worst, z)
                ok = ok and z <= 3.0
    # terminal-law agreement
    market = MarketData(s0=100.0, r=0.1, T=1.0)
    rnm = risk_neutralize(VG_TABLE_CLOCK, market, MEAN_CORRECT)
    y_b = np.log(simulate_paths(rnm, PathGrid(1.0, 16), 10_000, seed=5001, scheme="bgss").terminal)
    y_d = np.log(simulate_paths(rnm, PathGrid(1.0, 16), 10_000, seed=5002, scheme="dg").terminal)
    ks_p = stats.ks_2samp(y_b, y_d).pvalue
    ok = ok and ks_p >= 0.01
    _report(
        "criterion 5 (BGSS vs DG: 3 SE on 12 cells, KS on Y_T at alpha=0.01)", ok,
        f"worst |bgss - dg| / se = {worst:.2f}, KS p = {ks_p:.3f}",
    )
    assert ok


def test_criterion_6_martingale_property():
    cells = [
        ("nig/esscher", NIG_BENCH, MarketData(36.0, 0.1, 1.0 / 12.0), ESSCHER),
        ("nig/mean_correct", NIG_BENCH, MarketData(36.0, 0.1, 1.0 / 12.0), MEAN_CORRECT),
        ("vg/esscher", VG_TABLE_CLOCK, MarketData(100.0, 0.1, 1.0), ESSCHER),
        ("vg/mean_correct", VG_BENCH_CLOCK, MarketData(100.0, 0.1, 1.0), MEAN_CORRECT),
    ]
    ok = True
    details = []
    for k, (name, model, market, measure) in enumerate(cells):
        rnm = risk_neutralize(model, market, measure)
        paths = simulate_paths(rnm, PathGrid(market.T, 1), 100_000, seed=6001 + k)
        discounted = math.exp(-market.r * market.T) * paths.terminal
        se = discounted.std(ddof=1) / math.sqrt(len(discounted))
        z = abs(discounted.mean() - market.s0) / se
        details.append(f"{name} z={z:.2f}")
        ok = ok and z <= 3.0
    _report("criterion 6 (martingale, 4 model x measure cells, 3 SE at n=1e5)", ok, ", ".join(details))
    assert ok


def test_criterion_7_measure_identities():
    # omega = -kappa(1), both models, against the paper's formulas
    market = NIG_MARKETS[0]
    p, mv = NIG_BENCH, VG_BENCH_CLOCK
    om_nig = risk_neutralize(p, market, MEAN_CORRECT).omega
    paper_nig = -p.mu - p.delta * math.sqrt(p.alpha**2 - p.beta**2) + p.delta * math.sqrt(
        p.alpha**2 - (1.0 + p.beta) ** 2
    )
    ok_nig_omega = abs(om_nig - paper_nig) <= 1e-12
    om_vg = risk_neutralize(mv, market, MEAN_CORRECT).omega
    ok_vg_omega = abs(om_vg - math.log(1.0 - mv.beta * mv.nu - 0.5 * mv.sigma**2 * mv.nu) / mv.nu) <= 1e-12

    # Esscher residuals
    sol_nig = nig_esscher(NIG_BENCH)
    vg_params = VgParams(x0=1e-8, lam=1.0, gamma_rate=1.0, beta=-0.1436, sigma=1.0)
    sol_vg = vg_esscher(vg_params)
    ok_resid = abs(sol_nig.residual) <= 1e-10 and abs(sol_vg.residual) <= 1e-10

    # closed form vs root solve
    theta_num = esscher_theta(lambda t: nig_cumulant(NIG_BENCH, t), 0.0, nig_esscher_bracket(NIG_BENCH))
    ok_root = abs(sol_nig.theta_star - theta_num) <= 1e-8

    # jump-density tilt identity
    ok_tilt = True
    for x in (-0.4, -0.02, 0.01, 0.25, 1.0):
        lhs = nig_levy_density(sol_nig.risk_neutral_params, x)
        rhs = math.exp(sol_nig.theta_star * x) * nig_levy_density(NIG_BENCH, x)
        ok_tilt = ok_tilt and abs(lhs / rhs - 1.0) <= 1e-12

    ok = ok_nig_omega and ok_vg_omega and ok_resid and ok_root and ok_tilt
    _report(
        "criterion 7 (omega = -kappa(1) @1e-12, residuals @1e-10, beta* @1e-8, tilt identity)", ok,
        f"nig resid={sol_nig.residual:.1e}, vg resid={sol_vg.residual:.1e}, "
        f"|theta*-root|={abs(sol_nig.theta_star - theta_num):.1e}",
    )
    assert ok


def test_criterion_8_numerics_suite():
    nig_norm = integrate(lambda x: nig_density(NIG_BENCH, x, 1.0 / 12.0), -math.inf, math.inf)
    vg = VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    vg_norm = integrate(lambda x: vg_density(vg, x, 1.0), -math.inf, math.inf)
    ok_norm = abs(nig_norm - 1.0) <= 1e-6 and abs(vg_norm - 1.0) <= 1e-6

    ok_half = all(
        abs(bessel_k(0.5, x) / (math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)) - 1.0) <= 1e-10
        for x in (0.01, 0.1, 1.0, 10.0, 100.0)
    )
    ok_rec = all(
        abs(bessel_k(nu + 1.0, x) / (bessel_k(abs(nu - 1.0), x) + 2.0 * nu / x * bessel_k(nu, x)) - 1.0) <= 1e-9
        for nu in (0.5, 1.0, 2.5) for x in (0.1, 1.0, 10.0, 50.0)
    )

    g = sample_gamma(RngStream(8001), shape=2.5, rate=3.0, size=1_000_000)
    se_g = g.std(ddof=1) / 1000.0
    ok_gamma = abs(g.mean() - 2.5 / 3.0) <= 4.0 * se_g
    ig = sample_inverse_gaussian(RngStream(8002), mean=1.7, shape=2.2, size=1_000_000)
    se_ig = ig.std(ddof=1) / 1000.0
    ok_ig = abs(ig.mean() - 1.7) <= 4.0 * se_ig

    ok = ok_norm and ok_half and ok_rec and ok_gamma and ok_ig
    _report(
        "criterion 8 (normalizations @1e-6, K_1/2 @1e-10, recurrence @1e-9, sampler moments @4 SE)", ok,
        f"nig_norm-1={nig_norm - 1.0:.1e}, vg_norm-1={vg_norm - 1.0:.1e}, "
        f"gamma z={abs(g.mean() - 2.5 / 3.0) / se_g:.2f}, ig z={abs(ig.mean() - 1.7) / se_ig:.2f}",
    )
    assert ok


def test_note_vg_table_qualitative_ordering():
    # the sigma = nu = 1 comparison regime: Esscher prices sit systematically
    # below the mean-correcting ones, same ordering in every (r, K, scheme) cell
    from dataclasses import replace

    from levymc.cli import PRESETS, run_experiment

    rows = [
        row
        for cfg in PRESETS["vg-table"]()
        for row in run_experiment(replace(cfg, n_paths=100_000, seed=3))
    ]
    by_cell = {(r.r, r.strike, r.scheme, r.measure): r.price for r in rows}
    ok = all(
        by_cell[(r, k, scheme, ESSCHER)] < by_cell[(r, k, scheme, MEAN_CORRECT)]
        for r in (0.1, 0.05) for k in (95.0, 101.0, 105.0) for scheme in ("bgss", "dg")
    )
    _report(
        "note (VG table: Esscher below mean-correct in all 12 cells)", ok,
        f"example gap at r=0.1, K=95, bgss: "
        f"{by_cell[(0.1, 95.0, 'bgss', MEAN_CORRECT)] - by_cell[(0.1, 95.0, 'bgss', ESSCHER)]:+.3f}",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path, capsys):
    outs = [str(tmp_path / f"run{i}.csv") for i in range(3)]
    assert main(["--preset", "nig-table", "--seed", "7", "--out", outs[0]]) == 0
    assert main(["--preset", "nig-table", "--seed", "7", "--out", outs[1]]) == 0
    assert main(["--preset", "nig-table", "--seed", "7", "--workers", "3", "--out", outs[2]]) == 0
    capsys.readouterr()
    blobs = [open(p, "rb").read() for p in outs]
    identical = blobs[0] == blobs[1] == blobs[2]
    n_rows = len(blobs[0].decode().strip().splitlines()) - 1
    ok = identical and n_rows == 16
    _report(
        "criterion 9 (CLI byte-identical across runs and worker counts)", ok,
        f"3 runs identical = {identical}, rows = {n_rows}",
    )
    assert ok
