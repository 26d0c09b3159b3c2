"""Risk-neutral measure construction: Esscher tilts, drift corrections, martingale checks."""
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levymc.levy_models import (
    NigParams,
    VgParams,
    cumulant,
    nig_cumulant,
    nig_levy_density,
    vg_cumulant,
    vg_from_mean_variance,
)
from levymc.measures import (
    ESSCHER,
    MEAN_CORRECT,
    MarketData,
    MeasureExistenceError,
    nig_esscher,
    risk_neutralize,
    vg_esscher,
)
from levymc.cli import PRESETS
from levymc.sampling import PathGrid, simulate_paths

NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)
MARKET = MarketData(s0=36.0, r=0.1, T=1.0 / 12.0)
VG_CLOCK = vg_from_mean_variance(beta=-0.1436, sigma=0.12136, nu=0.3)


def test_nig_esscher_closed_form_matches_root_solve():
    # the mu - r tilt sits near the edge of the cumulant domain, hence the wide bracket, whose
    # upper end keeps theta + 1 inside |beta + .| <= alpha
    for p in [NIG_BENCH, replace(NIG_BENCH, mu=NIG_BENCH.mu - MARKET.r)]:
        sol = nig_esscher(p)
        theta_num = brentq(
            lambda t: nig_cumulant(p, t + 1.0) - nig_cumulant(p, t), -80.0, p.alpha - p.beta - 1.0 - 1e-9,
            xtol=1e-12, rtol=8.9e-16,
        )
        assert sol.theta_star == pytest.approx(theta_num, abs=1e-8)
        assert abs(sol.residual) <= 1e-10


def test_nig_esscher_frozen_tilt():
    # root-solve oracle value for the benchmark calibration
    sol = nig_esscher(NIG_BENCH)
    assert sol.risk_neutral_params.beta == pytest.approx(0.47435883413573066, abs=1e-10)
    assert sol.risk_neutral_params == NigParams(81.6, sol.risk_neutral_params.beta, -0.000123, 0.0103)


def test_nig_esscher_degenerate_drift_gives_minus_half():
    p = NigParams(alpha=5.0, beta=1.0, mu=0.0, delta=0.8)
    sol = nig_esscher(p)
    assert sol.risk_neutral_params.beta == pytest.approx(-0.5, abs=1e-14)


def test_nig_esscher_nonexistence():
    # drift gap too wide for the tilted root to stay real
    p = NigParams(alpha=1.1, beta=0.0, mu=-1.0, delta=0.01)
    with pytest.raises(MeasureExistenceError):
        nig_esscher(p)


def test_nig_esscher_levy_density_tilt_identity():
    sol = nig_esscher(NIG_BENCH)
    theta = sol.theta_star
    for x in [-0.4, -0.02, 0.01, 0.25]:
        lhs = nig_levy_density(sol.risk_neutral_params, x)
        rhs = math.exp(theta * x) * nig_levy_density(NIG_BENCH, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_nig_esscher_pricing_cumulant_identity():
    sol = nig_esscher(NIG_BENCH)
    rn, theta = sol.risk_neutral_params, sol.theta_star
    for u in [-2.0, -0.5, 0.3, 1.0, 2.0]:
        tilted = nig_cumulant(NIG_BENCH, u + theta) - nig_cumulant(NIG_BENCH, theta)
        assert nig_cumulant(rn, u) == pytest.approx(tilted, abs=1e-8)


def test_vg_esscher_pricing_cumulant_identity():
    p = VgParams(x0=1e-8, lam=1.0, gamma_rate=1.0, beta=-0.1436, sigma=1.0)
    sol = vg_esscher(p)
    rn, theta = sol.risk_neutral_params, sol.theta_star
    for u in [-0.5, 0.25, 0.5, 1.0]:
        tilted = vg_cumulant(p, u + theta) - vg_cumulant(p, theta)
        assert vg_cumulant(rn, u) == pytest.approx(tilted, abs=1e-8)


def test_vg_esscher_defining_identity():
    p = VgParams(x0=1e-8, lam=1.0, gamma_rate=1.0, beta=-0.1436, sigma=1.0)
    sol = vg_esscher(p)
    rn = sol.risk_neutral_params
    theta = sol.theta_star
    assert rn.gamma_rate + p.beta * theta + 0.5 * theta * theta == pytest.approx(p.gamma_rate, abs=1e-12)
    assert rn.beta == pytest.approx(p.beta + theta, abs=1e-14)
    assert abs(sol.residual) <= 1e-10


def test_vg_esscher_matches_root_solve():
    p = VgParams(x0=1e-8, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    sol = vg_esscher(p)
    # cumulant domain: beta*t + t^2/2 < gamma for t and t+1
    theta_num = brentq(lambda t: vg_cumulant(p, t + 1.0) - vg_cumulant(p, t), -1.41, 0.41, xtol=1e-12, rtol=8.9e-16)
    assert sol.theta_star == pytest.approx(theta_num, abs=1e-8)
    assert abs(vg_cumulant(p, sol.theta_star + 1.0) - vg_cumulant(p, sol.theta_star)) <= 1e-8


def test_vg_esscher_existence_boundary():
    # beta^2 + 2*gamma = 1/4 exactly: no Esscher measure
    p = VgParams(x0=1e-8, lam=1.0, gamma_rate=0.125, beta=0.0, sigma=1.0)
    with pytest.raises(MeasureExistenceError):
        vg_esscher(p)
    # in general the tilt exists iff beta^2 + 2*sigma^2*gamma > sigma^4/4, whatever x0
    for x0 in [0.0, 0.3, -0.3]:
        for beta, gamma_rate in [(0.0, 0.5), (0.0, 0.4)]:
            with pytest.raises(MeasureExistenceError):
                vg_esscher(VgParams(x0=x0, lam=0.5, gamma_rate=gamma_rate, beta=beta, sigma=2.0))
        # 0.5% inside: the tilted clock rate is small but well above rounding
        sol = vg_esscher(VgParams(x0=x0, lam=0.5, gamma_rate=0.505, beta=0.0, sigma=2.0))
        assert abs(sol.residual) <= 1e-10 and sol.risk_neutral_params.gamma_rate > 0


@pytest.mark.parametrize("x0", [0.0, 0.3, -0.3])
def test_vg_esscher_exists_next_to_the_boundary(x0):
    # beta = 1e-5 is inside by beta^2 = 1e-10 of sigma^4/4 = 4: the tilted
    # clock rate gamma_rate - q(theta*) is about 1e-11, below the rounding of
    # q, and every float theta* missed the 1e-10 residual evaluated through q
    # (-4.4e-6).  The offset d = theta* - t_lo and the factored forms keep it.
    p = VgParams(x0=x0, lam=0.5, gamma_rate=0.5, beta=1e-5, sigma=2.0)
    sol = vg_esscher(p)
    rn = sol.risk_neutral_params
    assert abs(sol.residual) <= 1e-10
    assert 0.0 < rn.gamma_rate < 2e-11
    # theta* and theta* + 1 are inside the cumulant domain, just
    assert p.brownian_cumulant(sol.theta_star) < p.gamma_rate
    assert p.brownian_cumulant(sol.theta_star + 1.0) < p.gamma_rate
    if x0 == 0.0:
        # theta* = -beta/sigma^2 - 1/2 exactly; the tilted clock rate against 50 digits
        assert sol.theta_star == -p.beta / 4.0 - 0.5
        with localcontext() as ctx:
            ctx.prec = 50
            beta, theta = Decimal(p.beta), -Decimal(p.beta) / 4 - Decimal("0.5")
            exact = Decimal("0.5") - beta * theta - 2 * theta * theta
        assert abs(Decimal(rn.gamma_rate) - exact) <= 4 * Decimal(np.spacing(float(exact)))
        # the tilted Brownian drift is -sigma^2/2, so the drift rate is r exactly
        assert rn.beta == -2.0
        assert risk_neutralize(p, MARKET, ESSCHER).drift_rate == MARKET.r


def test_vg_esscher_solves_any_sigma_and_zero_start():
    # sigma != 1 and x0 = 0 both solve; at x0 = 0 the equation is linear in theta
    for p in [
        VgParams(x0=1e-8, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=0.5),
        VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0),
        VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=-0.1436, sigma=0.12136),
    ]:
        sol = vg_esscher(p)
        assert abs(sol.residual) <= 1e-10
        if p.x0 == 0.0:
            assert sol.theta_star == pytest.approx(-p.beta / p.sigma**2 - 0.5, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.floats(0.05, 3.0),
    nu=st.floats(0.05, 3.0),
    beta=st.floats(-1.0, 1.0),
    x0=st.floats(-1.0, 1.0),
)
# a root of the quadratic chosen by sign alone lands at 9.514, outside the domain
@example(sigma=0.12136, nu=1.0, beta=0.2, x0=0.2)
# a tiny x0 puts the far root near 7e242, where float ** 2 raises OverflowError
@example(sigma=1.0, nu=1.0, beta=0.0, x0=2.7929844982766083e-243)
def test_vg_esscher_matches_bracketed_root_solve(sigma, nu, beta, x0):
    p = VgParams(x0=x0, lam=1.0 / nu, gamma_rate=1.0 / nu, beta=beta, sigma=sigma)
    # q(t) = beta*t + sigma^2 t^2/2 stays below gamma_rate on (t_lo, t_hi), so
    # theta and theta + 1 are both in the domain for theta in (t_lo, t_hi - 1)
    root = math.sqrt(beta**2 + 2.0 * sigma**2 * p.gamma_rate)
    t_lo, t_hi = (-beta - root) / sigma**2, (-beta + root) / sigma**2
    width = t_hi - 1.0 - t_lo
    # Near the existence boundary width = 0 the bracketed solve through q is
    # itself ill-conditioned (the tilted clock rate gamma_rate - q(theta*)
    # shrinks with width toward the rounding in q), so it is no reference
    # there; test_vg_esscher_exists_next_to_the_boundary covers that region.
    assume(abs(width) > 1e-4 * (t_hi - t_lo))
    lo, hi = t_lo + 1e-9 * width, t_hi - 1.0 - 1e-9 * width

    def excess_return(t):
        return vg_cumulant(p, t + 1.0) - vg_cumulant(p, t)

    # no sign change on the bracket: the tilt does not exist
    if not lo < hi or excess_return(lo) * excess_return(hi) > 0:
        with pytest.raises(MeasureExistenceError):
            vg_esscher(p)
    else:
        sol = vg_esscher(p)
        theta_num = brentq(excess_return, lo, hi, xtol=1e-12, rtol=8.9e-16)
        assert sol.theta_star == pytest.approx(theta_num, abs=1e-8)
        assert abs(sol.residual) <= 1e-10


def mean_correct_omega(model) -> float:
    return risk_neutralize(model, MARKET, MEAN_CORRECT).omega


def test_omega_vg_degenerate_clock():
    assert abs(mean_correct_omega(vg_from_mean_variance(beta=0.0, sigma=1e-6, nu=0.3))) <= 1e-10


def test_omega_vg_value_and_mc_cross_check():
    omega = mean_correct_omega(VG_CLOCK)
    assert omega == pytest.approx(0.13352544843057332, abs=1e-12)  # direct formula evaluation
    # Monte Carlo oracle: exp(-omega) = E[exp(Y_1)] with 1e6 draws
    rng = np.random.Generator(np.random.Philox(key=np.array([404, 0], dtype=np.uint64)))
    clock = rng.gamma(VG_CLOCK.lam, 1.0 / VG_CLOCK.gamma_rate, size=1_000_000)
    y1 = VG_CLOCK.beta * clock + VG_CLOCK.sigma * np.sqrt(clock) * rng.standard_normal(1_000_000)
    draws = np.exp(y1)
    se = draws.std(ddof=1) / 1000.0
    assert math.exp(-omega) == pytest.approx(draws.mean(), abs=4.0 * se)


def test_omega_vg_is_minus_cumulant_at_one():
    # the paper's unit-clock form: omega = log(1 - beta*nu - sigma^2*nu/2)/nu
    for beta, sigma, nu in [(-0.1436, 0.12136, 0.3), (-0.1436, 1.0, 1.0)]:
        paper = math.log(1.0 - beta * nu - 0.5 * sigma**2 * nu) / nu
        assert mean_correct_omega(vg_from_mean_variance(beta, sigma, nu)) == pytest.approx(paper, abs=1e-12)


def test_omega_vg_nonexistence():
    with pytest.raises(MeasureExistenceError):
        mean_correct_omega(vg_from_mean_variance(beta=0.9, sigma=1.0, nu=2.0))


def test_omega_nig_symmetry_point():
    # mu = 0, beta = -1/2: the two square roots coincide
    assert mean_correct_omega(NigParams(alpha=3.0, beta=-0.5, mu=0.0, delta=1.0)) == pytest.approx(0.0, abs=1e-15)


def test_omega_nig_is_minus_cumulant_at_one():
    # the paper's form: omega = -mu - delta*sqrt(alpha^2 - beta^2) + delta*sqrt(alpha^2 - (1 + beta)^2)
    p = NIG_BENCH
    paper = -p.mu - p.delta * math.sqrt(p.alpha**2 - p.beta**2) + p.delta * math.sqrt(
        p.alpha**2 - (1.0 + p.beta) ** 2
    )
    assert mean_correct_omega(p) == pytest.approx(paper, abs=1e-12)


def test_omega_nig_nonexistence():
    with pytest.raises(MeasureExistenceError):
        mean_correct_omega(NigParams(alpha=1.2, beta=0.5, mu=0.0, delta=1.0))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_drift_is_r_minus_cumulant_at_one(preset):
    # both measures assemble the drift from the one cumulant, bit for bit
    for cfg in PRESETS[preset]():
        for measure in (ESSCHER, MEAN_CORRECT):
            rnm = risk_neutralize(cfg.params, cfg.market, measure)
            assert rnm.drift_rate == cfg.market.r - cumulant(rnm.model, 1.0), (cfg.market, measure)


@pytest.mark.parametrize("measure", [ESSCHER, MEAN_CORRECT])
def test_nig_discounted_spot_is_martingale(measure):
    rnm = risk_neutralize(NIG_BENCH, MARKET, measure)
    paths = simulate_paths(rnm, PathGrid(MARKET.T, 1), 100_000, seed=13)
    discounted = math.exp(-MARKET.r * MARKET.T) * paths.terminal
    se = discounted.std(ddof=1) / math.sqrt(len(discounted))
    assert discounted.mean() == pytest.approx(MARKET.s0, abs=3.0 * se)


@pytest.mark.parametrize("measure", [ESSCHER, MEAN_CORRECT])
def test_vg_discounted_spot_is_martingale(measure):
    market = MarketData(s0=100.0, r=0.1, T=1.0)
    rnm = risk_neutralize(VG_CLOCK, market, measure)
    for scheme in ["bgss", "dg"]:
        paths = simulate_paths(rnm, PathGrid(market.T, 1), 100_000, seed=17, scheme=scheme)
        discounted = math.exp(-market.r * market.T) * paths.terminal
        se = discounted.std(ddof=1) / math.sqrt(len(discounted))
        assert discounted.mean() == pytest.approx(market.s0, abs=3.0 * se), scheme


def test_risk_neutralize_nig_esscher_fields():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    assert rnm.measure == ESSCHER
    assert rnm.omega == 0.0
    assert rnm.model.beta == pytest.approx(0.47435883413573066, abs=1e-10)
    # the tilted cumulant at 1 vanishes, so the drift is r itself
    assert rnm.drift_rate == pytest.approx(MARKET.r, abs=1e-12)
    assert rnm.esscher is not None and abs(rnm.esscher.residual) <= 1e-10


def test_risk_neutralize_vg_mean_correct_fields():
    market = MarketData(s0=100.0, r=0.1, T=1.0)
    rnm = risk_neutralize(VG_CLOCK, market, MEAN_CORRECT)
    assert rnm.omega == pytest.approx(0.13352544843057332, abs=1e-12)
    assert rnm.drift_rate == pytest.approx(market.r + rnm.omega)
    assert isinstance(rnm.model, VgParams)
    assert rnm.model.x0 == 0.0


def test_risk_neutralize_vg_esscher_keeps_zero_start():
    market = MarketData(s0=100.0, r=0.1, T=1.0)
    for mv in [VG_CLOCK, vg_from_mean_variance(beta=-0.1436, sigma=1.0, nu=1.0)]:
        rnm = risk_neutralize(mv, market, ESSCHER)
        assert rnm.model.x0 == 0.0
        assert rnm.drift_rate == pytest.approx(market.r, abs=1e-12)
        # x0 = 0 makes the tilt equation linear: theta* = -beta/sigma^2 - 1/2
        assert rnm.esscher.theta_star == pytest.approx(-mv.beta / mv.sigma**2 - 0.5, abs=1e-12)
        assert abs(rnm.esscher.residual) <= 1e-10
    assert rnm.esscher.theta_star == pytest.approx(-0.3564, abs=1e-12)
    assert risk_neutralize(VG_CLOCK, market, ESSCHER).esscher.theta_star == pytest.approx(9.24997, abs=1e-5)


def test_risk_neutralize_is_deterministic():
    a = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    b = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    assert a == b


def test_risk_neutralize_rejects_unknown_measure():
    with pytest.raises(ValueError):
        risk_neutralize(NIG_BENCH, MARKET, "minimal_entropy")


def test_market_data_validation():
    with pytest.raises(ValueError):
        MarketData(s0=0.0, r=0.1, T=1.0)
    with pytest.raises(ValueError):
        MarketData(s0=1.0, r=0.1, T=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["s0", "r", "T"])
def test_market_data_rejects_non_finite_fields(field, value):
    # a NaN fails no order comparison, so each field is checked for finiteness
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        MarketData(**{**dict(s0=36.0, r=0.05, T=1.0), field: value})
