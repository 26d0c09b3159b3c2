"""Payoffs, Monte Carlo estimator, and the NIG European closed form."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levymc.levy_models import NigParams, nig_density, nig_mean_rate
from levymc.measures import ESSCHER, MarketData, nig_esscher, risk_neutralize
from levymc.pricing import (
    ASIAN_CALL,
    EUROPEAN_CALL,
    McResult,
    Payoff,
    _TAIL_QUAD,
    european_call_nig_closed,
    price_mc,
)
from levymc.sampling import PathGrid, PathSet, simulate_paths
from levymc.special_fn import integrate

NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)
# the two Esscher tilts the closed form integrates: beta* and beta* + 1
NIG_ESSCHER = nig_esscher(NIG_BENCH).risk_neutral_params
NIG_ESSCHER_UP = NigParams(alpha=NIG_BENCH.alpha, beta=NIG_ESSCHER.beta + 1.0, mu=NIG_BENCH.mu, delta=NIG_BENCH.delta)
MARKET = MarketData(s0=36.0, r=0.1, T=1.0 / 12.0)


def _path_set(terminal, average) -> PathSet:
    """A hand-built path set: one terminal spot and one average per path."""
    return PathSet(terminal=np.array(terminal), average=np.array(average))


def test_payoff_european_call_cases():
    # (S_T - K)+ reads the terminal spot, whatever the average
    paths = _path_set([40.0, 30.0, 41.5], [36.0, 36.0, 36.0])
    assert np.array_equal(Payoff(EUROPEAN_CALL, 34.0).evaluate(paths), [6.0, 0.0, 7.5])
    assert np.array_equal(Payoff(EUROPEAN_CALL, 0.0).evaluate(paths), [40.0, 30.0, 41.5])


def test_payoff_asian_call_cases():
    # (A - K)+ reads the average over the monitored dates, whatever the terminal spot
    paths = _path_set([36.0, 42.0, 30.0], [36.0, 36.0, 33.0])
    assert np.array_equal(Payoff(ASIAN_CALL, 34.0).evaluate(paths), [2.0, 2.0, 0.0])
    assert np.array_equal(Payoff(ASIAN_CALL, 40.0).evaluate(paths), [0.0, 0.0, 0.0])


def test_payoffs_read_terminal_and_average():
    paths = _path_set([37.0, 30.0], [36.0, 31.5])
    assert np.array_equal(Payoff(EUROPEAN_CALL, 34.0).evaluate(paths), [3.0, 0.0])
    assert np.array_equal(Payoff(ASIAN_CALL, 34.0).evaluate(paths), [2.0, 0.0])


def test_payoff_validation():
    with pytest.raises(ValueError):
        Payoff("digital", 1.0)
    with pytest.raises(ValueError):
        Payoff(EUROPEAN_CALL, -1.0)


@pytest.mark.parametrize("kind", [EUROPEAN_CALL, ASIAN_CALL])
@pytest.mark.parametrize("strike", [math.nan, -math.inf, -1e-300])
def test_payoff_rejects_nan_and_negative_strikes(kind, strike):
    with pytest.raises(ValueError, match="strike must be >= 0"):
        Payoff(kind, strike)


def test_mc_result_constant_payoffs():
    discount = math.exp(-MARKET.r * MARKET.T)
    result = McResult.from_discounted_payoffs(np.full(500, discount), seed=5)
    assert result.estimate == pytest.approx(discount, rel=1e-14)
    assert result.std_error == pytest.approx(0.0, abs=1e-14)
    assert result.n_paths == 500 and result.seed == 5


@pytest.mark.parametrize("n", [2, 7, 8, 9, 129, 1000, 2 * 16384 + 5])
def test_mc_result_std_error_is_np_std_bit_for_bit(n):
    # the in-place variance repeats np.std(ddof=1)'s operations, so every CSV byte stays
    payoffs = np.maximum(np.random.default_rng(n).standard_t(2.5, n) * 7.0, 0.0)
    reference = payoffs.copy()
    result = McResult.from_discounted_payoffs(payoffs, seed=0)
    assert result.estimate == float(np.mean(reference))
    assert result.std_error == float(np.std(reference, ddof=1) / math.sqrt(n))


def test_price_mc_zero_strike_recovers_spot():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    result = price_mc(rnm, Payoff(EUROPEAN_CALL, 0.0), PathGrid(MARKET.T, 1), 100_000, seed=11)
    assert abs(result.estimate - MARKET.s0) <= 3.0 * result.std_error


def test_price_mc_single_path_degenerates():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    grid = PathGrid(MARKET.T, 4)
    result = price_mc(rnm, Payoff(EUROPEAN_CALL, 0.0), grid, 1, seed=23)
    expected = math.exp(-MARKET.r * MARKET.T) * simulate_paths(rnm, grid, 1, seed=23).terminal[0]
    assert result.estimate == pytest.approx(expected, rel=1e-15)
    assert result.std_error == 0.0
    assert result.ci_lo == result.ci_hi == result.estimate


def test_mc_result_confidence_interval_invariant():
    result = McResult.from_discounted_payoffs(np.array([1.0, 2.0, 4.0, 5.0]), seed=0)
    assert result.ci_lo == result.estimate - 1.96 * result.std_error
    assert result.ci_hi == result.estimate + 1.96 * result.std_error
    assert result.n_paths == 4


def test_price_mc_matches_published_estimate_band():
    # deep in-the-money European call; the coarse published band is 2.227 +- 0.07
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    result = price_mc(rnm, Payoff(EUROPEAN_CALL, 34.0), PathGrid(MARKET.T, 16), 10_000, seed=42)
    assert result.ci_lo <= 2.227 + 0.07
    assert result.ci_hi >= 2.227 - 0.07


def _strike_at(boundary: float, market: MarketData) -> float:
    """The strike whose call boundary log(exp(-r*T)*K/S0) is ``boundary``."""
    return market.s0 * math.exp(boundary + market.r * market.T)


def _two_tail_price(p: NigParams, market: MarketData, strike: float) -> float:
    """S0*P1 - exp(-r*T)*K*P2, each tail integrated in x itself, through the density's peak.

    P1 is taken under the Esscher tilt beta* + 1 and P2 under beta*, both from
    log(K/S0) - r*T: the closed form's definition, by independent quadrature.
    """
    tilt = nig_esscher(p).risk_neutral_params
    tilt_up = NigParams(alpha=p.alpha, beta=tilt.beta + 1.0, mu=p.mu, delta=p.delta)
    t = market.T
    x = math.log(strike / market.s0) - market.r * t
    p1 = integrate(lambda y: nig_density(tilt_up, y, t), x, math.inf)
    p2 = integrate(lambda y: nig_density(tilt, y, t), x, math.inf)
    return market.s0 * p1 - math.exp(-market.r * t) * strike * p2


def test_nig_tail_probability_limits():
    # the closed form's limits: both tail probabilities are 1 at a boundary 50 below
    # the mean, so C = S0 - exp(-rT) K, and both are 0 at a boundary 50 above it
    itm = _strike_at(-50.0, MARKET)
    closed = european_call_nig_closed(NIG_BENCH, MARKET, itm)
    assert closed == pytest.approx(MARKET.s0 - math.exp(-MARKET.r * MARKET.T) * itm, abs=1e-8 * (MARKET.s0 + itm))
    otm = _strike_at(50.0, MARKET)
    assert european_call_nig_closed(NIG_BENCH, MARKET, otm) == pytest.approx(0.0, abs=1e-8 * (MARKET.s0 + otm))


@pytest.mark.parametrize("params", [NIG_BENCH, NIG_ESSCHER, NIG_ESSCHER_UP], ids=["physical", "esscher", "esscher_up"])
@pytest.mark.parametrize("t", [1.0 / 365.0, 1.0 / 52.0, 1.0, 5.0])
def test_nig_tail_probability_matches_direct_quadrature(params, t):
    # the closed form at boundaries z standard deviations from each density's mean,
    # against its two tail probabilities integrated directly in x
    market = MarketData(s0=MARKET.s0, r=MARKET.r, T=t)
    mean = nig_mean_rate(params) * t
    sd = math.sqrt(params.delta * params.alpha**2 / params.gamma_bar**3 * t)
    for z in (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0):
        strike = _strike_at(mean + z * sd, market)
        closed = european_call_nig_closed(NIG_BENCH, market, strike)
        direct = _two_tail_price(NIG_BENCH, market, strike)
        assert closed == pytest.approx(direct, abs=1e-12 * (market.s0 + strike)), (t, z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_heavy_right_tail_matches_direct_quadrature():
    # alpha - beta* = 1.014: exp(y) f*(y) decays like exp(-0.014 y), so the call's
    # mass reaches y ~ 700, past where f* alone is subnormal and exp(y) overflows
    p = NigParams(alpha=2.0, beta=0.0, mu=-1.5, delta=1.0)
    assert 1.0 < p.alpha - nig_esscher(p).risk_neutral_params.beta < 1.02
    market = MarketData(s0=1.0, r=0.0, T=1.0)
    for strike in (1.0, 3.0, 20.0):
        closed = european_call_nig_closed(p, market, strike)
        direct = _two_tail_price(p, market, strike)
        assert closed == pytest.approx(direct, abs=1e-12 * (market.s0 + strike)), strike


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s0", [1e-200, 1e-5])
@pytest.mark.parametrize("t", [1.0 / 365.0, 1.0, 5.0])
def test_closed_form_deep_out_of_the_money_is_zero(s0, t):
    # the boundary log(exp(-rT) K/S0) lies where every density value is 0,
    # however large exp(y) is there
    assert european_call_nig_closed(NIG_BENCH, MarketData(s0=s0, r=0.1, T=t), 34.0) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_strike_far_below_spot():
    # K/S0 = 1e-330 underflows to 0, where log K - log S0 does not
    market = MarketData(s0=1e300, r=0.1, T=1.0)
    assert european_call_nig_closed(NIG_BENCH, market, 1e-30) == 1e300 - math.exp(-0.1) * 1e-30


@settings(max_examples=200, deadline=None)
@given(
    s0=st.floats(1e-2, 1e4),
    r=st.floats(-0.05, 0.2),
    t=st.floats(1.0 / 365.0, 5.0),
    moneyness=st.floats(0.2, 5.0),
    step=st.floats(1.01, 2.0),
)
def test_closed_form_no_arbitrage_bounds(s0, r, t, moneyness, step):
    # max(S0 - exp(-rT) K, 0) <= C <= S0 up to the quadrature's relative tolerance,
    # and C falls as K rises
    market = MarketData(s0=s0, r=r, T=t)
    strike = moneyness * s0
    closed = european_call_nig_closed(NIG_BENCH, market, strike)
    slack = _TAIL_QUAD.rel_tol * s0
    assert max(s0 - math.exp(-r * t) * strike, 0.0) - slack <= closed <= s0 + slack
    higher = european_call_nig_closed(NIG_BENCH, market, step * strike)
    assert higher <= closed
    assert higher < closed or closed == 0.0


@pytest.mark.parametrize("strike", [math.nan, math.inf, -math.inf, -1.0])
def test_closed_form_rejects_non_finite_and_negative_strikes(strike):
    # before any quadrature: a NaN or infinite strike has no integration bounds
    with pytest.raises(ValueError, match="strike must be finite and >= 0"):
        european_call_nig_closed(NIG_BENCH, MARKET, strike)


def test_closed_form_zero_strike_is_spot():
    assert european_call_nig_closed(NIG_BENCH, MARKET, 0.0) == MARKET.s0


def test_closed_form_benchmark_values():
    # frozen quadrature values for the benchmark market (regression pins)
    assert european_call_nig_closed(NIG_BENCH, MARKET, 34.0) == pytest.approx(2.2821592020585655, abs=1e-6)
    assert european_call_nig_closed(NIG_BENCH, MARKET, 35.0) == pytest.approx(1.2905236588941449, abs=1e-6)


def test_closed_form_strictly_decreasing_in_strike():
    prices = [european_call_nig_closed(NIG_BENCH, MARKET, k) for k in (34.0, 35.0, 36.0, 37.0)]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_closed_form_agrees_with_mc():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    grid = PathGrid(MARKET.T, 1)
    for strike in (34.0, 36.0):
        closed = european_call_nig_closed(NIG_BENCH, MARKET, strike)
        mc = price_mc(rnm, Payoff(EUROPEAN_CALL, strike), grid, 200_000, seed=29)
        assert abs(closed - mc.estimate) <= 3.0 * mc.std_error


@pytest.fixture(scope="module")
def common_paths() -> PathSet:
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    return simulate_paths(rnm, PathGrid(MARKET.T, 16), 20_000, seed=31)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([EUROPEAN_CALL, ASIAN_CALL]),
    strikes=st.lists(st.floats(0.0, 2.0 * MARKET.s0), min_size=3, max_size=3).map(sorted),
)
def test_mc_price_monotone_in_strike_with_common_paths(common_paths, kind, strikes):
    # on common paths every per-path payoff is non-increasing and convex in K,
    # and no larger than its underlying, so the MC prices inherit all three
    k1, k2, k3 = strikes
    assume(k1 < k3)
    discount = math.exp(-MARKET.r * MARKET.T)
    p1, p2, p3 = (
        McResult.from_discounted_payoffs(discount * Payoff(kind, k).evaluate(common_paths), seed=31).estimate
        for k in strikes
    )
    # exact: K -> max(x - K, 0), the positive scaling and the summation are all monotone in floating point
    assert p1 >= p2 >= p3 >= 0.0
    underlying = common_paths.terminal if kind == EUROPEAN_CALL else common_paths.average
    assert p1 <= float(np.mean(discount * underlying))
    # convex up to rounding: a few ulps of the largest magnitude in play per path
    w = (k3 - k2) / (k3 - k1)
    allowance = 64 * np.finfo(float).eps * (discount * float(np.max(underlying)) + k3)
    assert p2 <= w * p1 + (1.0 - w) * p3 + allowance


def test_call_lower_bound():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    grid = PathGrid(MARKET.T, 1)
    for strike in (34.0, 35.0, 36.0):
        mc = price_mc(rnm, Payoff(EUROPEAN_CALL, strike), grid, 100_000, seed=37)
        intrinsic = max(MARKET.s0 - strike * math.exp(-MARKET.r * MARKET.T), 0.0)
        assert mc.estimate >= intrinsic - 3.0 * mc.std_error


def test_asian_below_european_paired():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    paths = simulate_paths(rnm, PathGrid(MARKET.T, 16), 50_000, seed=41)
    diff = Payoff(ASIAN_CALL, 35.0).evaluate(paths) - Payoff(EUROPEAN_CALL, 35.0).evaluate(paths)
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert diff.mean() <= 3.0 * se


def test_mc_consistency_doubling_paths():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    grid = PathGrid(MARKET.T, 8)
    a = price_mc(rnm, Payoff(ASIAN_CALL, 35.0), grid, 50_000, seed=43)
    b = price_mc(rnm, Payoff(ASIAN_CALL, 35.0), grid, 100_000, seed=47)
    assert abs(a.estimate - b.estimate) <= 3.0 * math.hypot(a.std_error, b.std_error)


def test_price_mc_deterministic_across_workers():
    rnm = risk_neutralize(NIG_BENCH, MARKET, ESSCHER)
    grid = PathGrid(MARKET.T, 4)
    a = price_mc(rnm, Payoff(ASIAN_CALL, 35.0), grid, 40_000, seed=53, workers=1)
    b = price_mc(rnm, Payoff(ASIAN_CALL, 35.0), grid, 40_000, seed=53, workers=3)
    assert a == b
