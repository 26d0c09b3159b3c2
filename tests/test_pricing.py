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
    european_call_nig_closed,
    nig_tail_probability,
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


def test_nig_tail_probability_limits():
    assert nig_tail_probability(NIG_BENCH, 1.0 / 12.0, -50.0) == pytest.approx(1.0, abs=1e-8)
    symmetric = NigParams(alpha=5.0, beta=0.0, mu=0.0, delta=1.0)
    assert nig_tail_probability(symmetric, 1.0, 0.0) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("params", [NIG_BENCH, NIG_ESSCHER, NIG_ESSCHER_UP], ids=["physical", "esscher", "esscher_up"])
@pytest.mark.parametrize("t", [1.0 / 365.0, 1.0 / 52.0, 1.0, 5.0])
def test_nig_tail_probability_matches_direct_quadrature(params, t):
    # the reference integrates the density in x itself, through its peak, from x to infinity
    mean = nig_mean_rate(params) * t
    sd = math.sqrt(params.delta * params.alpha**2 / params.gamma_bar**3 * t)
    for z in (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0):
        x = mean + z * sd
        direct = integrate(lambda y: nig_density(params, y, t), x, math.inf)
        assert nig_tail_probability(params, t, x) == pytest.approx(direct, abs=1e-12), (t, z)


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
