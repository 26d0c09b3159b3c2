"""Numerical kernel checks: Bessel K through its log, log-gamma, quadrature."""
import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad as scipy_quad

from levymc import pricing
from levymc.levy_models import NigParams, VgParams, nig_density, vg_density
from levymc.measures import MarketData
from levymc.pricing import european_call_nig_closed
from levymc.special_fn import (
    QuadratureError,
    QuadratureSpec,
    integrate,
    log_bessel_k,
    log_gamma,
)
from quad_reference import reference_integrate

NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)


def bessel_k_integral_oracle(order: float, x: float) -> float:
    """Independent route: quadrature of K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    t_max = math.acosh(800.0 / x)  # beyond this the integrand has underflowed
    val, _ = scipy_quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(order * t),
        0.0, t_max, limit=400, epsabs=1e-14, epsrel=1e-13,
    )
    return val


def test_bessel_k_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) * exp(-x)
    for x in [0.01, 0.1, 0.5, 2.0, 10.0, 100.0]:
        exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert math.exp(log_bessel_k(0.5, x)) == pytest.approx(exact, rel=1e-10)
    assert math.exp(log_bessel_k(0.5, 2.0)) == pytest.approx(math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12)


def test_bessel_k_matches_integral_representation():
    # frozen value of K_1(1) computed from the integral representation above
    assert math.exp(log_bessel_k(1.0, 1.0)) == pytest.approx(0.6019072301972346, rel=1e-12)
    for order in [0.0, 1.0, 2.3]:
        for x in [0.5, 1.0, 5.0]:
            assert math.exp(log_bessel_k(order, x)) == pytest.approx(bessel_k_integral_oracle(order, x), rel=1e-10)


def test_bessel_k_small_argument_asymptote():
    # x * K_1(x) -> 1 as x -> 0+
    assert 1e-6 * math.exp(log_bessel_k(1.0, 1e-6)) == pytest.approx(1.0, abs=1e-10)


def test_bessel_k_recurrence():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x); K is even in its order
    for nu in [0.5, 1.0, 1.7, 3.2]:
        for x in [0.05, 0.5, 2.0, 10.0, 50.0]:
            lhs = math.exp(log_bessel_k(nu + 1.0, x))
            rhs = math.exp(log_bessel_k(abs(nu - 1.0), x)) + (2.0 * nu / x) * math.exp(log_bessel_k(nu, x))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_k_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        log_bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        log_bessel_k(1.0, -2.0)
    with pytest.raises(ValueError):
        log_bessel_k(-1.0, 1.0)


def test_log_bessel_k_scalar_path_is_bit_identical_to_array_path():
    zs = [float(z) for z in np.geomspace(1e-8, 2000.0, 10_000)]
    for z in zs:
        assert log_bessel_k(1.0, z) == log_bessel_k(1.0, np.array(z))
        assert type(log_bessel_k(1.0, z)) is float
    assert type(log_bessel_k(1.0, np.float64(2.0))) is float
    assert type(log_bessel_k(1.0, 2)) is float
    assert isinstance(log_bessel_k(1.0, np.array([2.0])), np.ndarray)
    # NaN passes the domain check on both paths, as it always has
    assert math.isnan(log_bessel_k(1.0, math.nan))
    assert math.isnan(log_bessel_k(1.0, np.array(math.nan)))


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_log_bessel_k_rejects_nonpositive_argument_on_both_paths(z):
    with pytest.raises(ValueError, match="log_bessel_k requires x > 0"):
        log_bessel_k(1.0, z)
    with pytest.raises(ValueError, match="log_bessel_k requires x > 0"):
        log_bessel_k(1.0, np.array(z))


def test_log_bessel_k_order_one_agrees_with_kve():
    # order 1 takes scipy.special.k1e; on this grid it stays within 1e-15 of the kve route,
    # relative to max(|log K_1(x)|, 1) (measured worst 8.9e-16).  On a 20x denser grid the two
    # differ by 1.25e-15 at x = 1.99, where 40-digit mpmath puts kve's own error at 1.7e-15
    x = np.geomspace(1e-6, 1e6, 10_001)
    via_kve = np.log(scipy.special.kve(1.0, x)) - x
    assert np.all(np.abs(log_bessel_k(1.0, x) - via_kve) <= 1e-15 * np.maximum(np.abs(via_kve), 1.0))
    assert np.array_equal(log_bessel_k(1, x), log_bessel_k(1.0, x))


@pytest.mark.parametrize("order", [0.0, 0.5, 2.3])
def test_log_bessel_k_other_orders_scalar_path_is_bit_identical_to_array_path(order):
    zs = np.geomspace(1e-8, 2000.0, 500)
    assert [log_bessel_k(order, float(z)) for z in zs] == log_bessel_k(order, zs).tolist()
    with pytest.raises(ValueError, match="log_bessel_k requires x > 0"):
        log_bessel_k(order, np.array([1.0, 0.0]))


def test_log_bessel_k_order_one_rejects_a_nonpositive_element():
    with pytest.raises(ValueError, match="log_bessel_k requires x > 0"):
        log_bessel_k(1.0, np.array([2.0, 1.0, -1e-300]))


def test_log_gamma_exact_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-12)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-10, tail_truncation_mass=1e-9)


def test_integrate_constant_on_unit_interval():
    assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_integrate_empty_range_is_zero():
    assert integrate(lambda x: np.exp(-x), 2.0, 2.0) == 0.0


def test_integrate_exponential_tail():
    assert integrate(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)


def test_integrate_gaussian_whole_line():
    f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert integrate(f, -math.inf, math.inf) == pytest.approx(1.0, rel=1e-10)


def test_integrate_nig_density_normalization():
    total = integrate(lambda x: nig_density(NIG_BENCH, x, t=1.0 / 12.0), -math.inf, math.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_integrate_is_linear():
    f = lambda x: np.exp(-x)
    g = lambda x: np.exp(-2.0 * x)
    combo = integrate(lambda x: 3.0 * f(x) + 2.0 * g(x), 0.0, math.inf)
    parts = 3.0 * integrate(f, 0.0, math.inf) + 2.0 * integrate(g, 0.0, math.inf)
    assert combo == pytest.approx(parts, rel=1e-9)


def _closed_form_case(p, market, strike, id):
    """The closed form priced through a given quadrature engine; engines agree within 1e-12 * (S0 + K)."""
    def price(engine, monkeypatch):
        monkeypatch.setattr(pricing, "integrate", engine)
        return european_call_nig_closed(p, market, strike)
    return pytest.param(price, dict(abs=1e-12 * (market.s0 + strike)), id=id)


def _whole_line_case(f, id):
    """The integral of ``f`` over the whole line by a given engine; engines agree within 1e-10 relative."""
    def value(engine, monkeypatch):
        return engine(f, -math.inf, math.inf)
    return pytest.param(value, dict(rel=1e-10), id=id)


_HEAVY_RIGHT_TAIL = NigParams(alpha=2.0, beta=0.0, mu=-1.5, delta=1.0)  # alpha - beta* = 1.014


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("compute, tolerance", [
    *(
        _closed_form_case(NIG_BENCH, MarketData(s0=36.0, r=r, T=t), strike, f"closed-T{t:.3g}-r{r}-K{strike:g}")
        for t in (1.0 / 52.0, 1.0) for r in (0.05, 0.1) for strike in (30.0, 36.0, 42.0)
    ),
    *(
        _closed_form_case(_HEAVY_RIGHT_TAIL, MarketData(s0=1.0, r=0.0, T=1.0), strike, f"heavy-tail-K{strike:g}")
        for strike in (1.0, 3.0, 20.0)
    ),
    _whole_line_case(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), "gaussian"),
    _whole_line_case(lambda x: nig_density(NIG_BENCH, x, t=1.0 / 12.0), "nig-density"),
    _whole_line_case(
        lambda x: vg_density(VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0), x, 1.0), "vg-density"
    ),
])
def test_integrate_matches_the_scipy_quad_reference(monkeypatch, compute, tolerance):
    # the same integral through the array GK21 engine and through scipy.integrate.quad
    # called on one float at a time
    assert compute(integrate, monkeypatch) == pytest.approx(compute(reference_integrate, monkeypatch), **tolerance)


def test_integrate_reports_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=1, tail_truncation_mass=1e-12)
    with pytest.raises(QuadratureError):
        integrate(lambda x: x**-0.9, 1e-12, 1.0, spec)


def test_bessel_k_vectorized():
    xs = np.array([0.5, 1.0, 2.0])
    vals = np.exp(log_bessel_k(1.0, xs))
    assert vals.shape == xs.shape
    assert vals[1] == pytest.approx(0.6019072301972346, rel=1e-12)


# one range of each kind: finite, zero-width, [a, inf), (-inf, b], the whole line, and a
# finite and a tail range that need bisection and later doubling panels
_RANGES = [(0.0, 1.0), (2.0, 2.0), (0.5, math.inf), (-math.inf, 1.5), (-math.inf, math.inf), (-3.0, 7.0),
           (-2.0, math.inf), (-1e-3, -1e-3)]
_RATE = np.array([1.0, 1.0, 0.7, 2.0, 0.5, 0.3, 0.04, 1.0])
_FREQ = np.array([0.0, 0.0, 3.0, 0.0, 1.0, 25.0, 0.5, 0.0])
_ARRAY_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=400, tail_truncation_mass=1e-11)


def _ranges_integrand(x, which):
    # range i's integrand is exp(-rate_i |x|) (1 + cos(freq_i x)), its parameters looked up by ``which``
    return np.exp(-_RATE[which] * np.abs(x)) * (1.0 + np.cos(_FREQ[which] * x))


def _range_integrand(i):
    return lambda x: _ranges_integrand(x, np.full(np.shape(x), i))


def test_integrate_array_limits_equal_the_float_call_on_each_range_bit_for_bit():
    lower, upper = zip(*_RANGES)
    batched = integrate(_ranges_integrand, np.array(lower), np.array(upper), _ARRAY_SPEC)
    alone = [integrate(_range_integrand(i), lo, hi, _ARRAY_SPEC) for i, (lo, hi) in enumerate(_RANGES)]
    assert isinstance(batched, np.ndarray) and batched.shape == (len(_RANGES),)
    assert [float(v).hex() for v in batched] == [v.hex() for v in alone]
    assert batched[1] == batched[7] == 0.0
    # the ranges in another order, and each range alone in an array, give the same bits
    order = [5, 0, 7, 3, 6, 1, 4, 2]
    permuted = integrate(lambda x, which: _ranges_integrand(x, np.array(order)[which]),
                         np.array(lower)[order], np.array(upper)[order], _ARRAY_SPEC)
    assert [float(v).hex() for v in permuted] == [alone[i].hex() for i in order]
    for i, (lo, hi) in enumerate(_RANGES):
        one = integrate(lambda x, which: _range_integrand(i)(x), [lo], [hi], _ARRAY_SPEC)
        assert float(one[0]).hex() == alone[i].hex()


def test_integrate_array_limits_broadcast_a_float_limit():
    starts = np.array([0.0, 0.5, 2.0])
    batched = integrate(lambda x, which: np.exp(-x), starts, math.inf)
    assert [float(v).hex() for v in batched] == [integrate(lambda x: np.exp(-x), s, math.inf).hex() for s in starts]


def test_integrate_array_limits_call_the_integrand_once_per_round():
    # five copies of one tail refine in lockstep: as many calls as one copy alone,
    # each on the nodes of every copy
    calls = []

    def recording(x, which):
        calls.append(np.unique(which).tolist())
        return np.exp(-x)

    integrate(recording, np.zeros(5), math.inf)
    alone = []
    integrate(lambda x: alone.append(None) or np.exp(-x), 0.0, math.inf)
    assert len(calls) == len(alone) >= 2
    assert calls == [[0, 1, 2, 3, 4]] * len(alone)


def test_integrate_array_limits_skip_zero_width_ranges():
    seen = set()

    def recording(x, which):
        seen.update(which.tolist())
        return np.ones_like(x)

    assert integrate(recording, [0.0, 1.0, 2.0], [1.0, 1.0, 4.0]).tolist() == [1.0, 0.0, 2.0]
    assert seen == {0, 2}
    assert integrate(recording, np.array([]), np.array([])).shape == (0,)


def test_integrate_array_limits_report_a_range_that_cannot_converge():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=8, tail_truncation_mass=1e-12)
    singular = lambda x, which: np.where(which == 1, np.abs(x) ** -0.9, np.exp(-x))
    with pytest.raises(QuadratureError, match="did not converge within 8 subintervals"):
        integrate(singular, [0.0, 1e-12], [1.0, 1.0], spec)
    # a tail that never decays below the truncation threshold
    flat = lambda x, which: np.where(which == 0, np.exp(-x), 1.0)
    with pytest.raises(QuadratureError, match="did not decay below the truncation threshold within 8"):
        integrate(flat, [0.0, 0.0], math.inf, spec)


def test_integrate_array_limits_validate_their_shape_and_order():
    with pytest.raises(ValueError, match="lower must be <= upper"):
        integrate(lambda x, which: x, [0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="1-d arrays"):
        integrate(lambda x, which: x, np.zeros((2, 2)), 1.0)
