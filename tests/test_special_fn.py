"""Numerical kernel checks: Bessel K through its log, log-gamma, quadrature."""
import math

import numpy as np
import pytest
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
