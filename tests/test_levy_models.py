"""Distributional checks for the NIG and VG building blocks.

Quadrature of the implemented densities is the oracle for normalization,
moments and exponential moments; algebraic identities are checked directly.
"""
import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levymc.levy_models import (
    NigParams,
    VgParams,
    cumulant,
    nig_cumulant,
    nig_density,
    nig_levy_density,
    nig_mean_rate,
    vg_cumulant,
    vg_density,
    vg_from_mean_variance,
)
from levymc.measures import nig_esscher
from levymc.special_fn import QuadratureSpec, integrate

# equity-style calibration reused across the suite (tiny scale, mild skew)
NIG_BENCH = NigParams(alpha=81.6, beta=3.69, mu=-0.000123, delta=0.0103)

_LOOSE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=300)


def test_nig_params_validation():
    with pytest.raises(ValueError):
        NigParams(alpha=-1.0, beta=0.0, mu=0.0, delta=1.0)
    with pytest.raises(ValueError):
        NigParams(alpha=1.0, beta=0.0, mu=0.0, delta=0.0)
    with pytest.raises(ValueError):
        NigParams(alpha=1.0, beta=1.0, mu=0.0, delta=1.0)  # |beta| must stay below alpha
    with pytest.raises(ValueError):
        VgParams(x0=0.0, lam=0.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        vg_from_mean_variance(beta=0.0, sigma=1.0, nu=-0.3)
    # a clock rate must be finite: 1/nu overflows for a subnormal nu
    for lam, gamma_rate in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="must be finite and > 0"):
            VgParams(x0=0.0, lam=lam, gamma_rate=gamma_rate, beta=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="lam must be finite and > 0, got inf"):
        vg_from_mean_variance(beta=0.0, sigma=1.0, nu=1e-320)


def test_nig_density_symmetric_case_is_even():
    p = NigParams(alpha=5.0, beta=0.0, mu=0.0, delta=1.0)
    xs = np.array([0.1, 0.7, 2.0, 5.0])
    np.testing.assert_allclose(nig_density(p, xs, 1.0), nig_density(p, -xs, 1.0), rtol=1e-13)


def test_nig_density_normalizes():
    total = integrate(lambda x: nig_density(NIG_BENCH, x, t=1.0 / 12.0), -math.inf, math.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_nig_density_mean_matches_analytic():
    t = 1.0 / 12.0
    mean = integrate(lambda x: x * nig_density(NIG_BENCH, x, t), -math.inf, math.inf, _LOOSE)
    assert mean == pytest.approx(t * nig_mean_rate(NIG_BENCH), abs=1e-8)


@pytest.mark.parametrize("t", [1.0 / 365.0, 1.0 / 52.0, 1.0 / 12.0, 1.0])
def test_nig_density_scalar_path_is_bit_identical_to_array_path(t):
    # integrate hands the density arrays of nodes; a scalar is the 0-d case of that one path
    mu_t = NIG_BENCH.mu * t
    offsets = np.geomspace(1e-9, 20.0, 1300)  # out past the underflow of the density
    xs = [float(x) for x in np.concatenate([mu_t - offsets, mu_t + offsets, [mu_t]])]
    for x in xs:
        assert nig_density(NIG_BENCH, x, t) == nig_density(NIG_BENCH, np.array(x), t)
    assert sum(nig_density(NIG_BENCH, x, t) == 0.0 for x in xs) > 0
    assert sum(nig_density(NIG_BENCH, x, t) > 0.0 for x in xs) > 2000


def test_nig_density_return_types():
    for x in (0.01, np.float64(0.01), 0, np.array(0.01)):
        assert type(nig_density(NIG_BENCH, x, 1.0)) is float
    assert isinstance(nig_density(NIG_BENCH, np.array([0.01]), 1.0), np.ndarray)
    assert isinstance(nig_density(NIG_BENCH, [0.01, 0.02], 1.0), np.ndarray)
    with pytest.raises(ValueError):
        nig_density(NIG_BENCH, 0.01, 0.0)


def test_nig_cumulant_at_zero():
    assert nig_cumulant(NIG_BENCH, 0.0) == 0.0


def test_nig_cumulant_symmetric_reduction():
    p = NigParams(alpha=3.0, beta=0.0, mu=0.0, delta=0.7)
    for xi in [-2.0, -0.5, 1.0, 2.5]:
        expected = 0.7 * (3.0 - math.sqrt(9.0 - xi * xi))
        assert nig_cumulant(p, xi) == pytest.approx(expected, rel=1e-14)


def test_nig_cumulant_domain_error():
    with pytest.raises(ValueError):
        nig_cumulant(NIG_BENCH, 81.6)  # beta + theta beyond alpha


def _nig_cumulant_decimal(p: NigParams, theta: float) -> Decimal:
    """The cumulant at 50 digits, from the exact values of the float arguments."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, mu, delta, t = (Decimal(v) for v in (p.alpha, p.beta, p.mu, p.delta, theta))
        return mu * t + delta * ((a * a - b * b).sqrt() - (a * a - (b + t) ** 2).sqrt())


@pytest.mark.parametrize("p", [NIG_BENCH, nig_esscher(NIG_BENCH).risk_neutral_params,
                               NigParams(alpha=3.0, beta=-1.2, mu=0.05, delta=0.7)])
@pytest.mark.parametrize("theta", [1.0, -1.0, 0.5, 1e-6])
def test_nig_cumulant_is_accurate_to_the_last_bits(p, theta):
    # the difference of square roots is rationalised, so a small theta does
    # not cancel: within 4 ulps of the larger of the value and mu*theta
    # against a 50-digit evaluation (the unrationalised form was 2.3e-13
    # relative off at theta = 1 on NIG_BENCH, about 1000 ulps).  The
    # Esscher-tilted cumulant at 1 is -8.9e-21, a sum of terms of size |mu|.
    value, exact = nig_cumulant(p, theta), _nig_cumulant_decimal(p, theta)
    scale = max(abs(float(exact)), abs(p.mu * theta))
    assert abs(Decimal(value) - exact) <= 4 * Decimal(np.spacing(scale))


def test_nig_cumulant_matches_mgf_quadrature():
    # E[exp(theta X_1)] by quadrature against exp(kappa(theta))
    for theta in [-1.0, 0.5, 1.0]:
        mgf = integrate(
            lambda x: np.exp(theta * x) * nig_density(NIG_BENCH, x, 1.0),
            -math.inf, math.inf, _LOOSE,
        )
        assert mgf == pytest.approx(math.exp(nig_cumulant(NIG_BENCH, theta)), rel=1e-5)


def test_nig_levy_density_symmetry_and_domain():
    p = NigParams(alpha=4.0, beta=0.0, mu=0.0, delta=1.2)
    assert nig_levy_density(p, 0.8) == pytest.approx(nig_levy_density(p, -0.8), rel=1e-13)
    with pytest.raises(ValueError):
        nig_levy_density(p, 0.0)


def test_nig_levy_density_tilt_ratio_is_exponential():
    p = NIG_BENCH
    for theta in [-3.2, 0.5, 2.0]:
        tilted = NigParams(p.alpha, p.beta + theta, p.mu, p.delta)
        for x in [-0.3, -0.01, 0.02, 0.5]:
            ratio = nig_levy_density(tilted, x) / nig_levy_density(p, x)
            assert ratio == pytest.approx(math.exp(theta * x), rel=1e-12)


def test_nig_levy_density_small_jump_divergence():
    # x^2 * levy_density(x) -> delta/pi as x -> 0
    p = NigParams(alpha=4.0, beta=1.0, mu=0.0, delta=1.2)
    x = 1e-7
    assert x * x * nig_levy_density(p, x) == pytest.approx(1.2 / math.pi, rel=1e-6)


def test_vg_cumulant_zero_and_reduction():
    p = VgParams(x0=0.0, lam=1.3, gamma_rate=2.0, beta=0.5, sigma=1e-9)
    assert vg_cumulant(p, 0.0) == 0.0
    for theta in [-1.0, 0.7, 2.0]:
        expected = -1.3 * math.log(1.0 - 0.5 * theta / 2.0)
        assert vg_cumulant(p, theta) == pytest.approx(expected, rel=1e-9)


def test_vg_cumulant_domain_error():
    p = VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        vg_cumulant(p, 1.5)  # theta^2/2 > gamma_rate


def test_vg_cumulant_matches_mgf_quadrature():
    p = VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    for theta in [-1.0, 0.5, 1.0]:
        mgf = integrate(
            lambda x: np.exp(theta * x) * vg_density(p, x, 1.0),
            -math.inf, math.inf, _LOOSE,
        )
        assert mgf == pytest.approx(math.exp(vg_cumulant(p, theta)), rel=1e-5)


def vg_char_function(p: VgParams, u: float, t: float) -> complex:
    """E[exp(i u Y_t)] of the VG, from its cumulant on the imaginary axis."""
    return cmath.exp(t * cumulant(p, 1j * u))


def test_vg_char_function_basics():
    p = vg_from_mean_variance(beta=-0.1436, sigma=0.12136, nu=0.3)
    assert vg_char_function(p, 0.0, 1.0) == pytest.approx(1.0)
    for u in [0.5, 1.0, 3.0, 10.0]:
        for t in [0.25, 1.0, 2.0]:
            phi = vg_char_function(p, u, t)
            assert phi.conjugate() == pytest.approx(vg_char_function(p, -u, t), rel=1e-13)
            assert abs(phi) <= 1.0 + 1e-12


def test_vg_char_function_matches_density_fourier():
    p = vg_from_mean_variance(beta=-0.1436, sigma=0.12136, nu=0.3)
    for u in [0.5, 1.0, 2.0]:
        re = integrate(lambda x: np.cos(u * x) * vg_density(p, x, 1.0), -math.inf, math.inf, _LOOSE)
        im = integrate(lambda x: np.sin(u * x) * vg_density(p, x, 1.0), -math.inf, math.inf, _LOOSE)
        assert complex(re, im) == pytest.approx(vg_char_function(p, u, 1.0), abs=1e-4)


@st.composite
def models_in_and_beyond_the_strip(draw):
    """A NIG or VG parameter set, a real theta inside its strip and one beyond it."""
    s = draw(st.floats(-0.99, 0.99))
    if draw(st.booleans()):
        alpha = draw(st.floats(0.5, 100.0))
        p = NigParams(alpha=alpha, beta=alpha * draw(st.floats(-0.99, 0.99)),
                      mu=draw(st.floats(-1.0, 1.0)), delta=draw(st.floats(1e-3, 10.0)))
        # the strip is |beta + theta| <= alpha
        return p, -p.beta + s * p.alpha, -p.beta + math.copysign(1.01 * p.alpha, s)
    p = VgParams(x0=draw(st.floats(-1.0, 1.0)), lam=draw(st.floats(0.05, 20.0)),
                 gamma_rate=draw(st.floats(0.05, 20.0)), beta=draw(st.floats(-1.0, 1.0)),
                 sigma=draw(st.floats(0.05, 3.0)))
    # the strip is q(theta) < gamma_rate, between the roots of q(theta) = gamma_rate
    centre, half = -p.beta / p.sigma**2, math.sqrt(p.beta**2 + 2.0 * p.sigma**2 * p.gamma_rate) / p.sigma**2
    return p, centre + s * half, centre + math.copysign(1.01 * half, s)


@settings(max_examples=500, deadline=None)
@given(model=models_in_and_beyond_the_strip(), u=st.floats(-100.0, 100.0))
# 31.856**2 (libm pow) and 31.856*31.856 round apart enough to move gamma_bar: kappa(0) = 0
# needs beta^2 rounded one way in both
@example(model=(NigParams(alpha=36.0, beta=31.856, mu=0.0, delta=1.0), 0.5, 5.0), u=1.0)
def test_complex_cumulant_continues_the_real_one(model, u):
    p, theta, beyond = model
    assert cumulant(p, 0.0) == 0.0
    assert cumulant(p, complex(theta, 0.0)) == pytest.approx(cumulant(p, theta), rel=1e-15, abs=0.0)
    z = complex(theta, u)
    assert cumulant(p, z.conjugate()) == pytest.approx(cumulant(p, z).conjugate(), rel=1e-15, abs=0.0)
    assert abs(cmath.exp(cumulant(p, 1j * u))) <= 1.0
    with pytest.raises(ValueError):
        cumulant(p, complex(beyond, u))


def test_vg_density_even_when_symmetric():
    p = VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    xs = np.array([0.2, 0.9, 2.5])
    np.testing.assert_allclose(vg_density(p, xs, 1.0), vg_density(p, -xs, 1.0), rtol=1e-13)


def test_vg_density_normalizes():
    p = VgParams(x0=0.0, lam=1.0, gamma_rate=1.0, beta=0.0, sigma=1.0)
    total = integrate(lambda x: vg_density(p, x, 1.0), -math.inf, math.inf)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_vg_density_mean_matches_analytic():
    p = VgParams(x0=0.3, lam=1.5, gamma_rate=2.0, beta=-0.4, sigma=1.0)
    t = 1.0
    mean = integrate(lambda x: x * vg_density(p, x, t), -math.inf, math.inf, _LOOSE)
    assert mean == pytest.approx(t * (p.x0 + p.beta * p.lam / p.gamma_rate), abs=1e-6)


def test_vg_density_center_divergence_marker():
    diverging = VgParams(x0=0.0, lam=0.4, gamma_rate=1.0, beta=0.0, sigma=1.0)
    assert vg_density(diverging, 0.0, 1.0) == math.inf
    # boundary case lam*t = 1/2 diverges logarithmically as well
    boundary = VgParams(x0=0.0, lam=0.5, gamma_rate=1.0, beta=0.0, sigma=1.0)
    assert vg_density(boundary, 0.0, 1.0) == math.inf


def test_vg_density_center_finite_limit():
    p = VgParams(x0=0.2, lam=1.5, gamma_rate=2.0, beta=-0.4, sigma=1.0)
    center = 0.2
    at_center = vg_density(p, center, 1.0)
    nearby = vg_density(p, center + 1e-9, 1.0)
    assert math.isfinite(at_center)
    assert at_center == pytest.approx(nearby, rel=1e-4)


def test_vg_from_mean_variance_conversion():
    assert vg_from_mean_variance(0.1, 1.0, 1.0) == VgParams(0.0, 1.0, 1.0, 0.1, 1.0)
    p = vg_from_mean_variance(beta=-0.1436, sigma=0.12136, nu=0.3)
    assert p.lam == pytest.approx(10.0 / 3.0)
    assert p.gamma_rate == pytest.approx(10.0 / 3.0)
    assert p.x0 == 0.0


def test_vg_clock_moments_and_round_trip():
    # nu comes back as the clock's variance rate, beside a unit mean rate
    for nu in [0.1, 0.3, 1.0, 2.5]:
        p = vg_from_mean_variance(beta=0.2, sigma=0.7, nu=nu)
        assert p.lam / p.gamma_rate == pytest.approx(1.0)        # clock mean rate
        assert p.lam / p.gamma_rate**2 == pytest.approx(nu)      # clock variance rate


def test_densities_nonnegative_on_grid():
    xs = np.linspace(-5.0, 5.0, 41)
    assert np.all(nig_density(NigParams(2.0, 0.5, 0.1, 1.0), xs, 1.0) >= 0.0)
    assert np.all(vg_density(VgParams(0.0, 1.0, 1.0, 0.3, 1.0), xs, 1.0) >= 0.0)
