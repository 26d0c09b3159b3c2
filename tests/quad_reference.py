"""References for ``levymc.special_fn.integrate`` and the NIG closed form, over ``scipy.integrate.quad``.

A finite range is one ``scipy.integrate.quad`` call, QUADPACK's own adaptive
GK21 with its extrapolation.  A semi-infinite range is cut into doubling
panels, one such call each, until a panel's contribution falls below
``tail_truncation_mass`` relative to the running total, the panel rule of
``integrate``.  The integrand is called on Python floats, one node at a time,
so this shares no code with the array engine it checks.  ``two_tail_price``
prices the NIG European call through it, from the definition the closed
form integrates in a different form.
"""
import math

import numpy as np
import scipy.integrate

from levymc.levy_models import NigParams, nig_density
from levymc.measures import MarketData, nig_esscher
from levymc.special_fn import QuadratureError, QuadratureSpec


def _quad_finite(f, a: float, b: float, spec: QuadratureSpec) -> float:
    value, abserr, info, *rest = scipy.integrate.quad(
        f, a, b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    if rest:  # quad appends a message (and possibly more) only on trouble
        raise QuadratureError(f"quadrature on [{a}, {b}] did not converge: {rest[0]}")
    return value


def reference_integrate(f, lower, upper, spec: QuadratureSpec | None = None):
    """Adaptive quadrature of the scalar integrand ``f`` over [lower, upper]; either end may be infinite.

    With 1-d arrays of limits, ``f(nodes, which)`` is integrand of every
    range as ``integrate`` takes it; each range is integrated alone, its
    integrand called on one node at a time.
    """
    if np.ndim(lower) or np.ndim(upper):
        lows, highs = np.broadcast_arrays(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        return np.array([
            reference_integrate(lambda x, i=i: float(f(np.array([x]), np.array([i]))[0]), lo, hi, spec)
            for i, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist()))
        ])
    spec = spec or QuadratureSpec()
    lo, hi = float(lower), float(upper)
    if lo > hi:
        raise ValueError("lower must be <= upper")
    if math.isinf(lo) and math.isinf(hi):
        return reference_integrate(f, lo, 0.0, spec) + reference_integrate(f, 0.0, hi, spec)
    if math.isinf(lo):
        return reference_integrate(lambda u: f(-u), -hi, math.inf, spec)
    if not math.isinf(hi):
        return _quad_finite(f, lo, hi, spec)

    # [lo, inf): doubling panels
    total = 0.0
    a = lo
    width = max(1.0, abs(lo))
    for _ in range(spec.max_subdivisions):
        b = a + width
        piece = _quad_finite(f, a, b, spec)
        total += piece
        scale = max(abs(total), spec.abs_tol)
        if abs(piece) <= spec.tail_truncation_mass * scale and width > 4.0 * max(1.0, abs(lo)):
            return total
        a = b
        width *= 2.0
    raise QuadratureError(
        f"semi-infinite tail from {lower} did not decay below the truncation "
        f"threshold within {spec.max_subdivisions} doubling panels"
    )


def two_tail_price(p: NigParams, market: MarketData, strike: float) -> float:
    """S0*P1 - exp(-r*T)*K*P2, each tail integrated in x itself, through the density's peak.

    P1 is taken under the Esscher tilt beta* + 1 and P2 under beta*, both from
    log(K/S0) - r*T: the closed form's definition, by independent quadrature.
    """
    tilt = nig_esscher(p).risk_neutral_params
    tilt_up = NigParams(alpha=p.alpha, beta=tilt.beta + 1.0, mu=p.mu, delta=p.delta)
    t = market.T
    x = math.log(strike / market.s0) - market.r * t
    p1 = reference_integrate(lambda y: nig_density(tilt_up, y, t), x, math.inf)
    p2 = reference_integrate(lambda y: nig_density(tilt, y, t), x, math.inf)
    return market.s0 * p1 - math.exp(-market.r * t) * strike * p2
