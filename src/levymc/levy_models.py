"""Parameter types and distributional functions for the NIG and VG processes.

Conventions used throughout:

* An increment of the normal inverse Gaussian process over horizon ``t`` is
  NIG(alpha, beta, mu*t, delta*t); ``mu`` and ``delta`` are per unit time.
* The variance gamma process is a Brownian motion with drift ``beta`` and
  volatility ``sigma`` run on a gamma clock with shape rate ``lam`` and rate
  ``gamma_rate``, plus a deterministic drift rate ``x0``:
  ``Y_t = x0*t + beta*X_t + sigma*B(X_t)``, ``X_t ~ Gamma(lam*t, gamma_rate)``.
  ``VgParams`` is its only parameter type: the unit-mean-clock spelling
  (beta, sigma, nu) of Madan, Carr & Chang (1998) is read once, by
  ``vg_from_mean_variance``, as lam = gamma_rate = 1/nu and x0 = 0.
* Cumulants are per unit time: ``E[exp(theta * L_t)] = exp(t * cumulant(theta))``.
  ``cumulant(p, theta)`` is the one formula per model.  ``theta`` may be
  complex with its real part in the strip where the exponential moment
  exists; ``exp(t * cumulant(p, 1j * u))`` is the characteristic function.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special_fn import log_bessel_k, log_gamma

__all__ = [
    "NigParams",
    "VgParams",
    "cumulant",
    "nig_density",
    "nig_cumulant",
    "nig_mean_rate",
    "nig_levy_density",
    "vg_cumulant",
    "vg_density",
    "vg_from_mean_variance",
]


@dataclass(frozen=True)
class NigParams:
    """NIG parameters: tail heaviness alpha, asymmetry beta, drift mu, scale delta."""

    alpha: float
    beta: float
    mu: float
    delta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not abs(self.beta) < self.alpha:
            raise ValueError(f"|beta| < alpha required, got beta={self.beta}, alpha={self.alpha}")

    @property
    def gamma_bar(self) -> float:
        """sqrt(alpha^2 - beta^2), the steepness under the symmetric part; beta squared as in nig_cumulant."""
        return math.sqrt(self.alpha**2 - self.beta * self.beta)


@dataclass(frozen=True)
class VgParams:
    """VG parameters (x0, lam, gamma_rate, beta, sigma) of the subordinated form."""

    x0: float
    lam: float
    gamma_rate: float
    beta: float
    sigma: float

    def __post_init__(self) -> None:
        # a clock rate of inf, as 1/nu gives for a subnormal nu, leaves no finite gamma clock
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not 0 < self.gamma_rate < math.inf:
            raise ValueError(f"gamma_rate must be finite and > 0, got {self.gamma_rate}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def brownian_cumulant(self, theta):
        """q(theta) = beta*theta + sigma^2 theta^2/2: the Brownian part's cumulant per unit clock time."""
        return self.beta * theta + 0.5 * self.sigma**2 * (theta * theta)


# ---------------------------------------------------------------------------
# NIG
# ---------------------------------------------------------------------------

def nig_density(p: NigParams, x, t: float = 1.0):
    """Density of the NIG increment over horizon t, evaluated at x.

    Normalisation carries the alpha*delta*t/pi prefactor, which is the constant
    forced by integrating to one (checked by quadrature in the test suite).
    Stable in the tails: evaluated in log space via the scaled Bessel function.

    Elementwise on arrays, as ``integrate`` passes its nodes; the result is a
    float for a scalar or 0-d ``x`` and an array otherwise.
    """
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    mu_t = p.mu * t
    delta_t = p.delta * t
    xa = np.asarray(x, dtype=float)
    q = np.sqrt(delta_t**2 + (xa - mu_t) ** 2)
    log_f = (
        np.log(p.alpha * delta_t / np.pi)
        + delta_t * p.gamma_bar
        + p.beta * (xa - mu_t)
        + log_bessel_k(1.0, p.alpha * q)
        - np.log(q)
    )
    out = np.exp(log_f)
    return float(out) if np.ndim(out) == 0 else out


def nig_cumulant(p: NigParams, theta):
    """Per-unit-time cumulant mu*theta + delta*(gamma_bar - sqrt(alpha^2 - (beta + theta)^2)).

    Evaluated as mu*theta + delta*theta*(2 beta + theta)/(gamma_bar + sqrt(alpha^2 - (beta + theta)^2)),
    the same function with the difference of square roots rationalised, so a
    small theta loses no digits to cancellation.  Defined for
    |beta + Re theta| <= alpha, where the principal square root is the
    analytic one; outside that strip a ValueError is raised.
    """
    b = p.beta + theta
    if abs(b.real) > p.alpha:
        raise ValueError(
            f"exponential moment undefined: |beta + theta| = {abs(b.real):g} exceeds alpha = {p.alpha:g}"
        )
    sqrt = cmath.sqrt if isinstance(theta, complex) else math.sqrt
    return p.mu * theta + p.delta * (theta * (2.0 * p.beta + theta)) / (p.gamma_bar + sqrt(p.alpha**2 - b * b))


def nig_mean_rate(p: NigParams) -> float:
    """E[X_1] = mu + delta*beta/sqrt(alpha^2 - beta^2)."""
    return p.mu + p.delta * p.beta / p.gamma_bar


def nig_levy_density(p: NigParams, x):
    """Jump intensity density delta*alpha/(pi*|x|) * exp(beta x) * K_1(alpha |x|), x != 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa == 0):
        raise ValueError("the jump density diverges at x = 0")
    ax = np.abs(xa)
    log_nu = (
        np.log(p.delta * p.alpha / np.pi)
        - np.log(ax)
        + p.beta * xa
        + log_bessel_k(1.0, p.alpha * ax)
    )
    out = np.exp(log_nu)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


# ---------------------------------------------------------------------------
# VG
# ---------------------------------------------------------------------------

def _log1p(w: complex) -> complex:
    # principal log(1 + w) for Re(1 + w) > 0, with log|1 + w| = log1p(Re w) + log hypot(1, t),
    # t = Im w / (1 + Re w): no log of a rounded 1 + w, so a small |w| keeps its digits (cmath.log
    # does not) and on the real axis this is math.log1p bit for bit
    x = 1.0 + w.real
    t = w.imag / x
    return complex(math.log1p(w.real) + 0.5 * math.log1p(t * t), math.atan2(w.imag, x))


def vg_cumulant(p: VgParams, theta):
    """Per-unit-time cumulant x0*theta - lam*log(1 - q(theta)/gamma_rate), q = p.brownian_cumulant.

    Requires q(Re theta) < gamma_rate, where Re(1 - q(theta)/gamma_rate) > 0
    and the principal logarithm is the analytic one; else a ValueError is raised.
    """
    q_re = p.brownian_cumulant(theta.real)
    if q_re >= p.gamma_rate:
        raise ValueError(
            f"exponential moment undefined: beta*theta + sigma^2*theta^2/2 = {q_re:g} "
            f"is not below gamma_rate = {p.gamma_rate:g}"
        )
    if isinstance(theta, complex):
        return p.x0 * theta - p.lam * _log1p(-p.brownian_cumulant(theta) / p.gamma_rate)
    return p.x0 * theta - p.lam * math.log1p(-q_re / p.gamma_rate)


def cumulant(p: NigParams | VgParams, theta):
    """The per-unit-time cumulant of either model at real or complex theta."""
    return (nig_cumulant if isinstance(p, NigParams) else vg_cumulant)(p, theta)


def _vg_density_at_center(lam_t: float, sigma: float, gamma_rate: float, c: float) -> float:
    # limit of the density at x = x0*t, finite only for lam*t > 1/2
    if lam_t <= 0.5:
        return math.inf
    log_f = (
        0.5 * math.log(2.0 / (math.pi * sigma**2))
        + lam_t * math.log(gamma_rate)
        + (lam_t - 1.5) * math.log(2.0)
        + log_gamma(lam_t - 0.5)
        - log_gamma(lam_t)
        - (2.0 * lam_t - 1.0) * math.log(c)
    )
    return math.exp(log_f)


def vg_density(p: VgParams, x, t: float = 1.0):
    """Density of the VG increment over horizon t.

    At the center x = x0*t the density diverges whenever lam*t <= 1/2; that
    point evaluates to +inf (an integrable singularity the quadrature callers
    split around).  For lam*t > 1/2 the finite limiting value is returned.
    """
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    lam_t = p.lam * t
    center = p.x0 * t
    c = math.sqrt(p.beta**2 / p.sigma**2 + 2.0 * p.gamma_rate)
    order = lam_t - 0.5

    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa - center)
    at_center = ax == 0
    ax_safe = np.where(at_center, 1.0, ax)

    log_f = (
        0.5 * np.log(2.0 / (np.pi * p.sigma**2))
        + lam_t * np.log(p.gamma_rate)
        + p.beta * (xa - center) / p.sigma**2
        + order * np.log(ax_safe / p.sigma)
        - log_gamma(lam_t)
        - order * np.log(c)
        + log_bessel_k(abs(order), (ax_safe / p.sigma) * c)
    )
    out = np.exp(log_f)
    if np.any(at_center):
        out = np.where(at_center, _vg_density_at_center(lam_t, p.sigma, p.gamma_rate, c), out)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def vg_from_mean_variance(beta: float, sigma: float, nu: float) -> VgParams:
    """The VG with a unit-mean gamma clock of variance rate nu: lam = gamma_rate = 1/nu, x0 = 0."""
    if not nu > 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    return VgParams(x0=0.0, lam=1.0 / nu, gamma_rate=1.0 / nu, beta=beta, sigma=sigma)
