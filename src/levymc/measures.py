"""Risk-neutral measure construction for exponential Levy models.

Price dynamics are S_t = S0 * exp(drift_rate * t + L_t), where L is the Levy
process under the chosen pricing measure.  Discounted prices are martingales
exactly when drift_rate = r - cumulant(1), with the cumulant taken under the
pricing measure, and that is how every drift here is assembled, from the one
``levy_models.cumulant`` of each model:

* Esscher: tilt the law by exp(theta* x) with theta* solving
  ``cumulant(theta + 1) = cumulant(theta)``, so the tilted cumulant at 1
  vanishes and drift_rate = r up to the residual.
* Mean correcting: keep the physical law and set drift_rate = r + omega with
  omega = -cumulant(1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .levy_models import NigParams, VgParams, cumulant

__all__ = [
    "MarketData",
    "EsscherSolution",
    "RiskNeutralModel",
    "MeasureExistenceError",
    "ESSCHER",
    "MEAN_CORRECT",
    "MEASURES",
    "nig_esscher",
    "vg_esscher",
    "risk_neutralize",
]

ESSCHER = "esscher"
MEAN_CORRECT = "mean_correct"
MEASURES = (ESSCHER, MEAN_CORRECT)

_RESIDUAL_TOL = 1e-10


class MeasureExistenceError(ValueError):
    """The requested equivalent martingale measure does not exist for these parameters."""


@dataclass(frozen=True)
class MarketData:
    """Spot, continuously compounded annual rate, and maturity in years."""

    s0: float
    r: float
    T: float

    def __post_init__(self) -> None:
        if not 0 < self.s0 < math.inf:
            raise ValueError(f"s0 must be finite and > 0, got {self.s0}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")


@dataclass(frozen=True)
class EsscherSolution:
    """Exponential tilt theta* with the tilted parameter set and its residual."""

    theta_star: float
    risk_neutral_params: NigParams | VgParams
    residual: float

    def __post_init__(self) -> None:
        if not abs(self.residual) <= _RESIDUAL_TOL:
            raise MeasureExistenceError(
                f"Esscher residual {self.residual:.3e} exceeds tolerance {_RESIDUAL_TOL:g}"
            )


@dataclass(frozen=True)
class RiskNeutralModel:
    """A simulatable pricing model: risk-neutral parameters plus the drift convention."""

    model: NigParams | VgParams
    measure: str
    drift_rate: float
    omega: float
    market: MarketData
    esscher: EsscherSolution | None = None

    @property
    def model_kind(self) -> str:
        return "nig" if isinstance(self.model, NigParams) else "vg"


def nig_esscher(p: NigParams) -> EsscherSolution:
    """Closed-form Esscher tilt for the NIG process.

    Solves cumulant(theta + 1) = cumulant(theta), so the tilted cumulant at
    1 vanishes, as the S = S0*exp(r t + X_t) dynamics used for simulation
    need; with m = -mu/delta the tilted asymmetry is

        beta* = -1/2 + sign(m) * sqrt( alpha^2 m^2 / (1 + m^2) - m^2 / 4 )

    and the tilted process is NIG(alpha, beta*, mu, delta).
    """
    disc = p.alpha**2 * p.mu**2 / (p.delta**2 + p.mu**2) - p.mu**2 / (4.0 * p.delta**2)
    if disc < 0:
        raise MeasureExistenceError(
            "Esscher measure does not exist: the closed form's square root is complex "
            f"(drift mu={p.mu:g} too large for alpha={p.alpha:g}, delta={p.delta:g})"
        )
    # the tilted-equation excess return is increasing in theta, which selects
    # the root on the side of -1/2 that -mu points to
    beta_star = -0.5 + math.copysign(math.sqrt(disc), -p.mu)
    if not abs(beta_star) < p.alpha:
        raise MeasureExistenceError(
            f"Esscher measure does not exist: tilted asymmetry |beta*| = {abs(beta_star):g} "
            f"reaches alpha = {p.alpha:g}"
        )
    if abs(beta_star + 1.0) > p.alpha:
        raise MeasureExistenceError(
            f"Esscher measure does not exist: |beta* + 1| = {abs(beta_star + 1.0):g} "
            f"exceeds alpha = {p.alpha:g}"
        )
    theta_star = beta_star - p.beta
    residual = cumulant(p, theta_star + 1.0) - cumulant(p, theta_star)
    rn = NigParams(alpha=p.alpha, beta=beta_star, mu=p.mu, delta=p.delta)
    return EsscherSolution(theta_star=theta_star, risk_neutral_params=rn, residual=residual)


def vg_esscher(p: VgParams) -> EsscherSolution:
    """Closed-form Esscher tilt for the VG process, for every sigma > 0 and x0.

    With q(t) = beta*t + sigma^2 t^2/2 and eps = 1 - exp(x0/lam), the equation
    cumulant(theta + 1) = cumulant(theta) reads

        eps * (gamma_rate - q(theta)) = beta + sigma^2 * (theta + 1/2).

    q stays below gamma_rate between the roots t_lo < t_hi of q = gamma_rate,
    so theta and theta + 1 are both in the cumulant domain iff the offset
    d = theta - t_lo lies in (0, w), w = t_hi - 1 - t_lo = 2g/sigma^2 with
    g = sqrt(beta^2 + 2 sigma^2 gamma_rate) - sigma^2/2: the tilt exists iff
    g > 0.  On that scale gamma_rate - q(theta) = (sigma^2/2) d (w + 1 - d),
    gamma_rate - q(theta + 1) = (sigma^2/2) (d + 1) (w - d), and the equation
    is the quadratic

        (eps/2) d^2 + (1 - eps (w + 1)/2) d - w/2 = 0,

    which is negative at d = 0 and (1 - eps) w/2 > 0 at d = w, so exactly one
    root lies in (0, w); it is d = w/2 at x0 = 0 and is taken in
    cancellation-free form.  The tilted clock rate and the residual come from
    the factored forms, so they keep their digits however close g is to 0,
    where gamma_rate - q(theta*) is far below the rounding of q.  The tilted
    process is VG(x0, lam, gamma_rate - q(theta*), beta + sigma^2 theta*,
    sigma), its drift beta + sigma^2 theta* taken from the equation as
    eps*(gamma_rate - q(theta*)) - sigma^2/2.
    """
    s2 = p.sigma**2
    eps = -math.expm1(p.x0 / p.lam)
    root = math.sqrt(p.beta**2 + 2.0 * s2 * p.gamma_rate)
    # g = root - s2/2, rationalised
    g = (p.beta**2 + s2 * (2.0 * p.gamma_rate - 0.25 * s2)) / (root + 0.5 * s2)
    if not g > 0:
        raise MeasureExistenceError(
            "Esscher measure does not exist: beta^2 + 2 sigma^2 gamma_rate must exceed sigma^4/4 "
            "for theta and theta + 1 to share the cumulant domain"
        )
    width = 2.0 * g / s2
    b = 1.0 - 0.5 * eps * (width + 1.0)
    sq = math.sqrt(b * b + eps * width)
    # the quadratic's root (sq - b)/eps, in the form that does not cancel
    d = width / (b + sq) if b > 0 else (sq - b) / eps
    if not 0.0 < d < width:
        raise MeasureExistenceError(
            "Esscher measure does not exist: no real root of the tilt equation keeps theta "
            "and theta + 1 inside the cumulant domain"
        )
    # theta* = t_lo + d, with t_lo = -beta/s2 - 1/2 - width/2: exact at x0 = 0, where d = width/2
    theta_star = (d - 0.5 * width) - p.beta / s2 - 0.5
    clock_rate = 0.5 * s2 * d * ((width - d) + 1.0)
    residual = p.x0 - p.lam * math.log(((width - d) * (1.0 + d)) / (d * ((width - d) + 1.0)))
    rn = VgParams(x0=p.x0, lam=p.lam, gamma_rate=clock_rate, beta=eps * clock_rate - 0.5 * s2, sigma=p.sigma)
    return EsscherSolution(theta_star=theta_star, risk_neutral_params=rn, residual=residual)


def risk_neutralize(model: NigParams | VgParams, market: MarketData, measure: str) -> RiskNeutralModel:
    """Assemble a simulatable risk-neutral model for the requested measure.

    drift_rate is r - cumulant(1) under the returned parameter set, so the
    discounted spot is a martingale by construction; for the mean correcting
    measure that is r + omega with omega = -cumulant(1) of the physical law.
    The returned model has the type of ``model``: a VG given as (beta, sigma,
    nu) is a ``VgParams`` already (``vg_from_mean_variance``).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected {ESSCHER!r} or {MEAN_CORRECT!r}")

    if measure == ESSCHER:
        sol = nig_esscher(model) if isinstance(model, NigParams) else vg_esscher(model)
        rn = sol.risk_neutral_params
        return RiskNeutralModel(
            model=rn, measure=ESSCHER, drift_rate=market.r - cumulant(rn, 1.0),
            omega=0.0, market=market, esscher=sol,
        )

    try:
        omega = -cumulant(model, 1.0)
    except ValueError as exc:
        raise MeasureExistenceError(str(exc)) from exc
    return RiskNeutralModel(
        model=model, measure=MEAN_CORRECT, drift_rate=market.r + omega,
        omega=omega, market=market, esscher=None,
    )
