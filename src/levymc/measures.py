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
from typing import Callable

from .levy_models import NigParams, VgMeanVarianceParams, VgParams, cumulant, vg_from_mean_variance
from .special_fn import find_root

__all__ = [
    "MarketData",
    "EsscherSolution",
    "RiskNeutralModel",
    "MeasureExistenceError",
    "ESSCHER",
    "MEAN_CORRECT",
    "esscher_theta",
    "nig_esscher",
    "nig_esscher_bracket",
    "vg_esscher",
    "risk_neutralize",
]

ESSCHER = "esscher"
MEAN_CORRECT = "mean_correct"

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
        if not self.s0 > 0:
            raise ValueError(f"s0 must be > 0, got {self.s0}")
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")


@dataclass(frozen=True)
class EsscherSolution:
    """Exponential tilt theta* with the tilted parameter set and its residual."""

    theta_star: float
    risk_neutral_params: NigParams | VgParams
    target: float
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


def esscher_theta(
    kappa: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Solve kappa(theta + 1) - kappa(theta) = target on the given bracket, kappa a cumulant.

    kappa must be defined on [bracket_lo, bracket_hi + 1].  Raises
    MeasureExistenceError when the bracket shows no sign change.
    """
    lo, hi = bracket

    def excess_return(theta: float) -> float:
        return kappa(theta + 1.0) - kappa(theta) - target

    f_lo, f_hi = excess_return(lo), excess_return(hi)
    if f_lo * f_hi > 0:
        raise MeasureExistenceError(
            f"Esscher measure does not exist for this bracket [{lo:g}, {hi:g}]: "
            f"no sign change (f(lo)={f_lo:g}, f(hi)={f_hi:g})"
        )
    return find_root(excess_return, lo, hi, tol=tol)


def nig_esscher_bracket(p: NigParams, span: float = 50.0, margin: float = 1e-9) -> tuple[float, float]:
    """Default root bracket: [-span, span] intersected with the cumulant domain.

    Both theta and theta + 1 must stay inside |beta + .| <= alpha, hence the
    -1 on the upper end; the margin keeps the square roots real.
    """
    lo = max(-span, -p.alpha - p.beta + margin)
    hi = min(span, p.alpha - p.beta - 1.0 - margin)
    return lo, hi


def nig_esscher(p: NigParams, target: float = 0.0) -> EsscherSolution:
    """Closed-form Esscher tilt for the NIG process.

    Solves cumulant(theta + 1) - cumulant(theta) = target; with m = (target - mu)/delta
    the tilted asymmetry is

        beta* = -1/2 + sign(m) * sqrt( alpha^2 m^2 / (1 + m^2) - m^2 / 4 )

    and the tilted process is NIG(alpha, beta*, mu, delta).  The default
    target 0 matches the S = S0*exp(r t + X_t) dynamics used for simulation.
    """
    d = p.mu - target
    disc = p.alpha**2 * d**2 / (p.delta**2 + d**2) - d**2 / (4.0 * p.delta**2)
    if disc < 0:
        raise MeasureExistenceError(
            "Esscher measure does not exist: the closed form's square root is complex "
            f"(drift gap {d:g} too large for alpha={p.alpha:g}, delta={p.delta:g})"
        )
    # the tilted-equation excess return is increasing in theta, which selects
    # the root on the side of -1/2 that the drift gap points to
    beta_star = -0.5 + math.copysign(math.sqrt(disc), target - p.mu)
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
    residual = cumulant(p, theta_star + 1.0) - cumulant(p, theta_star) - target
    rn = NigParams(alpha=p.alpha, beta=beta_star, mu=p.mu, delta=p.delta)
    return EsscherSolution(theta_star=theta_star, risk_neutral_params=rn, target=target, residual=residual)


def vg_esscher(p: VgParams) -> EsscherSolution:
    """Closed-form Esscher tilt for the VG process, for every sigma > 0 and x0.

    With q(t) = beta*t + sigma^2 t^2/2 and eps = 1 - exp(x0/lam), the equation
    cumulant(theta + 1) = cumulant(theta) reads

        eps * (gamma_rate - q(theta)) = beta + sigma^2 * (theta + 1/2),

    a quadratic in theta that turns linear, theta* = -beta/sigma^2 - 1/2, at
    x0 = 0.  Both roots are taken in cancellation-free form; the excess return
    is strictly increasing where theta and theta + 1 keep q below gamma_rate,
    so at most one root lies there.  The tilted process is
    VG(x0, lam, gamma_rate - q(theta*), beta + sigma^2 theta*, sigma).
    """
    s2 = p.sigma**2
    eps = -math.expm1(p.x0 / p.lam)
    a = 0.5 * eps * s2
    b = eps * p.beta + s2
    c = p.beta + 0.5 * s2 - eps * p.gamma_rate
    disc = b * b - 4.0 * a * c
    roots = []
    if disc >= 0:
        half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = ([c / half] if half != 0.0 else []) + ([half / a] if a != 0.0 else [])

    q = p.brownian_cumulant
    inside = [t for t in roots if q(t) < p.gamma_rate and q(t + 1.0) < p.gamma_rate]
    if not inside:
        raise MeasureExistenceError(
            "Esscher measure does not exist: no real root of the tilt equation keeps theta "
            "and theta + 1 inside the cumulant domain"
        )
    theta_star = inside[0]
    residual = cumulant(p, theta_star + 1.0) - cumulant(p, theta_star)
    rn = VgParams(x0=p.x0, lam=p.lam, gamma_rate=p.gamma_rate - q(theta_star),
                  beta=p.beta + s2 * theta_star, sigma=p.sigma)
    return EsscherSolution(theta_star=theta_star, risk_neutral_params=rn, target=0.0, residual=residual)


def risk_neutralize(model: NigParams | VgParams | VgMeanVarianceParams, market: MarketData, measure: str) -> RiskNeutralModel:
    """Assemble a simulatable risk-neutral model for the requested measure.

    drift_rate is r - cumulant(1) under the returned parameter set, so the
    discounted spot is a martingale by construction; for the mean correcting
    measure that is r + omega with omega = -cumulant(1) of the physical law.
    A mean-variance VG comes back in its subordinated form.
    """
    if measure not in (ESSCHER, MEAN_CORRECT):
        raise ValueError(f"unknown measure {measure!r}; expected {ESSCHER!r} or {MEAN_CORRECT!r}")
    if isinstance(model, VgMeanVarianceParams):
        model = vg_from_mean_variance(model)

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
