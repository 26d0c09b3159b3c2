"""Payoffs, the discounted Monte Carlo estimator, and the NIG European closed form."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .levy_models import NigParams, nig_density, nig_mean_rate
from .measures import MarketData, MeasureExistenceError, RiskNeutralModel, nig_esscher
from .sampling import PathGrid, PathSet, simulate_paths
from .special_fn import QuadratureSpec, integrate

__all__ = [
    "Payoff",
    "McResult",
    "price_paths",
    "price_mc",
    "european_call_nig_closed",
    "EUROPEAN_CALL",
    "ASIAN_CALL",
]

EUROPEAN_CALL = "european_call"
ASIAN_CALL = "asian_arithmetic_call"

_TAIL_QUAD = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-10, max_subdivisions=400, tail_truncation_mass=1e-9)


@dataclass(frozen=True)
class Payoff:
    """A call payoff: on the terminal spot, or on the arithmetic average of the monitored spots."""

    kind: str
    strike: float

    def __post_init__(self) -> None:
        if self.kind not in (EUROPEAN_CALL, ASIAN_CALL):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if not self.strike >= 0:
            raise ValueError(f"strike must be >= 0, got {self.strike}")

    def evaluate(self, paths: PathSet) -> np.ndarray:
        """The payoff on every path, from its terminal spot or its average.

        (S_T - K)+ for the European call; ((1/s) * sum_i S_{t_i} - K)+ over
        the monitored dates t_1..t_s (t_0 excluded) for the Asian call.
        """
        underlying = paths.terminal if self.kind == EUROPEAN_CALL else paths.average
        out = underlying - self.strike
        return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its standard error and 95% confidence interval."""

    estimate: float
    std_error: float
    ci_lo: float
    ci_hi: float
    n_paths: int
    seed: int

    @classmethod
    def from_discounted_payoffs(cls, discounted: np.ndarray, seed: int) -> "McResult":
        """The estimate, its standard error and 95% CI; overwrites ``discounted``.

        The sample standard deviation is ``np.std(ddof=1)``'s own operations
        done in place, so it is the same number without a second n-vector.
        """
        n = len(discounted)
        estimate = float(np.mean(discounted))
        std_error = 0.0
        if n > 1:
            np.subtract(discounted, estimate, out=discounted)
            np.square(discounted, out=discounted)
            std_error = float(np.sqrt(np.sum(discounted) / (n - 1)) / math.sqrt(n))
        return cls(
            estimate=estimate,
            std_error=std_error,
            ci_lo=estimate - 1.96 * std_error,
            ci_hi=estimate + 1.96 * std_error,
            n_paths=n,
            seed=seed,
        )


def price_paths(paths: PathSet, payoff_kind: str, strikes: Sequence[float], discount: float,
                seed: int) -> list[McResult]:
    """Each strike's discounted Monte Carlo result from one set of paths, in strike order.

    The one place where payoffs are evaluated, discounted in place by
    ``discount`` and reduced.  Every strike reads the same paths (common
    random numbers), and each strike's payoff n-vector is freed before the
    next strike's is allocated.
    """
    results = []
    for strike in strikes:
        discounted = Payoff(payoff_kind, strike).evaluate(paths)
        discounted *= discount
        results.append(McResult.from_discounted_payoffs(discounted, seed))
        del discounted  # free this n-vector before the next strike's evaluate allocates one
    return results


def price_mc(
    rnm: RiskNeutralModel,
    payoff: Payoff,
    grid: PathGrid,
    n_paths: int,
    seed: int,
    scheme: str | None = None,
    workers: int = 1,
) -> McResult:
    """Discounted Monte Carlo price: exp(-r*T) times the mean simulated payoff.

    ``simulate_paths`` then ``price_paths`` for the one strike, the pipeline
    of every CLI row, so a cell's result is bit for bit the matching
    ``run_experiment`` row's.  Deterministic for a fixed seed regardless of
    worker count.  The payoff reads each path's terminal spot or average; no
    path is stored.
    """
    paths = simulate_paths(rnm, grid, n_paths, seed, scheme=scheme, workers=workers)
    return price_paths(paths, payoff.kind, [payoff.strike], math.exp(-rnm.market.r * grid.maturity), seed)[0]


def european_call_nig_closed(p: NigParams, market: MarketData, strike: float) -> float:
    """European call under the NIG Esscher measure, as one payoff integral.

    With f* the NIG(alpha, beta*, mu*T, delta*T) density, K' = exp(-r*T)*K and
    b = log(K'/S0), C0 = integral over y > b of (S0*exp(y) - K') f*(y) dy: the
    expectation of the discounted Monte Carlo payoff.  The tilt makes its
    cumulant vanish at 1, so exp(y) f*(y) is f+(y), the beta* + 1 density
    (Gerber & Shiu 1994).  The integral runs in u = (y - mu*T)/(delta*T), on
    the peak's scale, over the side away from the peak: above the mean
    C0 = S0 * integral over y > b of -expm1(b - y) f+(y), below it
    C0 = (S0 - K') + K' * integral over y < b of -expm1(y - b) f*(y), the put.
    Each integrand is a density times a factor in [0, 1], so nothing
    overflows, and f+ keeps its tail where f* alone has underflowed.
    """
    if not 0 <= strike < math.inf:
        raise ValueError(f"strike must be finite and >= 0, got {strike}")
    if strike == 0.0:
        return market.s0
    tilt = nig_esscher(p).risk_neutral_params
    if not abs(tilt.beta + 1.0) < p.alpha:
        raise MeasureExistenceError(
            f"closed form undefined: |beta* + 1| = {abs(tilt.beta + 1.0):g} reaches alpha = {p.alpha:g}"
        )
    T = market.T
    discounted_strike = math.exp(-market.r * T) * strike
    # log(K'/S0), finite where K' or K/S0 underflows
    boundary = math.log(strike) - math.log(market.s0) - market.r * T
    mu_t, delta_t = p.mu * T, p.delta * T
    u = (boundary - mu_t) / delta_t
    if boundary >= nig_mean_rate(tilt) * T:
        tilt_up = replace(tilt, beta=tilt.beta + 1.0)

        def call_u(v: float) -> float:
            y = mu_t + delta_t * v
            return -math.expm1(boundary - y) * delta_t * nig_density(tilt_up, y, T)

        return market.s0 * integrate(call_u, u, math.inf, _TAIL_QUAD)

    def put_u(v: float) -> float:
        y = mu_t + delta_t * v
        return -math.expm1(y - boundary) * delta_t * nig_density(tilt, y, T)

    return (market.s0 - discounted_strike) + discounted_strike * integrate(put_u, -math.inf, u, _TAIL_QUAD)
