"""Payoffs, the discounted Monte Carlo estimator, and the NIG European closed form."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy_models import NigParams, nig_density, nig_mean_rate
from .measures import MarketData, MeasureExistenceError, RiskNeutralModel, nig_esscher
from .sampling import PathGrid, PathSet, simulate_paths
from .special_fn import QuadratureSpec, integrate

__all__ = [
    "Payoff",
    "McResult",
    "price_mc",
    "nig_tail_probability",
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
        if self.strike < 0:
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

    Deterministic for a fixed seed regardless of worker count.  The payoff
    reads each path's terminal spot or average; no path is stored.
    """
    paths = simulate_paths(rnm, grid, n_paths, seed, scheme=scheme, workers=workers)
    discounted = payoff.evaluate(paths)
    discounted *= math.exp(-rnm.market.r * grid.maturity)
    return McResult.from_discounted_payoffs(discounted, seed)


def nig_tail_probability(p: NigParams, t: float, x: float) -> float:
    """P(X_t > x) for the NIG increment over horizon t, by quadrature of the density.

    The density is integrated in u = (y - mu*t)/(delta*t): there its peak is
    at most about one unit wide, where in y it is a spike delta*t wide, so the
    quadrature panels start on the peak's own scale.  Below the mean the
    lower tail is integrated and subtracted from one, so no integral runs
    through the peak.
    """
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    mu_t, delta_t = p.mu * t, p.delta * t

    def density_u(u: float) -> float:
        return delta_t * nig_density(p, mu_t + delta_t * u, t)

    u = (x - mu_t) / delta_t
    if x >= nig_mean_rate(p) * t:
        value = integrate(density_u, u, math.inf, _TAIL_QUAD)
    else:
        value = 1.0 - integrate(density_u, -math.inf, u, _TAIL_QUAD)
    return min(max(value, 0.0), 1.0)


def european_call_nig_closed(p: NigParams, market: MarketData, strike: float) -> float:
    """European call under the NIG Esscher measure, via two tail probabilities.

    C0 = S0 * P1 - exp(-r*T) * K * P2 with both tails taken from
    log(K/S0) - r*T: P1 under the tilt beta* + 1, P2 under beta*, each at
    horizon T.  The discounting of the strike term and the -r*T shift in the
    tail boundary are what make this identical (to quadrature accuracy) to the
    Monte Carlo price under the same measure.
    """
    if strike < 0:
        raise ValueError(f"strike must be >= 0, got {strike}")
    if strike == 0.0:
        return market.s0
    sol = nig_esscher(p)
    beta_star = sol.risk_neutral_params.beta
    if not abs(beta_star + 1.0) < p.alpha:
        raise MeasureExistenceError(
            f"closed form undefined: |beta* + 1| = {abs(beta_star + 1.0):g} reaches alpha = {p.alpha:g}"
        )
    boundary = math.log(strike / market.s0) - market.r * market.T
    tilt_up = NigParams(alpha=p.alpha, beta=beta_star + 1.0, mu=p.mu, delta=p.delta)
    tilt = sol.risk_neutral_params
    p1 = nig_tail_probability(tilt_up, market.T, boundary)
    p2 = nig_tail_probability(tilt, market.T, boundary)
    return market.s0 * p1 - math.exp(-market.r * market.T) * strike * p2
