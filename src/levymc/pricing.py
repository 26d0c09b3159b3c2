"""Payoffs, the discounted Monte Carlo estimator, and the NIG European closed form."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .levy_models import NigParams, nig_density, nig_mean_rate
from .measures import MarketData, MeasureExistenceError, RiskNeutralModel, nig_esscher
from .sampling import BLOCK_SIZE, PathGrid, PathSet, simulate_paths
from .special_fn import QuadratureSpec, integrate

__all__ = [
    "Payoff",
    "McResult",
    "price_paths",
    "price_mc",
    "simulation_grid",
    "european_call_nig_closed",
    "EUROPEAN_CALL",
    "ASIAN_CALL",
    "PAYOFF_KINDS",
]

EUROPEAN_CALL = "european_call"
ASIAN_CALL = "asian_arithmetic_call"
PAYOFF_KINDS = (EUROPEAN_CALL, ASIAN_CALL)

_TAIL_QUAD = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-10, max_subdivisions=400)


@dataclass(frozen=True)
class Payoff:
    """A call payoff: on the terminal spot, or on the arithmetic average of the monitored spots."""

    kind: str
    strike: float

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
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
    """Monte Carlo estimate with its standard error and 95% confidence interval.

    ``m2`` is the sum of the squared deviations of the discounted payoffs
    from the estimate: with ``n_paths`` and the estimate, it is all that
    ``combine`` needs to add further paths, and the standard error and the
    interval are derived from the three.
    """

    estimate: float
    n_paths: int
    m2: float

    @property
    def std_error(self) -> float:
        # Python floats: an inf or NaN moment gives an inf or NaN result, never a warning
        n = self.n_paths
        return math.sqrt(self.m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0

    @property
    def ci_lo(self) -> float:
        return self.estimate - 1.96 * self.std_error

    @property
    def ci_hi(self) -> float:
        return self.estimate + 1.96 * self.std_error

    @classmethod
    def from_discounted_payoffs(cls, discounted: np.ndarray) -> "McResult":
        """The estimate, its standard error and 95% CI; overwrites ``discounted``.

        The sample standard deviation is ``np.std(ddof=1)``'s own operations
        done in place, so it is the same number without a second n-vector.
        An overflow gives an inf or NaN result, no warning, for the row status to report.
        """
        n = len(discounted)
        with np.errstate(over="ignore", invalid="ignore"):
            estimate = float(np.mean(discounted))
            m2 = 0.0
            if n > 1:
                np.subtract(discounted, estimate, out=discounted)
                np.square(discounted, out=discounted)
                m2 = float(np.sum(discounted))
        return cls(estimate=estimate, n_paths=n, m2=m2)

    def combine(self, later: "McResult") -> "McResult":
        """The result of this result's paths followed by ``later``'s.

        The pairwise update of Chan, Golub & LeVeque (1979): with d the
        difference of the two estimates and n the paths of both, the
        estimate moves by d * n_later / n, and ``m2`` is the two ``m2`` plus
        d^2 * n_self * n_later / n.  An inf or NaN in either gives an inf or
        NaN result, no warning.
        """
        n = self.n_paths + later.n_paths
        delta = later.estimate - self.estimate
        estimate = self.estimate + delta * (later.n_paths / n)
        m2 = self.m2 + later.m2 + delta * delta * (self.n_paths * later.n_paths / n)
        return McResult(estimate=estimate, n_paths=n, m2=m2)


def price_paths(paths: PathSet, payoff_kind: str, strikes: Sequence[float], discount: float,
                prior: Sequence[McResult] | None = None) -> list[McResult]:
    """Each strike's discounted Monte Carlo result from one set of paths, in strike order.

    The one place where payoffs are evaluated, discounted in place by
    ``discount`` and reduced.  Every strike reads the same paths (common
    random numbers).  The paths are taken in slices of ``BLOCK_SIZE``, the
    walker's blocks; each slice's discounted payoffs are reduced by
    ``McResult.from_discounted_payoffs`` and combined in slice order
    (``McResult.combine``), after ``prior``'s result when earlier paths were
    priced already.  So pricing a simulation block by block, as
    ``simulate_paths`` hands the blocks over, gives bit for bit the results
    of pricing all its paths at once, and no payoff vector is longer than a
    block.
    """
    results = list(prior) if prior is not None else [None] * len(strikes)
    payoffs = [Payoff(payoff_kind, strike) for strike in strikes]
    for lo in range(0, paths.n_paths, BLOCK_SIZE):
        block = PathSet(paths.terminal[lo:lo + BLOCK_SIZE], paths.average[lo:lo + BLOCK_SIZE])
        for i, payoff in enumerate(payoffs):
            discounted = payoff.evaluate(block)
            discounted *= discount
            result = McResult.from_discounted_payoffs(discounted)
            results[i] = result if results[i] is None else results[i].combine(result)
    return results


def simulation_grid(payoff_kind: str, grid: PathGrid) -> PathGrid:
    """``grid``, or one step of length T for a European call: it reads only S_T, exact in law in one step."""
    return PathGrid(grid.maturity, 1) if payoff_kind == EUROPEAN_CALL else grid


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

    ``simulate_paths`` hands each block of paths to ``price_paths``, which
    folds it into the strike's result, on ``simulation_grid``'s grid (one
    step of length T for a European call, whatever ``grid.n_steps``): the
    pipeline and grid of every CLI row, so a cell's result is bit for bit the
    matching ``run_experiment`` row's on any grid.  Deterministic for a fixed
    seed regardless of worker count.  The payoff reads each path's terminal
    spot or average; no path and no n_paths-vector is stored.
    """
    grid = simulation_grid(payoff.kind, grid)
    discount = math.exp(-rnm.market.r * grid.maturity)
    results = None

    def consume(paths: PathSet) -> None:
        nonlocal results
        results = price_paths(paths, payoff.kind, [payoff.strike], discount, results)

    simulate_paths(rnm, grid, n_paths, seed, scheme=scheme, workers=workers, consume=consume)
    return results[0]


def european_call_nig_closed(
    p: NigParams, market: MarketData, strike: float | Sequence[float]
) -> float | list[float]:
    """European call under the NIG Esscher measure, as one payoff integral per strike.

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

    A float strike gives a float.  A sequence of strikes gives the list of
    their prices, in strike order, from one Esscher solve and one batched
    ``integrate`` call, whose rounds each evaluate at most one density per
    side (call and put) on the nodes of every strike; each price is bit for
    bit the float call's.
    """
    scalar = np.ndim(strike) == 0
    strikes = [float(strike)] if scalar else [float(k) for k in strike]
    for k in strikes:
        if not 0 <= k < math.inf:
            raise ValueError(f"strike must be finite and >= 0, got {k}")
    prices = [market.s0] * len(strikes)  # a zero strike is the spot, whatever the measure
    priced = [i for i, k in enumerate(strikes) if k > 0.0]
    if priced:
        values = _closed_form_prices(p, market, [strikes[i] for i in priced])
        for i, value in zip(priced, values):
            prices[i] = value
    return prices[0] if scalar else prices


def _closed_form_prices(p: NigParams, market: MarketData, strikes: list[float]) -> list[float]:
    """``european_call_nig_closed`` at the positive ``strikes``, in one batched quadrature."""
    tilt = nig_esscher(p).risk_neutral_params
    if not abs(tilt.beta + 1.0) < p.alpha:
        raise MeasureExistenceError(
            f"closed form undefined: |beta* + 1| = {abs(tilt.beta + 1.0):g} reaches alpha = {p.alpha:g}"
        )
    tilt_up = replace(tilt, beta=tilt.beta + 1.0)
    T = market.T
    mu_t, delta_t = p.mu * T, p.delta * T
    # log(K'/S0), finite where K' or K/S0 underflows
    boundaries = [math.log(k) - math.log(market.s0) - market.r * T for k in strikes]
    u = [(boundary - mu_t) / delta_t for boundary in boundaries]
    call = [boundary >= nig_mean_rate(tilt) * T for boundary in boundaries]
    is_call = np.array(call)
    # -expm1(b - y) on the call side, -expm1(y - b) on the put side: y - b is -(b - y)
    # exactly, but for the sign of a zero, which no sum below can show
    side, boundary_of = np.where(is_call, 1.0, -1.0), np.array(boundaries)

    def payoff_u(v: np.ndarray, which: np.ndarray) -> np.ndarray:
        y = mu_t + delta_t * v
        factor = -np.expm1(side[which] * (boundary_of[which] - y)) * delta_t
        up = is_call[which]
        density = np.empty_like(y)
        for mask, params in ((up, tilt_up), (~up, tilt)):
            if mask.any():
                density[mask] = nig_density(params, y[mask], T)
        return factor * density

    lower = np.where(is_call, u, -math.inf)
    upper = np.where(is_call, math.inf, u)
    integrals = integrate(payoff_u, lower, upper, _TAIL_QUAD).tolist()
    prices = []
    for k, above_mean, integral in zip(strikes, call, integrals):
        if above_mean:
            prices.append(market.s0 * integral)
        else:
            discounted_strike = math.exp(-market.r * T) * k
            prices.append((market.s0 - discounted_strike) + discounted_strike * integral)
    return prices
