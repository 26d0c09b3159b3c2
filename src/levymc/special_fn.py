"""Numerical kernels: log modified Bessel K, log-gamma and adaptive quadrature.

The Bessel and gamma functions wrap ``scipy.special`` behind the small,
explicit contracts the rest of the library relies on (error signalling
instead of silent bad values).  ``integrate`` is QUADPACK's 21-point
Gauss-Kronrod rule written in NumPy: its integrand takes an array of nodes,
one call per refinement round, and semi-infinite ranges are cut off by a
controlled tail truncation.

Only the ``scipy`` package is imported here; ``scipy.special`` loads on its
first use, so importing levymc, or pricing by Monte Carlo alone, never loads
it.  ``scipy.integrate`` is never loaded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "log_bessel_k",
    "log_gamma",
    "integrate",
]


class QuadratureError(RuntimeError):
    """Raised when an integral estimate cannot be trusted at the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for adaptive quadrature.

    ``tail_truncation_mass`` bounds the relative integral mass that may be
    discarded when a semi-infinite interval is truncated; it must not exceed
    ``rel_tol`` so truncation never dominates the error budget.
    ``max_subdivisions`` caps both the intervals of one adaptive partition
    and the number of doubling panels of a semi-infinite range.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_truncation_mass: float = 1e-10

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not 0 < self.tail_truncation_mass <= self.rel_tol:
            raise ValueError("tail_truncation_mass must lie in (0, rel_tol]")


def log_bessel_k(order: float, x):
    """log K_order(x), stable for large x (uses the exponentially scaled kve).

    The result is a float for a scalar or 0-d ``x`` and an array otherwise.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("log_bessel_k requires x > 0")
    out = np.log(scipy.special.kve(order, arr)) - arr
    return float(out) if arr.ndim == 0 else out


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = scipy.special.gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# QUADPACK's 21-point Kronrod abscissae on [-1, 1] (the positive half, the centre 0 left out),
# their weights (the centre's last), and the weights of the 10-point Gauss rule on
# xgk[1], xgk[3], ..., xgk[9] (Piessens et al. 1983, dqk21)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208064348880, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])


# dqk21 adds the centre, then the Gauss pairs xgk[1], xgk[3], ..., xgk[9], then the others
_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_WGK_ORDERED = np.concatenate([_WGK[10:], _WGK[_ORDER]])


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod estimate and the |Kronrod - Gauss| gap on every [a[i], b[i]], from one call of ``f``.

    The nodes are dqk21's and its sums run in its order (``accumulate`` adds
    left to right), so an interval's estimate is the one
    ``scipy.integrate.quad`` computes on it.
    """
    centr = 0.5 * (a + b)[:, None]
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK[_ORDER]
    nodes = np.concatenate([centr, centr - absc, centr + absc], axis=1)
    fv = np.empty(nodes.shape)
    fv.reshape(-1)[...] = f(nodes.reshape(-1))  # a scalar f broadcasts
    # fv[:, 0] is f at the centre; columns 1..10 become f(centr - absc) + f(centr + absc)
    np.add(fv[:, 1:11], fv[:, 11:], out=fv[:, 1:11])
    resg = np.add.accumulate(_WG * fv[:, 1:6], axis=1)[:, -1]
    resk = np.add.accumulate(_WGK_ORDERED * fv[:, :11], axis=1)[:, -1]
    return resk * hlgth, np.abs((resk - resg) * hlgth)


def _integrate_panels(f: Callable[[np.ndarray], np.ndarray], edges: list[float], spec: QuadratureSpec) -> np.ndarray:
    """The integral of ``f`` over each panel [edges[i], edges[i + 1]], by adaptive GK21.

    Each round calls ``f`` once, on the 21 nodes of every interval still
    open.  An interval is done when its gap is within its share, by width,
    of max(abs_tol, rel_tol * |total|); every other one is bisected.  More
    than ``max_subdivisions`` intervals in the partition raises QuadratureError.
    """
    edges_arr = np.asarray(edges, dtype=float)
    a, b = edges_arr[:-1], edges_arr[1:]
    panel = np.arange(len(a))
    done = np.zeros(len(a))
    span = edges_arr[-1] - edges_arr[0]
    n_intervals = len(a)
    while True:
        kronrod, gap = _gk21(f, a, b)
        tol = max(spec.abs_tol, spec.rel_tol * abs(float(np.sum(done) + np.sum(kronrod))))
        split = ~(gap <= tol * ((b - a) / span))  # a NaN gap is not converged
        np.add.at(done, panel[~split], kronrod[~split])
        if not split.any():
            return done
        n_intervals += int(np.count_nonzero(split))
        if n_intervals > spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature on [{edges[0]}, {edges[-1]}] did not converge within "
                f"{spec.max_subdivisions} subintervals"
            )
        a, b, panel = a[split], b[split], panel[split]
        mid = 0.5 * (a + b)
        a, b, panel = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([panel, panel])


def integrate(
    f: Callable[[np.ndarray], np.ndarray], lower: float, upper: float, spec: QuadratureSpec | None = None
) -> float:
    """Adaptive Gauss-Kronrod quadrature of ``f`` over [lower, upper]; either end may be infinite.

    ``f`` takes a 1-d array of nodes and returns its values there, an array
    of the same shape (or a scalar, which is broadcast).  A finite range is
    refined in rounds, one call of ``f`` per round on every open interval.
    Semi-infinite tails are handled by doubling panels until the panel
    contribution falls below ``tail_truncation_mass`` relative to the running
    total, which terminates quickly for the exponentially decaying integrands
    used here; the rule cannot stop before the fourth panel, so the first
    four are refined together.  Non-convergence raises QuadratureError rather
    than returning a silently wrong value.
    """
    spec = spec or QuadratureSpec()
    lo, hi = float(lower), float(upper)
    if lo > hi:
        raise ValueError("lower must be <= upper")
    if math.isinf(lo) and math.isinf(hi):
        return integrate(f, lo, 0.0, spec) + integrate(f, 0.0, hi, spec)
    if math.isinf(lo):
        return integrate(lambda u: f(-u), -hi, math.inf, spec)
    if not math.isinf(hi):
        return float(_integrate_panels(f, [lo, hi], spec)[0]) if hi > lo else 0.0

    # [lo, inf): doubling panels; the rule below cannot stop before the fourth,
    # so the first four are refined together
    width = max(1.0, abs(lo))
    edges = [lo]
    for _ in range(4):
        edges.append(edges[-1] + width)
        width *= 2.0
    pieces = _integrate_panels(f, edges, spec).tolist()
    total = 0.0
    for n in range(spec.max_subdivisions):
        if n == len(pieces):
            edges.append(edges[-1] + width)
            width *= 2.0
            pieces.append(float(_integrate_panels(f, edges[-2:], spec)[0]))
        total += pieces[n]
        scale = max(abs(total), spec.abs_tol)
        # panel n is 2**n times the first one's width, so n >= 3 is width > 4 * max(1, |lo|)
        if n >= 3 and abs(pieces[n]) <= spec.tail_truncation_mass * scale:
            return total
    raise QuadratureError(
        f"semi-infinite tail from {lower} did not decay below the truncation "
        f"threshold within {spec.max_subdivisions} doubling panels"
    )
