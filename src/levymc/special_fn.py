"""Numerical kernels: log modified Bessel K, log-gamma and adaptive quadrature.

The Bessel and gamma functions wrap ``scipy.special`` behind the small,
explicit contracts the rest of the library relies on (error signalling
instead of silent bad values).  ``integrate`` is QUADPACK's 21-point
Gauss-Kronrod rule written in NumPy.  One range's refinement is written once,
as a generator that yields each round's open intervals; a driver refines every
range of a call in lockstep, calling the integrand once per round on the nodes
of every range still open.  Semi-infinite ranges are cut off by a controlled
tail truncation.

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

    ``rel_tol`` and ``abs_tol`` bound the error of each adaptive partition,
    and ``rel_tol`` also bounds the relative integral mass discarded when a
    semi-infinite range is truncated.  ``max_subdivisions`` caps both the
    intervals of one adaptive partition and the number of doubling panels of
    a semi-infinite range.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def log_bessel_k(order: float, x):
    """log K_order(x), stable for large x (uses the exponentially scaled Bessel function).

    Order 1, the NIG density's, takes ``k1e`` (Cephes' Chebyshev expansions,
    about five times faster than ``kve(1, x)`` and as accurate); every other
    order takes ``kve``.  The result is a float for a scalar or 0-d ``x`` and
    an array otherwise.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("log_bessel_k requires x > 0")
    scaled = scipy.special.k1e(arr) if order == 1 else scipy.special.kve(order, arr)
    out = np.log(scaled) - arr
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
_XGK_ORDERED = _XGK[_ORDER]
_WGK_ORDERED = np.concatenate([_WGK[10:], _WGK[_ORDER]])


def _gk21(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod estimate and the |Kronrod - Gauss| gap on every [a[i], b[i]], from one call of ``f``.

    ``f`` gets the nodes and, for each node, the ``group`` of its interval.
    The nodes are dqk21's and its sums run in its order (``accumulate`` adds
    left to right), so an interval's estimate is the one
    ``scipy.integrate.quad`` computes on it.
    """
    centr = 0.5 * (a + b)[:, None]
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK_ORDERED
    nodes = np.concatenate([centr, centr - absc, centr + absc], axis=1)
    fv = np.empty(nodes.shape)
    fv.reshape(-1)[...] = f(nodes.reshape(-1), np.repeat(group, nodes.shape[1]))  # a scalar f broadcasts
    # fv[:, 0] is f at the centre; columns 1..10 become f(centr - absc) + f(centr + absc)
    np.add(fv[:, 1:11], fv[:, 11:], out=fv[:, 1:11])
    resg = np.add.accumulate(_WG * fv[:, 1:6], axis=1)[:, -1]
    resk = np.add.accumulate(_WGK_ORDERED * fv[:, :11], axis=1)[:, -1]
    return resk * hlgth, np.abs((resk - resg) * hlgth)


def _partition(edges: list[float], spec: QuadratureSpec):
    """The integral over each panel between edges[i] and edges[i + 1], by adaptive GK21.

    The edges run up or, for a tail towards -inf, down.  A generator: each
    round it yields the open intervals as arrays (a, b), low ends first, and
    is sent back ``_gk21``'s estimates and gaps on them; it returns the
    panels' integrals, signed as if every panel ran upwards.  An interval is
    done when its gap is within its share, by width, of max(abs_tol, rel_tol
    * |total|); every other one is bisected.  More than ``max_subdivisions``
    intervals raises QuadratureError.
    """
    edges_arr = np.asarray(edges, dtype=float)
    a, b = edges_arr[:-1], edges_arr[1:]
    panel = np.arange(len(a))
    done = np.zeros(len(a))
    span = edges_arr[-1] - edges_arr[0]
    n_intervals = len(a)
    while True:
        # edges that run down mirror -edges exactly (intervals, width ratios, midpoints, order), so
        # (-inf, hi] gives bit for bit the integral of f(-u) over [-hi, inf)
        kronrod, gap = yield (a, b) if span > 0 else (b, a)
        tol = max(spec.abs_tol, spec.rel_tol * abs(float(done.sum() + kronrod.sum())))
        keep = gap <= tol * ((b - a) / span)  # a NaN gap is not converged
        np.add.at(done, panel[keep], kronrod[keep])
        split = ~keep
        a, b, panel = a[split], b[split], panel[split]
        if not len(a):
            return done
        n_intervals += len(a)
        if n_intervals > spec.max_subdivisions:
            raise QuadratureError(f"did not converge within {spec.max_subdivisions} subintervals")
        mid = 0.5 * (a + b)
        a, b, panel = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([panel, panel])


def _range(lo: float, hi: float, spec: QuadratureSpec):
    """The integral over [lo, hi], either end infinite, as a generator of ``_partition``'s rounds.

    The whole line is (-inf, 0] then [0, inf).  A tail is cut into doubling
    panels from its finite end, [lo, inf) upwards and (-inf, hi] downwards,
    until one's share of the running total falls to ``rel_tol``; the rule
    cannot stop before the fourth panel, so the first four are refined
    together.
    """
    if not lo <= hi:  # so is a NaN limit
        raise ValueError(f"lower must be <= upper, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    if math.isinf(lo) and math.isinf(hi):
        left = yield from _range(lo, 0.0, spec)
        return left + (yield from _range(0.0, hi, spec))
    if not math.isinf(lo) and not math.isinf(hi):
        return float((yield from _partition([lo, hi], spec))[0])
    start, sign = (hi, -1.0) if math.isinf(lo) else (lo, 1.0)
    step = sign * max(1.0, abs(start))
    edges = [start]
    for _ in range(4):
        edges.append(edges[-1] + step)
        step *= 2.0
    pieces = (yield from _partition(edges, spec)).tolist()
    total = 0.0
    for n in range(spec.max_subdivisions):
        if n == len(pieces):
            edges.append(edges[-1] + step)
            step *= 2.0
            pieces.append(float((yield from _partition(edges[-2:], spec))[0]))
        total += pieces[n]
        scale = max(abs(total), spec.abs_tol)
        # panel n is 2**n times the first one's width, so n >= 3 is width > 4 * max(1, |start|)
        if n >= 3 and abs(pieces[n]) <= spec.rel_tol * scale:
            return total
    raise QuadratureError(
        f"did not decay below the truncation threshold within {spec.max_subdivisions} doubling panels"
    )


def integrate(f: Callable, lower, upper, spec: QuadratureSpec | None = None):
    """Adaptive Gauss-Kronrod quadrature of ``f`` over [lower, upper]; either end may be infinite.

    With float limits, ``f`` takes a 1-d array of nodes and returns its
    values there, an array of the same shape (or a scalar, which is
    broadcast), and the integral is a float.  With 1-d arrays of limits (a
    float broadcasts against an array), the result is the array of the
    integrals over every [lower[i], upper[i]], and ``f(nodes, which)`` also
    gets ``which``, the index of each node's range.

    Every range is refined by the same one-range rule, in lockstep: each
    round calls ``f`` once, on the 21 nodes of every open interval of every
    range still open, so a call takes as many rounds as its slowest range
    alone, and each range's integral is bit for bit the one the float call
    on it returns.  A semi-infinite range is cut into doubling panels until
    a panel's share of the running total falls to ``rel_tol``, which ends
    quickly for the exponentially decaying integrands used here; the first
    four panels are refined together, then one panel per step.  The whole
    line refines (-inf, 0] and then [0, inf).  A limit that is NaN, or a
    lower limit above the upper, raises ValueError before ``f`` is called;
    non-convergence raises QuadratureError, naming the range as given (and
    its index, with array limits), rather than returning a silently wrong
    value.
    """
    spec = spec or QuadratureSpec()
    scalar = np.ndim(lower) == 0 and np.ndim(upper) == 0
    if scalar:
        lows, highs, integrand = [float(lower)], [float(upper)], lambda nodes, which: f(nodes)
    else:
        lo, hi = np.broadcast_arrays(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        if lo.ndim != 1:
            raise ValueError(f"limits must be floats or 1-d arrays, got shape {lo.shape}")
        lows, highs, integrand = lo.tolist(), hi.tolist(), f
    integrals = [0.0] * len(lows)
    ranges = {i: _range(lo, hi, spec) for i, (lo, hi) in enumerate(zip(lows, highs))}
    received = dict.fromkeys(ranges)  # each range's estimates and gaps from the last round, None before the first
    while True:
        wanted = {}  # the intervals of every range still open, by range
        for i, rule in list(ranges.items()):
            try:
                wanted[i] = rule.send(received[i])
            except StopIteration as stop:
                integrals[i] = stop.value
                del ranges[i]
            except QuadratureError as err:
                where = f"[{lows[i]}, {highs[i]}]" if scalar else f"range {i}, [{lows[i]}, {highs[i]}],"
                raise QuadratureError(f"quadrature on {where} {err}") from None
        if not wanted:
            return integrals[0] if scalar else np.array(integrals)
        counts = [len(a) for a, _ in wanted.values()]
        kronrod, gap = _gk21(integrand, np.concatenate([a for a, _ in wanted.values()]),
                             np.concatenate([b for _, b in wanted.values()]), np.repeat(list(wanted), counts))
        end = 0
        for i, n in zip(wanted, counts):
            received[i] = kronrod[end:end + n], gap[end:end + n]
            end += n
