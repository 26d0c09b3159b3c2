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


def _integrate_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, group: np.ndarray,
    spec: QuadratureSpec,
) -> np.ndarray:
    """The integral of ``f`` over each panel [a[i], b[i]], by adaptive GK21, every group in one partition.

    ``group`` numbers the panels' groups 0, 1, ... in panel order, the
    panels of a group adjacent and in order.  Each round calls ``f`` once,
    on the 21 nodes of every interval still open, with each node's group.
    An interval is done when its gap is within its share, by width of its
    group's span, of max(abs_tol, rel_tol * |total|), the total its group's
    alone; every other one is bisected.  A group's intervals keep the order
    they would have if it were refined alone, so its sums, and its
    integrals, are bit for bit that refinement's.  More than
    ``max_subdivisions`` intervals in one group raises QuadratureError.
    """
    n_groups = int(group[-1]) + 1
    first = np.searchsorted(group, np.arange(n_groups + 1))  # group g is panels first[g]:first[g + 1]
    starts, ends = a[first[:-1]], b[first[1:] - 1]
    span = (ends - starts)[group]
    n_intervals = np.diff(first)
    first = first.tolist()
    panel = np.arange(len(a))
    done = np.zeros(len(a))
    while True:
        kronrod, gap = _gk21(f, a, b, group)
        # a group's total is np.sum of its panels' done parts plus np.sum of its open estimates,
        # the sums it would take alone
        tol = np.empty(len(a))
        cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(a)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            g = int(group[lo])
            total = done[first[g]:first[g + 1]].sum() + kronrod[lo:hi].sum()
            tol[lo:hi] = max(spec.abs_tol, spec.rel_tol * abs(float(total)))
        split = ~(gap <= tol * ((b - a) / span))  # a NaN gap is not converged
        np.add.at(done, panel[~split], kronrod[~split])
        if not split.any():
            return done
        n_intervals += np.bincount(group[split], minlength=n_groups)
        if n_intervals.max() > spec.max_subdivisions:
            g = int(np.argmax(n_intervals > spec.max_subdivisions))
            raise QuadratureError(
                f"quadrature on [{starts[g]}, {ends[g]}] did not converge within "
                f"{spec.max_subdivisions} subintervals"
            )
        a, b, panel, group, span = a[split], b[split], panel[split], group[split], span[split]
        mid = 0.5 * (a + b)
        # each group's left halves, then its right halves
        order = np.argsort(np.concatenate([group, group]), kind="stable")
        a, b = np.concatenate([a, mid])[order], np.concatenate([mid, b])[order]
        panel, group = np.concatenate([panel, panel])[order], np.concatenate([group, group])[order]
        span = np.concatenate([span, span])[order]


@dataclass
class _Tail:
    """A semi-infinite piece from ``start``: its doubling panels so far, their sum, and where the next one starts."""

    start: float
    edge: float
    width: float
    panels: int = 0
    total: float = 0.0

    def advance(self) -> float:
        """The end of the next panel, which starts at ``edge``; the panel after it is twice as wide."""
        self.edge += self.width
        self.width *= 2.0
        return self.edge

    def add(self, values: list[float], spec: QuadratureSpec) -> bool:
        """Sum the next panels in order; True once one falls below the truncation threshold."""
        for value in values:
            if self.panels == spec.max_subdivisions:
                break
            self.panels += 1
            self.total += value
            scale = max(abs(self.total), spec.abs_tol)
            # panel n is 2**n times the first one's width, so n >= 3 is width > 4 * max(1, |start|)
            if self.panels > 3 and abs(value) <= spec.tail_truncation_mass * scale:
                return True
        return False


def _pieces(lo: float, hi: float) -> list[tuple[float, float, float]]:
    """[lo, hi] as (sign, start, end) pieces, each the integral over [start, end] of f(sign * node).

    An infinite lower limit is reflected: (-inf, hi] is [-hi, inf) at -node.
    The whole line is (-inf, 0] then [0, inf); a zero-width range has no piece.
    """
    if lo > hi:
        raise ValueError("lower must be <= upper")
    if math.isinf(lo) and math.isinf(hi):
        return _pieces(lo, 0.0) + _pieces(0.0, hi)
    if math.isinf(lo):
        return [(-1.0, -hi, math.inf)]
    return [(1.0, lo, hi)] if hi > lo else []


def integrate(f: Callable, lower, upper, spec: QuadratureSpec | None = None):
    """Adaptive Gauss-Kronrod quadrature of ``f`` over [lower, upper]; either end may be infinite.

    With float limits, ``f`` takes a 1-d array of nodes and returns its
    values there, an array of the same shape (or a scalar, which is
    broadcast), and the integral is a float.  With 1-d arrays of limits (a
    float broadcasts against an array), every range [lower[i], upper[i]] is
    refined in one partition and the result is the array of their
    integrals: ``f(nodes, which)`` then also gets ``which``, the index of
    each node's range, and each round calls it once, on the nodes of every
    range still open.  Each range keeps its own tolerance, stopping rule
    and order of summation, so its integral is bit for bit the one the
    float call on that range returns.

    A finite range is refined in rounds, one call of ``f`` per round on
    every open interval.  Semi-infinite tails are handled by doubling panels
    until the panel contribution falls below ``tail_truncation_mass``
    relative to the running total, which terminates quickly for the
    exponentially decaying integrands used here; the rule cannot stop
    before the fourth panel, so the first four panels of every tail are
    refined together, with the finite ranges, and each later doubling step
    refines together the next panel of every tail still open.
    Non-convergence raises QuadratureError rather than returning a silently
    wrong value.
    """
    spec = spec or QuadratureSpec()
    if np.ndim(lower) == 0 and np.ndim(upper) == 0:
        return _integrate_ranges(lambda nodes, which: f(nodes), [float(lower)], [float(upper)], spec)[0]
    lo, hi = np.broadcast_arrays(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
    if lo.ndim != 1:
        raise ValueError(f"limits must be floats or 1-d arrays, got shape {lo.shape}")
    return np.array(_integrate_ranges(f, lo.tolist(), hi.tolist(), spec))


def _integrate_ranges(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lower: list[float], upper: list[float],
                      spec: QuadratureSpec) -> list[float]:
    """The integral over each [lower[i], upper[i]], with ``f(nodes, which)`` as ``integrate`` calls it."""
    owner, sign, tails = [], [], {}
    panel_piece, panel_lo, panel_hi = [], [], []  # the panels of the next step, in piece order
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        for piece_sign, piece_start, piece_end in _pieces(lo, hi):
            j = len(owner)
            owner.append(i)
            sign.append(piece_sign)
            if math.isinf(piece_end):
                tail = tails[j] = _Tail(piece_start, piece_start, max(1.0, abs(piece_start)))
                for _ in range(4):
                    panel_piece.append(j)
                    panel_lo.append(tail.edge)
                    panel_hi.append(tail.advance())
            else:
                panel_piece.append(j)
                panel_lo.append(piece_start)
                panel_hi.append(piece_end)
    owner_arr, sign_arr = np.array(owner, dtype=int), np.array(sign)
    pieces = [0.0] * len(owner)
    # each step refines one partition: first every finite piece's one panel and the first four
    # doubling panels of every tail, then the next panel of every tail still open
    while panel_piece:
        members, group = [], []  # each group's piece; each panel's group
        for j in panel_piece:
            if not members or members[-1] != j:
                members.append(j)
            group.append(len(members) - 1)
        member_sign, member_owner = sign_arr[members], owner_arr[members]
        done = _integrate_panels(
            lambda nodes, g: f(nodes * member_sign[g], member_owner[g]),
            np.array(panel_lo), np.array(panel_hi), np.array(group), spec,
        ).tolist()
        values: dict[int, list[float]] = {}
        for j, value in zip(panel_piece, done):
            values.setdefault(j, []).append(value)
        panel_piece, panel_lo, panel_hi = [], [], []
        for j, piece_values in values.items():
            tail = tails.get(j)
            if tail is None:
                pieces[j] = piece_values[0]
            elif tail.add(piece_values, spec):
                pieces[j] = tail.total
            elif tail.panels == spec.max_subdivisions:
                raise QuadratureError(
                    f"semi-infinite tail from {tail.start} did not decay below the truncation "
                    f"threshold within {spec.max_subdivisions} doubling panels"
                )
            else:
                panel_piece.append(j)
                panel_lo.append(tail.edge)
                panel_hi.append(tail.advance())
    integrals = [0.0] * len(lower)
    for i, value in zip(owner, pieces):
        integrals[i] += value
    return integrals
