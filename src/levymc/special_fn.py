"""Numerical kernels: log modified Bessel K, log-gamma and adaptive quadrature.

These wrap the battle-tested SciPy routines behind the small, explicit
contracts the rest of the library relies on (error signalling instead of
silent bad values, controlled tail truncation for semi-infinite integrals).

Only the ``scipy`` package is imported here; its ``integrate`` and ``special``
submodules load on their first use, so importing levymc, or pricing by Monte
Carlo alone, never loads them.
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

    A Python float ``x`` (``np.float64`` included) takes a scalar path with
    the same domain check and the same operations as the array path, so its
    value is bit-identical to that of the 0-d array ``np.asarray(x)``.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if isinstance(x, float):
        if x <= 0:
            raise ValueError("log_bessel_k requires x > 0")
        return float(np.log(scipy.special.kve(order, x)) - x)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("log_bessel_k requires x > 0")
    out = np.log(scipy.special.kve(order, arr)) - arr
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = scipy.special.gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _quad_finite(f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec) -> float:
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


def integrate(f: Callable[[float], float], lower: float, upper: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive quadrature of ``f`` over [lower, upper]; either end may be infinite.

    Semi-infinite tails are handled by doubling panels until the panel
    contribution falls below ``tail_truncation_mass`` relative to the running
    total, which terminates quickly for the exponentially decaying integrands
    used here.  Non-convergence raises QuadratureError rather than returning
    a silently wrong value.
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
