"""Correctness checks on priced rows; a row that fails any of them is a failed cell.

The tolerances must hold at every seed: with K_SE = 6 a correct Monte Carlo
estimate falls outside the band with probability about 2e-9 per cell, and the
absolute floor covers cells whose few in-the-money paths make the standard
error itself unreliable (including cells where no path pays and SE is 0).
Over seeds 1..300 of the nig-surface-1e4 workload the largest excess of
|price - closed form| over 6 SE was 2.9e-4, a seventh of ABS_FLOOR.
A cell with SE 0 is not a failure by itself; it is counted separately.
"""
from __future__ import annotations

import math
from collections import defaultdict

K_SE = 6.0
ABS_FLOOR = 2e-3


def classify(rows) -> list[str | None]:
    """Return, per row, why it failed, or None for a correct cell.

    Checks: the status is ``ok``; price and SE are finite; 0 <= price <= S0;
    a price with a closed form lies within K_SE standard errors plus ABS_FLOOR
    of it; rows of the same cell priced by schemes ``bgss`` and ``dg`` agree
    within K_SE combined standard errors plus ABS_FLOOR.
    """
    reasons: list[str | None] = []
    for row in rows:
        reasons.append(_row_failure(row))

    pairs: dict[tuple, dict[str, int]] = defaultdict(dict)
    for i, row in enumerate(rows):
        if reasons[i] is None and row.scheme in ("bgss", "dg"):
            key = (row.model, row.measure, row.payoff, row.s0, row.strike, row.r, row.maturity)
            pairs[key][row.scheme] = i
    for by_scheme in pairs.values():
        if len(by_scheme) != 2:
            continue
        a, b = rows[by_scheme["bgss"]], rows[by_scheme["dg"]]
        gap = abs(a.price - b.price)
        allowed = K_SE * math.hypot(a.std_error, b.std_error) + ABS_FLOOR
        if gap > allowed:
            reason = f"bgss and dg differ by {gap:.6g} > {allowed:.6g}"
            reasons[by_scheme["bgss"]] = reasons[by_scheme["dg"]] = reason
    return reasons


def _row_failure(row) -> str | None:
    if row.status != "ok":
        return f"status {row.status!r}"
    if row.price is None or row.std_error is None:
        return "missing price"
    if not (math.isfinite(row.price) and math.isfinite(row.std_error)):
        return "non-finite price or standard error"
    if not 0.0 <= row.price <= row.s0:
        return f"price {row.price:.6g} outside [0, S0]"
    if row.closed_form is not None:
        gap = abs(row.price - row.closed_form)
        allowed = K_SE * row.std_error + ABS_FLOOR
        if gap > allowed:
            return f"off the closed form {row.closed_form:.6g} by {gap:.6g} > {allowed:.6g}"
    return None
