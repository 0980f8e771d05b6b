"""Bound formulas built on the extracted constants and chain counts.

The series route evaluates M * sum_n (sqrt(2 |h0 h1| K) t)^n / n! * c_n with
the exact chain coefficients, plus a certified tail: beyond the table the
coefficients are dominated by (sqrt(2) nu)^n, so the tail is a Taylor
remainder of e^{x} at x = sqrt(2) nu sqrt(2 |h0 h1| K) t.  The closed form
sums that envelope in closed form and carries the familiar
exp(v (lambda/xi) ... t - lambda d) shape, and minimizing over lambda
recovers the velocity 2 (gamma/xi) e sqrt(|h0 h1| K).  It dominates the
series coefficient by coefficient, not value by value: the certified tail
does not see d, so at far d and small t it can exceed the closed form (TFIM,
L = 64, t <= 6: 25 of 3,660 rows, t = 0.1-0.4, d = 52-62, series 1e-10 to
9e-10).  ROADMAP.md item 2 makes the tail reach-aware.

K and Q are bare commutator norms (see `lattice.compute_bound_constants`):
the couplings enter every rate here once, as |h0 h1|, one coupling per order
of t, so bound(sH, t/s) = bound(H, t).

Every formula reads lambda from `BoundConstants.lam`, which owns it; a bound
at another lambda comes from constants built with that lambda.  A series that
cannot be certified raises `NumericalError`.
"""

from __future__ import annotations

import itertools
import math

from .chains import ChainCountTable
from .lattice import BoundConstants, ObservableConditions
from .operators import NumericalError


def _series_rate(consts: BoundConstants) -> float:
    return math.sqrt(2.0 * abs(consts.h0 * consts.h1) * consts.K)


def _tails(x: float):
    """R_0, R_1, ...: R_n bounds sum_{k > n} x^k / k! for x >= 0 by the
    geometric majorant x^(n+1) / (n+1)! / (1 - x / (n+2)), or is infinite."""
    term = 1.0  # x^(n+1) / (n+1)!, one factor x / k at a time
    for n in itertools.count():
        term *= x / (n + 1)
        ratio = x / (n + 2)
        yield math.inf if ratio >= 1.0 else term / (1.0 - ratio)


def _certified_order(consts: BoundConstants, t: float, tol: float):
    """(N, R_N): the smallest order N whose certified tail M R_N drops below
    `tol`, and R_N itself."""
    tails = _tails(consts.gamma * _series_rate(consts) * abs(t))
    n, tail = 0, next(tails)
    while consts.M * tail >= tol:
        n, tail = n + 1, next(tails)
        if n > 10_000:
            raise NumericalError("series tail does not certify; tolerance too tight")
    return n, tail


def series_terms_needed(consts: BoundConstants, t: float, tol: float) -> int:
    """Smallest order N whose certified tail drops below `tol`."""
    return _certified_order(consts, t, tol)[0]


def series_bound(
    consts: BoundConstants,
    table: ChainCountTable,
    t: float,
    tol: float,
) -> float:
    """Exact-coefficient partial sum plus the certified envelope tail.

    Raises if the table is too short for the requested tolerance at this t,
    naming the order that would be needed.
    """
    n_needed, tail = _certified_order(consts, t, tol)
    if n_needed > table.n_max:
        raise NumericalError(
            f"chain table covers orders <= {table.n_max}; tolerance {tol} at "
            f"t = {t} needs orders through n = {n_needed}"
        )
    rate = _series_rate(consts)
    total = 0.0
    term = 1.0  # rate^n t^n / n!
    for n in range(n_needed + 1):
        if n > 0:
            term *= rate * abs(t) / n
        total += term * table.counts[n]
    return consts.M * (total + tail)


def _light_cone(consts: BoundConstants, k: float, t: float, d: int) -> float:
    """exp(2 sqrt(|h0 h1| k) gamma e^{lam/xi} t - lam d), the envelope of both
    closed forms: k = K for the commutator route, 1 for the norm-based one."""
    lam = consts.lam
    rate = 2.0 * math.sqrt(abs(consts.h0 * consts.h1) * k) * consts.gamma
    return math.exp(rate * math.exp(lam / consts.xi) * abs(t) - lam * d)


def closed_form_bound(consts: BoundConstants, t: float, d: int) -> float:
    """Mtildetilde * exp(2 sqrt(|h0 h1| K) gamma e^{lam/xi} t - lam d)."""
    return consts.Mtildetilde * _light_cone(consts, consts.K, t, d)


def observable_bound(
    consts: BoundConstants,
    conditions: ObservableConditions,
    t: float,
) -> float:
    """F_P F_Q n_P (n_P + 1) times the closed form at the pair's separation."""
    pref = conditions.F_P * conditions.F_Q * conditions.n_P * (conditions.n_P + 1)
    return pref * closed_form_bound(consts, t, conditions.d)


def bounded_reference_bound(
    consts: BoundConstants,
    op_norm: float,
    oq_norm: float,
    n_p: int,
    t: float,
    d: int,
) -> float:
    """Norm-based reference bound for bounded terms; no K under the square root.

    The prefactor carries ||O_P|| ||O_Q||, so on truncated bosonic models it
    grows with the truncation while the commutator-based route stays put.
    """
    envelope = _light_cone(consts, 1.0, t, d)
    return op_norm * oq_norm * n_p * consts.Mtildetilde * envelope
