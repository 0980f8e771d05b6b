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

`series_bound` takes a time grid and one chain table per O_Q and returns the
(T, n_Q) grid of values: the certified order and its tail depend on t alone,
so each is found once per time.  The closed forms stay one value per call,
by `math.exp`, whose OverflowError is how an overflowing bound fails (exit 3
in the CLI) and whose last bit `np.exp` does not always reproduce.

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

import numpy as np

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
    for n, tail in enumerate(_tails(consts.gamma * _series_rate(consts) * abs(t))):
        # `not >=`: a NaN product (M = 0 times an infinite R_n) stops here too.
        if not consts.M * tail >= tol:
            return n, tail
        if n == 10_000:
            raise NumericalError("series tail does not certify; tolerance too tight")


# A one-line wrapper kept because perfbench/tracer.py times it as its own span.
def series_terms_needed(consts: BoundConstants, t: float, tol: float) -> int:
    """Smallest order N whose certified tail drops below `tol`."""
    return _certified_order(consts, t, tol)[0]


def series_bound(
    consts: BoundConstants,
    tables,
    times,
    tol: float,
) -> np.ndarray:
    """values[k, j]: the exact-coefficient partial sum of tables[j] at
    times[k] plus the certified envelope tail.

    The certified order N and its tail R_N depend on t alone, so each is
    found once per time; the partial sums of every table then grow over the
    (T,) column one order at a time, each value by the operations of the
    one-point sum, in its order.  Raises if a table is too short for the
    requested tolerance at a t, naming the order that would be needed.
    """
    orders, tails = np.zeros(len(times), dtype=int), np.zeros(len(times))
    for k, t in enumerate(times):
        orders[k], tails[k] = _certified_order(consts, t, tol)
        for table in tables:
            if orders[k] > table.n_max:
                raise NumericalError(
                    f"chain table covers orders <= {table.n_max}; tolerance "
                    f"{tol} at t = {t} needs orders through n = {orders[k]}"
                )
    x = _series_rate(consts) * np.abs(np.array(times, dtype=float))
    term = np.ones(len(times))  # rate^n t^n / n!
    total = np.zeros((len(times), len(tables)))
    # Python floats overflow to inf, and make NaN of inf * 0, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(orders.max(initial=-1) + 1):
            if n > 0:
                term *= x / n
            live = orders >= n
            # Each table's c_n, as the float that `term * c_n` takes.
            c_n = np.array([float(table.counts[n]) for table in tables])
            total[live] += term[live, None] * c_n
        return consts.M * (total + tails[:, None])


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
