"""Bound formulas built on the extracted constants and chain counts.

The series route evaluates M * sum_n (sqrt(2 h0 h1 K) t)^n / n! * c_n with the
exact chain coefficients, plus a certified tail: beyond the table the
coefficients are dominated by (sqrt(2) nu)^n, so the tail is a Taylor
remainder of e^{x} at x = sqrt(2) nu sqrt(2 h0 h1 K) t.  The closed form
sums that envelope in closed form and carries the familiar
exp(v (lambda/xi) ... t - lambda d) shape; it dominates the series term by
term, and minimizing over lambda recovers the velocity 2 (gamma/xi) e
sqrt(h0 h1 K).

Every formula reads lambda from `BoundConstants.lam`, which owns it; a bound
at another lambda comes from constants built with that lambda.  A series that
cannot be certified raises `NumericalError`.
"""

from __future__ import annotations

import math

from .chains import ChainCountTable
from .lattice import BoundConstants, ObservableConditions
from .operators import NumericalError


def _series_rate(consts: BoundConstants) -> float:
    return math.sqrt(2.0 * consts.h0 * consts.h1 * consts.K)


def _tail_remainder(x: float, n_last: int) -> float:
    """Upper bound on sum_{n > n_last} x^n / n! via the geometric majorant."""
    if x == 0.0:
        return 0.0
    ratio = x / (n_last + 2)
    if ratio >= 1.0:
        return math.inf
    term = 1.0
    for n in range(1, n_last + 2):
        term *= x / n
    return term / (1.0 - ratio)


def series_terms_needed(consts: BoundConstants, t: float, tol: float) -> int:
    """Smallest order N whose certified tail drops below `tol`."""
    x_env = consts.gamma * _series_rate(consts) * abs(t)
    n = 0
    while consts.M * _tail_remainder(x_env, n) >= tol:
        n += 1
        if n > 10_000:
            raise NumericalError("series tail does not certify; tolerance too tight")
    return n


def series_bound(
    consts: BoundConstants,
    table: ChainCountTable,
    t: float,
    tol: float = 1e-9,
) -> float:
    """Exact-coefficient partial sum plus the certified envelope tail.

    Raises if the table is too short for the requested tolerance at this t,
    naming the order that would be needed.
    """
    n_needed = series_terms_needed(consts, t, tol)
    if n_needed > table.n_max:
        raise NumericalError(
            f"chain table covers orders <= {table.n_max}; tolerance {tol} at "
            f"t = {t} needs orders through n = {n_needed}"
        )
    rate = _series_rate(consts)
    x_env = consts.gamma * rate * abs(t)
    total = 0.0
    term = 1.0  # rate^n t^n / n!
    for n in range(n_needed + 1):
        if n > 0:
            term *= rate * abs(t) / n
        total += term * table.counts[n]
    return consts.M * (total + _tail_remainder(x_env, n_needed))


def closed_form_bound(consts: BoundConstants, t: float, d: int) -> float:
    """Mtildetilde * exp(2 sqrt(h0 h1 K) gamma e^{lam/xi} t - lam d)."""
    lam = consts.lam
    rate = 2.0 * math.sqrt(consts.h0 * consts.h1 * consts.K) * consts.gamma
    exponent = rate * math.exp(lam / consts.xi) * abs(t) - lam * d
    return consts.Mtildetilde * math.exp(exponent)


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
    lam = consts.lam
    rate = 2.0 * math.sqrt(consts.h0 * consts.h1) * consts.gamma
    exponent = rate * math.exp(lam / consts.xi) * abs(t) - lam * d
    return op_norm * oq_norm * n_p * consts.Mtildetilde * math.exp(exponent)


def bounded_term_check(model) -> dict:
    """For models with bounded terms, Ktilde = max_a h_a max_i ||Phi_a^i||
    controls the commutator constants: K <= 2 Ktilde^2 and Q <= 4 Ktilde^3.
    Returns the three constants and whether both inequalities hold."""
    from .lattice import compute_bound_constants, noncommuting_adjacency
    from .operators import spectral_norm

    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    ktilde = max(
        model.coupling(t.family) * spectral_norm(t.payload, structure="hermitian")
        for t in model.terms
    )
    slack = 1e-9 * max(1.0, ktilde) ** 3
    ok = (consts.K <= 2.0 * ktilde**2 + slack) and (
        consts.Q <= 4.0 * ktilde**3 + slack
    )
    return {"Ktilde": ktilde, "K": consts.K, "Q": consts.Q, "ok": ok}

