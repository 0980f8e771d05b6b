"""Bound formulas: certified tails, closed form, velocity, prefactors."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_optimum import optimize_lambda
from lrlab.bounds import (
    _tail_remainder,
    bounded_reference_bound,
    bounded_term_check,
    closed_form_bound,
    observable_bound,
    series_bound,
    series_terms_needed,
)
from lrlab.chains import ChainCountTable, count_chains_dp
from lrlab.lattice import (
    BoundConstants,
    SupportRegion,
    compute_bound_constants,
    noncommuting_adjacency,
    observable_conditions,
    observable_from_sites,
    region,
)
from lrlab.models import PAULI_Z, build_commuting_ising, build_tfim
from lrlab.operators import NumericalError


def _consts(**overrides):
    base = dict(
        K=2.0,
        Q=4.0,
        nu=2,
        R=2,
        gamma=2.0 * math.sqrt(2.0),
        xi=0.5,
        lam=0.5,
        M=2.0,
        Mtilde=1.0,
        Mtildetilde=2.0,
        h0=1.0,
        h1=1.0,
        v_lr=16.0 * math.e,
        zero_velocity=False,
    )
    base.update(overrides)
    return BoundConstants(**base)


def _table(counts, start=0, n_max=None):
    n_max = max(counts) if n_max is None else n_max
    return ChainCountTable(
        start=start,
        target=SupportRegion(sites=(9,), diameter=0),
        n_max=n_max,
        counts=dict(counts),
        collapsed=dict(counts),
    )


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 20.0), st.integers(0, 40))
def test_tail_remainder_dominates_true_tail(x, n_last):
    # Compare against the exact tail of e^x computed with enough headroom.
    partial = sum(x**n / math.factorial(n) for n in range(n_last + 1))
    true_tail = math.exp(x) - partial
    bound = _tail_remainder(x, n_last)
    if x / (n_last + 2) < 1.0:
        assert bound >= true_tail - 1e-12 * math.exp(x)
    else:
        assert bound == math.inf


def test_series_at_time_zero_is_m_times_c0():
    consts = _consts()
    assert series_bound(consts, _table({0: 1, 1: 0, 2: 0}), 0.0) == pytest.approx(
        consts.M
    )
    assert series_bound(consts, _table({0: 0, 1: 0, 2: 0}), 0.0) == 0.0


def test_series_needs_enough_orders():
    consts = _consts()
    short = _table({n: 0 for n in range(4)})
    with pytest.raises(ValueError, match=r"needs orders through n = \d+"):
        series_bound(consts, short, 3.0, tol=1e-9)


def test_uncertifiable_series_is_a_numerical_error():
    consts = _consts()
    with pytest.raises(NumericalError, match="does not certify"):
        series_terms_needed(consts, 1e6, 1e-9)
    with pytest.raises(NumericalError, match="does not certify"):
        series_bound(consts, _table({0: 1}), 1e6, tol=1e-9)


def test_series_terms_needed_grows_with_time():
    consts = _consts()
    n1 = series_terms_needed(consts, 0.5, 1e-9)
    n2 = series_terms_needed(consts, 3.0, 1e-9)
    assert n1 < n2
    assert series_terms_needed(consts, 0.0, 1e-9) == 0


def test_series_dominated_by_closed_form_tfim():
    model = build_tfim(8)
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    d = 4
    table = count_chains_dp(adj, len(model.family0), region(model.graph, (d,)), 60)
    for t in (0.1, 0.5, 1.0, 2.0):
        s = series_bound(consts, table, t, tol=1e-12)
        c = closed_form_bound(consts, t, d)
        assert s <= c * (1.0 + 1e-12)


def test_closed_form_commuting_model_is_time_independent():
    model = build_commuting_ising(6)
    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    vals = {closed_form_bound(consts, t, 4) for t in (0.0, 1.0, 7.5)}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(math.exp(-consts.lam * 4), rel=1e-12)


def test_optimize_lambda_recovers_xi():
    for gamma, xi in ((0.3, 0.25), (5.0, 2.0), (1.0, 1.0 / 3.0)):
        consts = _consts(gamma=gamma, xi=xi, lam=xi)
        lam_star, v_min = optimize_lambda(consts)
        assert lam_star == pytest.approx(xi, rel=1e-6)
        # _consts() does not recompute v_lr from gamma and xi.
        v_lr = 2.0 * (gamma / xi) * math.e * math.sqrt(
            consts.h0 * consts.h1 * consts.K
        )
        assert v_min == pytest.approx(v_lr, rel=1e-6)


def test_observable_bound_is_prefactor_times_closed_form():
    model = build_tfim(8)
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    op = observable_from_sites(model, (0,), PAULI_Z)
    oq = observable_from_sites(model, (6,), PAULI_Z)
    cond = observable_conditions(model, op, oq, consts, adj)
    for t in (0.0, 0.7):
        expected = (
            cond.F_P
            * cond.F_Q
            * cond.n_P
            * (cond.n_P + 1)
            * closed_form_bound(consts, t, cond.d)
        )
        assert observable_bound(consts, cond, t) == pytest.approx(expected, rel=1e-14)


def test_bounded_reference_rate_has_no_k():
    # Slope of log(bound) in t must be 2 sqrt(h0 h1) gamma e^{lam/xi},
    # independent of K.
    consts = _consts(K=9.0)
    t1, t2 = 0.5, 1.5
    b1 = bounded_reference_bound(consts, 1.0, 1.0, 1, t1, 5)
    b2 = bounded_reference_bound(consts, 1.0, 1.0, 1, t2, 5)
    slope = (math.log(b2) - math.log(b1)) / (t2 - t1)
    expected = 2.0 * math.sqrt(consts.h0 * consts.h1) * consts.gamma * math.exp(
        consts.lam / consts.xi
    )
    assert slope == pytest.approx(expected, rel=1e-12)


def test_bounded_reference_prefactor_is_linear_in_norms():
    consts = _consts()
    b = bounded_reference_bound(consts, 3.0, 2.0, 4, 1.0, 6)
    unit = bounded_reference_bound(consts, 1.0, 1.0, 1, 1.0, 6)
    assert b == pytest.approx(3.0 * 2.0 * 4 * unit, rel=1e-12)


def test_bounded_term_check_tfim_saturates():
    chk = bounded_term_check(build_tfim(5))
    assert chk["Ktilde"] == pytest.approx(1.0, abs=1e-12)
    assert chk["K"] == pytest.approx(2.0 * chk["Ktilde"] ** 2, rel=1e-12)
    assert chk["Q"] == pytest.approx(4.0 * chk["Ktilde"] ** 3, rel=1e-12)
    assert chk["ok"]


def test_bounded_term_check_scales_with_couplings():
    chk = bounded_term_check(build_tfim(5, j=3.0, g=3.0))
    assert chk["Ktilde"] == pytest.approx(3.0, abs=1e-12)
    assert chk["K"] == pytest.approx(18.0, rel=1e-12)
    assert chk["Q"] == pytest.approx(108.0, rel=1e-12)
    assert chk["ok"]
