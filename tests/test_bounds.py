"""Bound formulas: certified tails, closed form, velocity, prefactors."""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_optimum import optimize_lambda
from lemma_checks import bounded_term_check
from lrlab.bounds import (
    _tails,
    bounded_reference_bound,
    closed_form_bound,
    observable_bound,
    series_bound,
    series_terms_needed,
)
from lrlab.chains import ChainCountTable, count_chains_dp
from lrlab.dynamics import free_fermion_sweep
from lrlab.lattice import (
    BoundConstants,
    SupportRegion,
    compute_bound_constants,
    noncommuting_adjacency,
    observable_conditions,
    observable_from_sites,
    region,
    region_distance,
)
from lrlab.models import (
    PAULI_X,
    PAULI_Z,
    build_commuting_ising,
    build_dicke_chain,
    build_tfim,
)
from lrlab.operators import NumericalError, spectral_norm


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
        target=SupportRegion(sites=(9,)),
        n_max=n_max,
        counts=dict(counts),
    )


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 20.0), st.integers(0, 40))
def test_tail_remainder_dominates_true_tail(x, n_last):
    # Compare against the exact tail of e^x computed with enough headroom.
    partial = sum(x**n / math.factorial(n) for n in range(n_last + 1))
    true_tail = math.exp(x) - partial
    bound = next(itertools.islice(_tails(x), n_last, None))
    if x / (n_last + 2) < 1.0:
        assert bound >= true_tail - 1e-12 * math.exp(x)
    else:
        assert bound == math.inf


# The series as first written, one tail at a time from scratch, O(N^2) in
# the order N: the one-pass tails must give the same bits.
def _tail_remainder_by_definition(x, n_last):
    if x == 0.0:
        return 0.0
    ratio = x / (n_last + 2)
    if ratio >= 1.0:
        return math.inf
    term = 1.0
    for n in range(1, n_last + 2):
        term *= x / n
    return term / (1.0 - ratio)


def _terms_needed_by_definition(consts, t, tol):
    rate = math.sqrt(2.0 * abs(consts.h0 * consts.h1) * consts.K)
    x_env = consts.gamma * rate * abs(t)
    n = 0
    while consts.M * _tail_remainder_by_definition(x_env, n) >= tol:
        n += 1
        if n > 10_000:
            raise NumericalError("series tail does not certify; tolerance too tight")
    return n


def _series_by_definition(consts, table, t, tol):
    n_needed = _terms_needed_by_definition(consts, t, tol)
    if n_needed > table.n_max:
        raise NumericalError(
            f"chain table covers orders <= {table.n_max}; tolerance {tol} at "
            f"t = {t} needs orders through n = {n_needed}"
        )
    rate = math.sqrt(2.0 * abs(consts.h0 * consts.h1) * consts.K)
    x_env = consts.gamma * rate * abs(t)
    total = 0.0
    term = 1.0
    for n in range(n_needed + 1):
        if n > 0:
            term *= rate * abs(t) / n
        total += term * table.counts[n]
    return consts.M * (total + _tail_remainder_by_definition(x_env, n_needed))


def _outcome(fn, *args):
    # repr: exact, and a NaN (M = 0 times an infinite tail) equals itself.
    try:
        return "value", repr(fn(*args))
    except NumericalError as e:
        return "error", str(e)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 60.0), st.integers(0, 200))
def test_one_pass_tails_match_their_definition(x, n_last):
    got = itertools.islice(_tails(x), n_last + 1)
    want = (_tail_remainder_by_definition(x, n) for n in range(n_last + 1))
    assert list(map(repr, got)) == list(map(repr, want))


def _series_outcome(consts, tables, times, tol):
    # The grid's values by repr, or the error it raised.
    try:
        values = series_bound(consts, tables, times, tol)
    except NumericalError as e:
        return "error", str(e)
    return "value", [list(map(repr, row)) for row in values.tolist()]


def _series_outcome_by_definition(consts, tables, times, tol):
    # One point at a time, t-major as `verify` scores: the first point that
    # raises decides the error.
    rows = []
    for t in times:
        row = [_outcome(_series_by_definition, consts, table, t, tol)
               for table in tables]
        for kind, text in row:
            if kind == "error":
                return kind, text
        rows.append([text for _, text in row])
    return "value", rows


@settings(max_examples=300, deadline=None)
@given(
    k=st.floats(0.0, 4.0),
    gamma=st.floats(0.0, 3.0),
    h0=st.floats(0.1, 2.0),
    h1=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
    m=st.floats(0.0, 10.0),
    times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
    tol=st.floats(1e-14, 1e-2),
    tables=st.lists(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=160),
        min_size=1,
        max_size=3,
    ),
)
@example(k=2.0, gamma=2.0, h0=1.0, h1=1.0, m=2.0, times=[0.5, 1e6, 0.0], tol=1e-9,
         tables=[[1]])
@example(k=2.0, gamma=2.0, h0=1.0, h1=1.0, m=2.0, times=[0.0], tol=1e-9,
         tables=[[3]])
@example(k=2.0, gamma=2.0, h0=1.0, h1=1.0, m=2.0, times=[0.0, 0.3, -1.1, 0.0],
         tol=1e-9, tables=[list(range(40)), [0] * 30 + [5] * 10, [7] * 60])
def test_one_pass_series_matches_its_definition(
    k, gamma, h0, h1, m, times, tol, tables
):
    consts = _consts(K=k, gamma=gamma, h0=h0, h1=h1, M=m)
    tables = [_table(dict(enumerate(counts))) for counts in tables]
    for t in times:
        assert _outcome(series_terms_needed, consts, t, tol) == _outcome(
            _terms_needed_by_definition, consts, t, tol
        )
    assert _series_outcome(consts, tables, times, tol) == (
        _series_outcome_by_definition(consts, tables, times, tol)
    )


def test_series_at_time_zero_is_m_times_c0():
    consts = _consts()
    one, zero = _table({0: 1, 1: 0, 2: 0}), _table({0: 0, 1: 0, 2: 0})
    values = series_bound(consts, [one, zero], [0.0], tol=1e-9)
    assert values.shape == (1, 2)
    assert values[0, 0] == pytest.approx(consts.M)
    assert values[0, 1] == 0.0


def test_series_needs_enough_orders():
    consts = _consts()
    short = _table({n: 0 for n in range(4)})
    with pytest.raises(ValueError, match=r"at t = 3.0 needs orders through n = \d+"):
        series_bound(consts, [short], [0.0, 3.0], tol=1e-9)


def test_uncertifiable_series_is_a_numerical_error():
    consts = _consts()
    with pytest.raises(NumericalError, match="does not certify"):
        series_terms_needed(consts, 1e6, 1e-9)
    with pytest.raises(NumericalError, match="does not certify"):
        series_bound(consts, [_table({0: 1})], [0.0, 1e6], tol=1e-9)


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
    times = (0.1, 0.5, 1.0, 2.0)
    series = series_bound(consts, [table], times, tol=1e-12)[:, 0].tolist()
    for t, s in zip(times, series):
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
            abs(consts.h0 * consts.h1) * consts.K
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


_finite = st.floats(0.01, 100.0)


@given(
    k=_finite, gamma=_finite, m=_finite, h0=st.floats(-10.0, 10.0),
    h1=st.floats(-10.0, 10.0), xi=st.floats(0.1, 1.0), lam=st.floats(0.01, 5.0),
    a=_finite, b=_finite, n=st.integers(1, 50),
)
@settings(max_examples=100, deadline=None)
def test_bounds_at_the_origin_are_their_prefactors_exactly(
    k, gamma, m, h0, h1, xi, lam, a, b, n
):
    # At t = 0 and d = 0 the light-cone envelope is exp(0) = 1, so both
    # closed forms return their prefactors bit for bit; the truncation study
    # reads its reference prefactor off this identity.
    consts = _consts(K=k, gamma=gamma, Mtildetilde=m, h0=h0, h1=h1, xi=xi, lam=lam)
    assert closed_form_bound(consts, 0.0, 0) == m
    assert bounded_reference_bound(consts, a, b, n, 0.0, 0) == a * b * n * m


def test_bounded_term_check_tfim_saturates():
    chk = bounded_term_check(build_tfim(5))
    assert chk["Ktilde"] == pytest.approx(1.0, abs=1e-12)
    assert chk["K"] == pytest.approx(2.0 * chk["Ktilde"] ** 2, rel=1e-12)
    assert chk["Q"] == pytest.approx(4.0 * chk["Ktilde"] ** 3, rel=1e-12)
    assert chk["ok"]


def test_bounded_term_check_is_in_bare_units():
    # Ktilde, K and Q are norms of the bare payloads: the couplings, their
    # size and their sign, enter none of them.
    for model in (build_tfim(5, j=3.0, g=3.0), build_tfim(5, j=-3.0)):
        chk = bounded_term_check(model)
        assert chk["Ktilde"] == pytest.approx(1.0, abs=1e-12)
        assert chk["K"] == pytest.approx(2.0, rel=1e-12)
        assert chk["Q"] == pytest.approx(4.0, rel=1e-12)
        assert chk["ok"]


def _scaled(model, s):
    """The model of s * H: both couplings times s, the payloads untouched."""
    return dataclasses.replace(model, h0=s * model.h0, h1=s * model.h1)


def _every_bound(model, projected, op, oq, times):
    """(constants, {method: [bound at each t]}) for one observable pair, the
    series from the first term that O_P sits on."""
    adj = noncommuting_adjacency(model, projected=projected)
    consts = compute_bound_constants(model, adj)
    d = region_distance(model.graph, op.support, oq.support)
    start = next(
        gid
        for gid, term in enumerate(model.terms)
        if set(op.support.sites) <= set(term.support.sites)
    )
    n_max = series_terms_needed(consts, max(times), 1e-9)
    table = count_chains_dp(adj, start, oq.support, n_max)
    cond = observable_conditions(model, op, oq, consts, adj)
    op_norm = spectral_norm(op.payload, structure="hermitian")
    oq_norm = spectral_norm(oq.payload, structure="hermitian")
    methods = {
        "closed_form": lambda t: closed_form_bound(consts, t, d),
        "observable": lambda t: observable_bound(consts, cond, t),
        "bounded_reference": lambda t: bounded_reference_bound(
            consts, op_norm, oq_norm, cond.n_P, t, d
        ),
    }
    values = {name: [fn(t) for t in times] for name, fn in methods.items()}
    series = series_bound(consts, [table], times, 1e-9)
    values["series_exact_cn"] = series[:, 0].tolist()
    return consts, values


@settings(max_examples=50, deadline=None)
@given(
    case=st.sampled_from(["tfim", "dicke", "dicke_projected"]),
    j=st.floats(0.3, 2.0),
    g=st.floats(0.3, 2.0),
    size=st.floats(0.25, 4.0),
    negative=st.booleans(),
)
def test_every_bound_is_covariant_under_rescaling_the_couplings(
    case, j, g, size, negative
):
    # H -> sH runs the same dynamics at t/s; the couplings enter the bounds
    # only through |h0 h1|, one per order of t, and the unit-free ratio r.
    # The sign of s reverses time, which no bound and no norm sees.
    s = -size if negative else size
    if case == "tfim":
        model = build_tfim(8, j=j, g=g)
        op = observable_from_sites(model, (0,), PAULI_Z, label="Z@0")
        oq = observable_from_sites(model, (5,), PAULI_Z, label="Z@5")
        projected = False
    else:
        # Projected, Q = 0: condition (iii) then holds only for an O_Q that
        # commutes with every pair bracket, such as Z@5.
        model = build_dicke_chain(3, truncation=3)
        projected = case == "dicke_projected"
        op = observable_from_sites(model, (1,), PAULI_X)
        oq = observable_from_sites(model, (5,), PAULI_Z if projected else PAULI_X)
    times = [0.0, 0.3, 0.9, 1.5]
    base, base_values = _every_bound(model, projected, op, oq, times)
    scaled, scaled_values = _every_bound(
        _scaled(model, s), projected, op, oq, [t / size for t in times]
    )
    for key in ("K", "Q", "M", "Mtildetilde"):
        assert getattr(scaled, key) == pytest.approx(getattr(base, key), rel=1e-12)
    assert scaled.v_lr == pytest.approx(size * base.v_lr, rel=1e-12)
    for name, values in base_values.items():
        assert scaled_values[name] == pytest.approx(values, rel=1e-12), name
    if case == "tfim":
        sweep = free_fermion_sweep(model, op, [oq], times)
        scaled_sweep = free_fermion_sweep(
            _scaled(model, s), op, [oq], [t / size for t in times]
        )
        assert scaled_sweep.points.tolist() == pytest.approx(
            sweep.points.tolist(), abs=1e-12
        )
