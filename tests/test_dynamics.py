"""Exact dynamics: sweeps, velocity fits, verification, derivative identity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemma_checks import derivative_identity_check
from lrlab.dynamics import (
    SimulationSweep,
    SweepPoint,
    commutator_norm_sweep,
    exact_sweep,
    extract_velocity,
    free_fermion_sweep,
    verify_bound,
)
from lrlab.lattice import (
    LocalTerm,
    TwoFamilyHamiltonian,
    build_graph,
    compute_bound_constants,
    noncommuting_adjacency,
    observable_from_sites,
    occupation_projector_diagonal,
    region,
)
from lrlab.models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    build_commuting_ising,
    build_dicke_chain,
    build_tfim,
    full_hamiltonian,
    mode_quadratures,
)
from lrlab.operators import (
    commutator,
    decompose,
    embed_dense,
    embed_diagonal,
    heisenberg_evolve,
    spectral_norm,
)


@pytest.fixture(scope="module")
def tfim5_sweep():
    model = build_tfim(5)
    op = observable_from_sites(model, (0,), PAULI_Z, "Z@0")
    oqs = [
        observable_from_sites(model, (s,), PAULI_Z, f"Z@{s}") for s in (2, 3, 4)
    ]
    times = [0.1 * k for k in range(11)]
    return model, op, oqs, commutator_norm_sweep(model, op, oqs, times)


def test_sweep_matches_direct_computation(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    dims = list(model.site_dims)
    dec = decompose(full_hamiltonian(model))
    p_full = embed_dense(op.payload, op.support.sites, dims)
    for d, t in ((2, 0.5), (4, 1.0)):
        oq = next(o for o in oqs if o.support.sites == (d,))
        q_full = embed_dense(oq.payload, oq.support.sites, dims)
        (a_t,) = heisenberg_evolve(p_full, dec, (t,))
        expected = spectral_norm(commutator(a_t, q_full))
        got = next(p.value for p in sweep.points if p.d == d and p.t == t)
        assert got == pytest.approx(expected, abs=1e-11)


_DICKE = build_dicke_chain(2, truncation=3)  # site dims (3, 2, 3, 2)


# The number operator on mode 1 is diagonal with three distinct values, so
# like the Pauli X and the quadrature it takes the sweep's sparse route.
@pytest.mark.parametrize(
    "model,op_sites,op_payload,oq_sites,oq_payload",
    [
        pytest.param(build_tfim(4), (0,), PAULI_Z, (3,), PAULI_X, id="tfim-X@3"),
        pytest.param(
            _DICKE, (1,), PAULI_X, (2,), np.diag([0.0, 1.0, 2.0]),
            id="dicke-number@mode1",
        ),
        pytest.param(
            _DICKE, (1,), PAULI_X, (2,), mode_quadratures(3)[1],
            id="dicke-quadrature@mode1",
        ),
    ],
)
def test_sweep_oq_agrees_with_direct(model, op_sites, op_payload, oq_sites, oq_payload):
    op = observable_from_sites(model, op_sites, op_payload, "P")
    oq = observable_from_sites(model, oq_sites, oq_payload, "Q")
    sweep = commutator_norm_sweep(model, op, [oq], [0.8])
    dims = list(model.site_dims)
    dec = decompose(full_hamiltonian(model))
    (a_t,) = heisenberg_evolve(embed_dense(op_payload, op_sites, dims), dec, (0.8,))
    q_full = embed_dense(oq_payload, oq_sites, dims)
    expected = spectral_norm(commutator(a_t, q_full))
    assert expected > 1e-2  # the comparison is not between two zeros
    assert sweep.points[0].value == pytest.approx(expected, abs=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["tfim", "dicke"]), st.integers(0, 2**32 - 1))
def test_sweep_dense_two_site_oq_matches_dense_oracle(kind, seed):
    # A random dense Hermitian O_Q on two random sites, so every row of its
    # row-padded embedding has several nonzeros, against spectral_norm of the
    # commutator with embed_dense(O_Q).
    rng = np.random.default_rng(seed)
    model = build_tfim(4) if kind == "tfim" else _DICKE
    dims = list(model.site_dims)
    sites = tuple(sorted(int(s) for s in rng.choice(len(dims), 2, replace=False)))
    oq = observable_from_sites(
        model, sites, _random_hermitian(rng, dims[sites[0]] * dims[sites[1]]), "Q"
    )
    # O_P on one of O_Q's sites: the norms are not all zero.
    op = observable_from_sites(
        model, sites[:1], _random_hermitian(rng, dims[sites[0]]), "P"
    )
    times = (0.0, 0.45, 1.1)
    sweep = commutator_norm_sweep(model, op, [oq], times)
    dec = decompose(full_hamiltonian(model))
    p_full = embed_dense(op.payload, op.support.sites, dims)
    q_full = embed_dense(oq.payload, oq.support.sites, dims)
    expected = [
        spectral_norm(commutator(a_t, q_full))
        for a_t in heisenberg_evolve(p_full, dec, times)
    ]
    scale = spectral_norm(op.payload) * spectral_norm(oq.payload)
    assert max(expected) > 1e-3 * scale  # the comparison is not between zeros
    for point, value in zip(sweep.points, expected, strict=True):
        assert abs(point.value - value) <= 1e-11 * scale


def _dense_sweep_oracle(model, op, oqs, times, projector_diag=None):
    """The full-space route: one eigh of all of H, the full rotation, and the
    SVD of the full commutator.  Shares nothing with `decompose` or the
    sweep's structured routes."""
    dims = list(model.site_dims)
    w, v = np.linalg.eigh(full_hamiltonian(model))
    a = embed_dense(op.payload, op.support.sites, dims)
    qs = [embed_dense(oq.payload, oq.support.sites, dims) for oq in oqs]
    out = []
    for t in times:
        u = (v * np.exp(1j * w * t)) @ v.conj().T  # e^{iHt}
        a_t = u @ a @ u.conj().T
        for q in qs:
            c = a_t @ q - q @ a_t
            if projector_diag is not None:
                c = c * np.outer(projector_diag, projector_diag)
            out.append(np.linalg.svd(c, compute_uv=False)[0])
    return out


def _random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def _random_dense_model(rng):
    # Dense random payloads on the bonds of a 4-qubit chain: nothing is
    # conserved, so H is a single sector.
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    terms = [
        LocalTerm(i % 2, i // 2, region(graph, (i, i + 1)), _random_hermitian(rng, 4))
        for i in range(3)
    ]
    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=(2,) * 4,
        family0=tuple(t for t in terms if t.family == 0),
        family1=tuple(t for t in terms if t.family == 1),
        h0=1.0,
        h1=1.0,
    )


def _oracle_case(kind, rng):
    """(model, O_P, O_Qs, number of sectors of H) for one oracle case."""
    if kind in ("tfim", "commuting_ising"):
        length = int(rng.integers(3, 7))
        j, g = rng.uniform(0.3, 2.0, size=2)
        if kind == "tfim":
            model = build_tfim(length, j=j, g=g)
        else:
            model = build_commuting_ising(length, j=j)
        # Z stays inside the parity sectors, X and Y cross them.
        op_payload = [PAULI_Z, PAULI_X, PAULI_Y][int(rng.integers(3))]
        op = observable_from_sites(model, (int(rng.integers(length)),), op_payload)
        sites = rng.choice(length, size=3, replace=False)
        three = np.diag(rng.permutation([0.5, -1.0, 2.0, 0.5]))
        oqs = [
            observable_from_sites(model, (int(sites[0]),), PAULI_Z, "Z"),
            observable_from_sites(model, (int(sites[1]),), PAULI_X, "X"),
            observable_from_sites(
                model, tuple(sorted((int(sites[1]), int(sites[2])))), three, "diag3"
            ),
        ]
        return model, op, oqs, 2
    if kind == "dicke":
        m = int(rng.integers(2, 4))
        model = build_dicke_chain(2, truncation=m)  # site dims (m, 2, m, 2)
        spin = int(rng.choice([1, 3]))
        mode = int(rng.choice([0, 2]))
        number = np.diag(np.arange(m, dtype=float))
        oqs = [
            observable_from_sites(model, (mode,), number, "number"),
            observable_from_sites(model, (mode,), mode_quadratures(m)[0], "quad"),
            observable_from_sites(model, (4 - spin,), PAULI_Z, "Z@spin"),
        ]
        # X on a spin flips its sigma^z label: O_P crosses the sectors.
        op = observable_from_sites(model, (spin,), PAULI_X, "X@spin")
        return model, op, oqs, 4
    model = _random_dense_model(rng)
    op = observable_from_sites(model, (0,), _random_hermitian(rng, 2))
    oqs = [
        observable_from_sites(model, (3,), PAULI_Z, "Z"),
        observable_from_sites(model, (2, 3), _random_hermitian(rng, 4), "dense"),
        observable_from_sites(model, (3,), np.diag([0.0, 1.0]), "proj"),
    ]
    return model, op, oqs, 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["tfim", "commuting_ising", "dicke", "dense"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_structured_sweep_matches_dense_oracle(kind, seed, projected):
    rng = np.random.default_rng(seed)
    model, op, oqs, n_sectors = _oracle_case(kind, rng)
    assert len(decompose(full_hamiltonian(model)).sectors) == n_sectors
    keep = None
    if projected:
        keep = (rng.random(model.hilbert_dim) < 0.7).astype(float)
    times = (0.0, 0.37, 1.3)
    sweep = commutator_norm_sweep(model, op, oqs, times, projector_diag=keep)
    oracle = _dense_sweep_oracle(model, op, oqs, times, keep)
    for point, expected in zip(sweep.points, oracle):
        oq = next(o for o in oqs if o.label == point.oq)
        scale = spectral_norm(op.payload) * spectral_norm(oq.payload)
        # Never below the oracle: an under-estimated norm hides violations.
        assert point.value >= expected - 1e-12
        assert abs(point.value - expected) <= 1e-11 * scale


def test_two_valued_route_reads_half_blocks_per_sector_against_dense_oracle():
    # A quadrature on mode 1 (site 2) of the Dicke chain stays inside H's
    # four spin sectors, and the 0/1 projector on that mode is a two-valued
    # O_Q, so the norm is read from the half blocks P1 A P2 of each sector.
    # The projector_diag removes the states with one boson on that mode from
    # sector 0 and every state with q = 0 from sector 2.  The sectors are
    # alike, so the cut block of sector 0 reads lower than the full ones, and
    # the largest norm is not the first block's.
    model = build_dicke_chain(2, truncation=3)  # site dims (3, 2, 3, 2)
    dims = list(model.site_dims)
    op = observable_from_sites(model, (2,), mode_quadratures(3)[0], "x@mode1")
    oq = observable_from_sites(model, (2,), np.diag([0.0, 1.0, 1.0]), "occupied")
    dec = decompose(full_hamiltonian(model))
    p_full = embed_dense(op.payload, op.support.sites, dims)
    assert all(i == j for i, j in dec.sector_pairs(p_full))
    q = embed_diagonal(np.diagonal(oq.payload), oq.support.sites, dims)
    keep = np.ones(model.hilbert_dim)
    sec = dec.sectors
    level = embed_diagonal([0.0, 1.0, 2.0], oq.support.sites, dims)
    keep[sec[0][level[sec[0]] == 1.0]] = 0.0
    keep[sec[2][q[sec[2]] == 0.0]] = 0.0
    shapes = [
        (int(((q[g] == 0.0) & (keep[g] == 1.0)).sum()),
         int(((q[g] == 1.0) & (keep[g] == 1.0)).sum()))
        for g in sec
    ]
    # Half blocks of two shapes, and one empty block that is skipped.
    assert shapes == [(3, 3), (3, 6), (0, 6), (3, 6)]

    times = (0.0, 0.37, 1.3)
    sweep = commutator_norm_sweep(model, op, [oq], times, projector_diag=keep)
    oracle = _dense_sweep_oracle(model, op, [oq], times, keep)
    assert min(oracle) > 0.1  # the comparison is not between zeros
    scale = spectral_norm(op.payload) * spectral_norm(oq.payload)
    for point, expected in zip(sweep.points, oracle, strict=True):
        assert point.value >= expected - 1e-12
        assert abs(point.value - expected) <= 1e-11 * scale


def _z(model, site):
    return observable_from_sites(model, (site,), PAULI_Z, f"Z@{site}")


# O_P sits at site p % length and O_Q on the sites set in q_mask (bit k for
# site k) and on O_P's own, so the sets reach both sides of O_P.
@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(2, 10),
    j=st.floats(-4.0, 4.0),
    g=st.floats(-4.0, 4.0),
    p=st.integers(0, 9),
    q_mask=st.integers(0, 2**10 - 1),
    times=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=4),
)
@example(length=7, j=0.0, g=1.7, p=3, q_mask=0b1010101, times=[1.0, 4.0])
@example(length=7, j=-2.3, g=0.0, p=3, q_mask=0b1010101, times=[1.0, 4.0])
@example(length=10, j=0.8, g=-3.1, p=4, q_mask=2**10 - 1, times=[0.5, 4.0])
def test_free_fermion_sweep_matches_structured_sweep(length, j, g, p, q_mask, times):
    model = build_tfim(length, j=j, g=g)
    p %= length
    op = _z(model, p)
    oqs = [_z(model, s) for s in range(length) if s == p or q_mask >> s & 1]
    times = [0.0] + times
    fast = free_fermion_sweep(model, op, oqs, times)
    oracle = commutator_norm_sweep(model, op, oqs, times)
    assert fast.op_label == oracle.op_label
    assert fast.oq_labels == oracle.oq_labels
    assert fast.separations == oracle.separations
    assert fast.times == oracle.times
    assert fast.hilbert_dim == oracle.hilbert_dim
    assert len(fast.points) == len(oracle.points)
    for got, want in zip(fast.points, oracle.points):
        assert (got.d, got.t, got.oq) == (want.d, want.t, want.oq)
        assert abs(got.value - want.value) <= 1e-12


def test_free_fermion_sweep_rejects_other_models_and_observables():
    ising = build_commuting_ising(4)
    with pytest.raises(ValueError, match="tfim"):
        free_fermion_sweep(ising, _z(ising, 0), [_z(ising, 3)], (0.0, 1.0))
    model = build_tfim(4)
    x = observable_from_sites(model, (3,), PAULI_X, "X@3")
    zz = observable_from_sites(model, (2, 3), np.kron(PAULI_Z, PAULI_Z), "ZZ")
    two_z = observable_from_sites(model, (3,), 2.0 * PAULI_Z, "2Z@3")
    for op, oq in ((x, _z(model, 0)), (_z(model, 0), x), (_z(model, 0), zz),
                   (_z(model, 0), two_z)):
        with pytest.raises(ValueError, match="Pauli Z"):
            free_fermion_sweep(model, op, [_z(model, 1), oq], (0.0, 1.0))


@pytest.mark.parametrize("cap", [None, 0, 1])
def test_exact_sweep_is_the_full_space_sweep_off_the_free_fermion_route(cap):
    model = build_dicke_chain(2, truncation=3)
    op = observable_from_sites(model, (1,), PAULI_X, "X@spin0")
    oqs = [
        observable_from_sites(model, (3,), pauli, f"{name}@spin1")
        for name, pauli in (("X", PAULI_X), ("Z", PAULI_Z))
    ]
    times = (0.0, 0.3, 0.6)
    got = exact_sweep(model, op, oqs, times, occupation_cap=cap)
    proj = None if cap is None else occupation_projector_diagonal(model, cap)
    want = commutator_norm_sweep(model, op, oqs, times, projector_diag=proj)
    assert got.points == want.points
    assert got == want


def test_exact_sweep_takes_the_free_fermion_route_for_tfim_z():
    model = build_tfim(6, j=0.7, g=1.3)
    oqs = [_z(model, s) for s in (0, 3, 5)]
    times = (0.0, 0.5, 1.5)
    got = exact_sweep(model, _z(model, 2), oqs, times, occupation_cap=1)
    assert got == free_fermion_sweep(model, _z(model, 2), oqs, times)


@pytest.mark.parametrize("j,g", [(1.0, 1.0), (1.0, 0.6)])
def test_free_fermion_velocity_at_128_sites(j, g):
    # The fastest quasiparticle of the TFIM moves at 2 min(J, g).
    model = build_tfim(128, j=j, g=g)
    oqs = [_z(model, d) for d in range(8, 65, 8)]
    sweep = free_fermion_sweep(model, _z(model, 0), oqs, np.linspace(0.0, 40.0, 161))
    v_emp = extract_velocity(sweep, threshold=1e-3).v_emp
    v_max = 2.0 * min(j, g)
    assert 0.9 * v_max <= v_emp <= 1.2 * v_max
    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    assert v_emp < consts.v_lr


def test_sweep_rejects_a_projector_that_is_not_zero_one():
    model = build_tfim(3)
    op = observable_from_sites(model, (0,), PAULI_Z, "Z@0")
    oq = observable_from_sites(model, (2,), PAULI_Z, "Z@2")
    for bad in (np.full(8, 0.5), np.ones(7)):
        with pytest.raises(ValueError, match="projector_diag"):
            commutator_norm_sweep(model, op, [oq], [0.9], projector_diag=bad)


def test_sweep_at_zero_time_is_static_commutator(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    for p in sweep.points:
        if p.t == 0.0:
            assert p.value <= 1e-12  # disjoint supports commute


def test_sweep_decays_with_distance_before_the_front(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    t = 0.5
    vals = [next(p.value for p in sweep.points if p.d == d and p.t == t) for d in (2, 3, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_sweep_curve_accessor(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    ts, vals = sweep.curve("Z@3")
    assert ts == sweep.times
    assert len(vals) == len(ts)
    assert all(v >= 0.0 for v in vals)


def test_curve_and_velocity_keep_observables_at_equal_separation_apart():
    # Z@1 and Z@5 both sit 2 sites from Z@3 on a 7-site chain; each has its
    # own curve and its own cone crossing.
    model = build_tfim(7)
    op = observable_from_sites(model, (3,), PAULI_Z, "Z@3")
    oqs = [observable_from_sites(model, (s,), PAULI_Z, f"Z@{s}") for s in range(7)]
    sweep = commutator_norm_sweep(model, op, oqs, [0.25 * k for k in range(13)])
    for label in ("Z@1", "Z@5"):
        ts, vals = sweep.curve(label)
        assert ts == sweep.times
        assert vals == tuple(p.value for p in sweep.points if p.oq == label)
    est = extract_velocity(sweep, threshold=1e-3)
    assert [d for d, _ in est.crossings] == sorted(sweep.separations)
    # Z@1 and Z@5 cross together, by mirror symmetry.
    assert est.crossings[3][1] == pytest.approx(est.crossings[4][1], rel=1e-9)


def test_dicke_cross_layer_commutator_vanishes():
    # The spin-boson chain rewrites as mutually commuting terms, so Heisenberg
    # supports freeze after one layer of terms: spins two layers apart commute
    # at all times even though the generic bounds there are finite.
    from lrlab.models import build_dicke_chain

    model = build_dicke_chain(3, truncation=3)
    op = observable_from_sites(model, (1,), PAULI_X, "X@spin0")
    near = observable_from_sites(model, (3,), PAULI_X, "X@spin1")
    far = observable_from_sites(model, (5,), PAULI_X, "X@spin2")
    sweep = commutator_norm_sweep(model, op, [near, far], (0.7, 1.9))
    near_vals = sweep.curve("X@spin1")[1]
    far_vals = sweep.curve("X@spin2")[1]
    assert min(near_vals) > 0.5
    assert max(far_vals) <= 1e-12


def test_projector_restricts_commutator():
    model = build_tfim(3)
    op = observable_from_sites(model, (0,), PAULI_Z, "Z@0")
    oq = observable_from_sites(model, (2,), PAULI_Z, "Z@2")
    keep = np.zeros(8)
    sweep = commutator_norm_sweep(model, op, [oq], [0.9], projector_diag=keep)
    assert sweep.points[0].value == 0.0


def _synthetic_sweep(v_true, ds, times):
    labels = [f"B{d}.{k}" for k, d in enumerate(ds)]
    points = []
    for d, oq in zip(ds, labels):
        for t in times:
            val = max(0.0, 0.1 * (t - d / v_true))
            points.append(SweepPoint(d=d, t=t, value=val, oq=oq))
    return SimulationSweep(
        op_label="A",
        oq_labels=tuple(labels),
        separations=tuple(ds),
        times=tuple(times),
        points=tuple(points),
        hilbert_dim=0,
    )


def test_extract_velocity_recovers_linear_front():
    times = [0.05 * k for k in range(200)]
    sweep = _synthetic_sweep(2.0, (3, 4, 5, 6), times)
    est = extract_velocity(sweep, threshold=1e-3)
    assert est.v_emp == pytest.approx(2.0, rel=1e-2)
    assert len(est.crossings) == 4
    assert est.residual < 0.05


def test_extract_velocity_needs_three_crossings():
    sweep = _synthetic_sweep(2.0, (3, 4, 5), [0.1, 0.2])  # nothing crosses yet
    with pytest.raises(ValueError, match="cone not resolved"):
        extract_velocity(sweep, threshold=1e-3)


def test_extract_velocity_counts_distinct_separations():
    # Four observables cross, but at only two separations: no cone to fit.
    times = [0.05 * k for k in range(200)]
    sweep = _synthetic_sweep(2.0, (3, 3, 4, 4), times)
    with pytest.raises(ValueError, match="only 2 separations crossed"):
        extract_velocity(sweep, threshold=1e-3)


def test_extract_velocity_needs_two_crossing_times():
    # Three separations cross, but all at the grid's first time: a fit
    # through one t has no slope, and polyfit would return one anyway.
    sweep = _synthetic_sweep(10.0, (3, 4, 5), [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="cone not resolved: every crossing at t = 2.0"):
        extract_velocity(sweep, threshold=1e-6)


def test_verify_bound_margins_and_exclusion():
    times = [0.5, 1.0]
    sweep = _synthetic_sweep(2.0, (1, 2, 3), times)
    report = verify_bound(
        sweep, {"flat": lambda t, d: 1.0}, min_separation=1, slack=1e-9
    )
    assert report.excluded_separations == (1,)
    assert {r.d for r in report.rows} == {2, 3}
    assert report.passed
    assert report.worst_margin() <= 1.0


def test_verify_bound_fails_below_the_measured_norms():
    sweep = _synthetic_sweep(1.0, (2, 3, 4), [5.0])
    honest = verify_bound(
        sweep, {"flat": lambda t, d: 1.0}, min_separation=0, slack=1e-9
    )
    low = verify_bound(
        sweep, {"flat": lambda t, d: 1e-6}, min_separation=0, slack=1e-9
    )
    assert honest.passed
    assert not low.passed


def test_derivative_identity_tfim():
    model = build_tfim(5)
    err = derivative_identity_check(model, 0, 1, 1, 3, t=0.9)
    assert err <= 1e-6


def test_derivative_identity_commuting_model_vanishes():
    # Both sides are exactly zero in exact arithmetic; the central difference
    # amplifies eigenbasis roundoff by 1/(2 step), so allow that much.
    model = build_commuting_ising(4)
    err = derivative_identity_check(model, 0, 0, 0, 2, t=1.2)
    assert err <= 1e-10


def test_derivative_identity_unknown_term():
    with pytest.raises(ValueError, match="no term"):
        derivative_identity_check(build_tfim(4), 0, 99, 1, 0, t=0.1)
