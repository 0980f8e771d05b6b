"""Exact dynamics: sweeps, velocity fits, verification, derivative identity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from lemma_checks import derivative_identity_check
from lrlab.dynamics import (
    SimulationSweep,
    _commutator_norm_fn,
    check_sweep,
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
        got = sweep.values[sweep.times.index(t), sweep.separations.index(d)]
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
    assert sweep.values[0, 0] == pytest.approx(expected, abs=1e-11)


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
    for got, value in zip(sweep.values[:, 0], expected, strict=True):
        assert abs(got - value) <= 1e-11 * scale


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
        LocalTerm(i // 2, region(graph, (i, i + 1)), _random_hermitian(rng, 4))
        for i in range(3)
    ]
    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=(2,) * 4,
        family0=tuple(terms[0::2]),
        family1=tuple(terms[1::2]),
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
    st.sampled_from([None, 0, 1, 2]),
)
def test_structured_sweep_matches_dense_oracle(kind, seed, cap):
    rng = np.random.default_rng(seed)
    model, op, oqs, n_sectors = _oracle_case(kind, rng)
    assert len(decompose(full_hamiltonian(model)).sectors) == n_sectors
    keep = None if cap is None else occupation_projector_diagonal(model, cap)
    times = (0.0, 0.37, 1.3)
    sweep = commutator_norm_sweep(model, op, oqs, times, occupation_cap=cap)
    oracle = _dense_sweep_oracle(model, op, oqs, times, keep)
    # The oracle's norms run t-major, like the flat view of the grid.
    for value, oq, expected in zip(
        sweep.points, oqs * len(times), oracle, strict=True
    ):
        scale = spectral_norm(op.payload) * spectral_norm(oq.payload)
        # Never below the oracle: an under-estimated norm hides violations.
        assert value >= expected - 1e-12
        assert abs(value - expected) <= 1e-11 * scale


def test_two_valued_route_reads_half_blocks_per_sector_against_dense_oracle():
    # A quadrature on mode 1 (site 2) of the Dicke chain stays inside H's
    # four spin sectors, and the 0/1 projector on that mode is a two-valued
    # O_Q, so the norm is read from the half blocks P1 A P2 of each sector.
    # The kept indices leave out the states with one boson on that mode from
    # sector 0 and every state with q = 0 from sector 2.  The sectors are
    # alike, so the cut block of sector 0 reads lower than the full ones, and
    # the largest norm is not the first block's.  No occupation cap keeps a
    # set that differs between sectors, so the norm kernel is called itself,
    # with the groups and kept indices that the sweep would hand it.
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

    kept = np.flatnonzero(keep)
    groups = [np.intersect1d(g, kept, assume_unique=True) for g in sec]
    norm = _commutator_norm_fn(oq, dims, groups, kept)
    times = (0.0, 0.37, 1.3)
    got = [norm(a_t) for a_t in heisenberg_evolve(p_full, dec, times)]
    oracle = _dense_sweep_oracle(model, op, [oq], times, keep)
    assert min(oracle) > 0.1  # the comparison is not between zeros
    scale = spectral_norm(op.payload) * spectral_norm(oq.payload)
    for value, expected in zip(got, oracle, strict=True):
        assert value >= expected - 1e-12
        assert abs(value - expected) <= 1e-11 * scale


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
@example(length=2, j=1e-12, g=1.0, p=0, q_mask=0, times=[0.0, 2.225073858507e-311])
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
    assert fast.values.shape == oracle.values.shape == (len(times), len(oqs))
    assert np.abs(fast.values - oracle.values).max() <= 1e-12


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
    want = commutator_norm_sweep(model, op, oqs, times, occupation_cap=cap)
    np.testing.assert_array_equal(got.values, want.values)
    assert got == want


def test_exact_sweep_takes_the_free_fermion_route_for_tfim_z():
    model = build_tfim(6, j=0.7, g=1.3)
    oqs = [_z(model, s) for s in (0, 3, 5)]
    times = (0.0, 0.5, 1.5)
    got = exact_sweep(model, _z(model, 2), oqs, times, occupation_cap=1)
    want = free_fermion_sweep(model, _z(model, 2), oqs, times)
    np.testing.assert_array_equal(got.values, want.values)
    assert got == want


def _majorana_pair(x, y):
    """-2 (x y^T - y x^T) for stacks of vectors x, y: the W of the bilinear
    -i (x.c)(y.c) = (i/4) c^T W c, for x orthogonal to y."""
    outer = x[..., :, None] * y[..., None, :]
    return -2.0 * (outer - np.swapaxes(outer, -1, -2))


def _majorana_norms(rows, q_sites):
    """||[Z_p(t), Z_q]|| for each q in `q_sites`, from `rows`, rows 2p and
    2p+1 of the single-particle rotation R(t), by a 4x4 eigenproblem.

    Z_p(t) and Z_q are the bilinears (i/4) c^T W c of W_P(t) = R^T W_P R
    and W_Q, and [Z_p(t), Z_q] is that of i[W_P(t), W_Q], whose norm is a
    quarter of the sum of its absolute eigenvalues.  Both live in the span
    of the two rows and e_{2q}, e_{2q+1}, so they are taken in the
    coordinates of these four vectors in an orthonormal basis of their span,
    the triangular factor of their QR.
    """
    e_q = np.eye(rows.shape[1])[2 * np.asarray(q_sites)[:, None] + [0, 1]]
    # (n_Q, 2L, 4): columns rows[0], rows[1], e_{2q}, e_{2q+1}.
    basis = np.concatenate(np.broadcast_arrays(rows, e_q), axis=1).swapaxes(-1, -2)
    r = np.linalg.qr(basis, mode="r")
    w_p = _majorana_pair(r[..., :, 0], r[..., :, 1])
    w_q = _majorana_pair(r[..., :, 2], r[..., :, 3])
    return 0.25 * np.abs(np.linalg.eigvalsh(1j * (w_p @ w_q - w_q @ w_p))).sum(-1)


def _bessel_rows(length, s, p, t):
    """Rows 2p, 2p+1 of R(t) on the TFIM at J = g = s, in closed form: near
    the open left end, R(t)_jk = J_{k-j}(-4st) + (-1)^j J_{k+j+2}(-4st),
    the second term the image of the first in the end."""
    j = 2 * p + np.arange(2)[:, None]
    k = np.arange(2 * length)
    x = -4.0 * s * t
    return jv(k - j, x) + (-1.0) ** j * jv(k + j + 2, x)


@pytest.mark.parametrize("s", [1.0, 0.6])
def test_free_fermion_sweep_matches_bessel_rows_at_128_sites(s):
    # Far beyond the full-space cap.  At t <= 6 the right end, about 245
    # modes away, adds nothing to the rows, so the closed form holds on all
    # of them.
    length = 128
    model = build_tfim(length, j=s, g=s)
    times = np.linspace(0.0, 6.0, 13)
    for p in (0, 1, 4):
        q_sites = range(p + 61)
        sweep = free_fermion_sweep(
            model, _z(model, p), [_z(model, q) for q in q_sites], times
        )
        got = sweep.values
        want = [_majorana_norms(_bessel_rows(length, s, p, t), q_sites) for t in times]
        assert got.max() > 1.0  # the comparison is not between zeros
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_free_fermion_sweep_holds_one_time_at_once():
    # 124 O_Q and 61 times at 128 sites: an all-times (T, n_Q, 2L, 4) stack
    # would take 62 MB on its own.
    model = build_tfim(128)
    op = _z(model, 0)
    oqs = [_z(model, q) for q in range(3, 127)]
    times = np.linspace(0.0, 6.0, 61)
    tracemalloc.start()
    try:
        free_fermion_sweep(model, op, oqs, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def test_a_negative_occupation_cap_is_refused(monkeypatch):
    # A cap of -1 keeps no state, so every norm would read 0 and any bound
    # would pass.  It is refused by the projector builder, before the
    # decomposition, on every route that takes a cap.
    from lrlab import dynamics

    def refused(*args, **kwargs):
        raise AssertionError("decompose was called")

    monkeypatch.setattr(dynamics, "decompose", refused)
    message = "occupation cap must be at least 0, got -1"
    model = build_dicke_chain(2, truncation=3)
    op = observable_from_sites(model, (1,), PAULI_X, "X@spin0")
    oq = observable_from_sites(model, (3,), PAULI_X, "X@spin1")
    with pytest.raises(ValueError, match=message):
        occupation_projector_diagonal(model, -1)
    for sweep in (exact_sweep, commutator_norm_sweep):
        with pytest.raises(ValueError, match=message):
            sweep(model, op, [oq], (0.0, 0.5, 1.0), occupation_cap=-1)
    tfim = build_tfim(3)  # no boson site to cap, and still refused
    with pytest.raises(ValueError, match=message):
        commutator_norm_sweep(
            tfim, _z(tfim, 0), [_z(tfim, 2)], (0.9,), occupation_cap=-1
        )


@pytest.mark.parametrize("route", ["free_fermion", "full_space"])
def test_exact_sweep_refuses_a_negative_occupation_cap_on_both_routes(route):
    # The TFIM has no boson site to cap; the cap is refused all the same.
    model = build_tfim(6)
    pauli = PAULI_Z if route == "free_fermion" else PAULI_X
    op, oq = (observable_from_sites(model, (s,), pauli, f"P@{s}") for s in (0, 3))
    assert check_sweep(model, (op, oq)) == (route == "free_fermion")
    with pytest.raises(ValueError, match="occupation cap must be at least 0, got -1"):
        exact_sweep(model, op, [oq], (0.0, 1.0), occupation_cap=-1)


def test_sweep_at_zero_time_is_static_commutator(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    at_zero = sweep.values[np.equal(sweep.times, 0.0)]
    assert at_zero.size
    assert at_zero.max() <= 1e-12  # disjoint supports commute


def test_sweep_decays_with_distance_before_the_front(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    t = 0.5
    k = sweep.times.index(t)
    vals = [sweep.values[k, sweep.separations.index(d)] for d in (2, 3, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_sweep_grid_is_times_by_observables(tfim5_sweep):
    model, op, oqs, sweep = tfim5_sweep
    vals = sweep.values[:, sweep.oq_labels.index("Z@3")]
    assert sweep.values.shape == (len(sweep.times), len(oqs))
    assert len(vals) == len(sweep.times)
    assert all(v >= 0.0 for v in vals)


def test_curve_and_velocity_keep_observables_at_equal_separation_apart():
    # Z@1 and Z@5 both sit 2 sites from Z@3 on a 7-site chain; each has its
    # own column of the grid and its own cone crossing.
    model = build_tfim(7)
    op = observable_from_sites(model, (3,), PAULI_Z, "Z@3")
    oqs = [observable_from_sites(model, (s,), PAULI_Z, f"Z@{s}") for s in range(7)]
    times = [0.25 * k for k in range(13)]
    sweep = commutator_norm_sweep(model, op, oqs, times)
    assert sweep.times == tuple(times)
    for label in ("Z@1", "Z@5"):
        i = sweep.oq_labels.index(label)
        # The flat t-major view holds the column at stride n_Q.
        np.testing.assert_array_equal(sweep.points[i :: len(oqs)], sweep.values[:, i])
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
    near_vals, far_vals = sweep.values.T
    assert min(near_vals) > 0.5
    assert max(far_vals) <= 1e-12


def test_sweep_reads_zero_for_a_zero_oq():
    # A zero O_Q keeps no entry in its row-padded embedding, so there is no
    # column to gather: its norm is 0 at every time.
    model = build_tfim(4)
    op = observable_from_sites(model, (0,), PAULI_X, "X@0")
    zero = observable_from_sites(model, (1,), np.zeros((2, 2)), "0@1")
    z = observable_from_sites(model, (1,), PAULI_Z, "Z@1")
    sweep = commutator_norm_sweep(model, op, [zero, z], (0.0, 0.6, 1.3))
    assert sweep.values[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert min(sweep.values[1:, 1]) > 1e-2  # the same sweep, on a nonzero O_Q


def _synthetic_sweep(v_true, ds, times):
    values = [[max(0.0, 0.1 * (t - d / v_true)) for d in ds] for t in times]
    return SimulationSweep(
        op_label="A",
        oq_labels=tuple(f"B{d}.{k}" for k, d in enumerate(ds)),
        separations=tuple(ds),
        times=tuple(times),
        values=np.array(values).reshape(len(times), len(ds)),
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
    # Three separations cross, but all at one interpolated time: a fit
    # through one t has no slope, and polyfit would return one anyway.
    ds = (3, 4, 5)
    sweep = SimulationSweep(
        op_label="A",
        oq_labels=tuple(f"B{d}" for d in ds),
        separations=ds,
        times=(0.0, 1.0, 2.0),
        values=np.repeat([[0.0], [0.25], [0.5]], len(ds), axis=1),
        hilbert_dim=0,
    )
    with pytest.raises(ValueError, match="cone not resolved: every crossing at t = 1.5"):
        extract_velocity(sweep, threshold=0.375)


def test_extract_velocity_leaves_out_observables_already_past_the_threshold():
    # Z@0 against Z at 3..8 on a 10-site TFIM.  From t = 0 every O_Q crosses
    # inside the grid.  From t = 1, five of them are already past the
    # threshold at the first time; they crossed at some unseen earlier time,
    # and only Z@8's crossing is resolved.
    model = build_tfim(10)
    oqs = [_z(model, s) for s in range(3, 9)]
    full = free_fermion_sweep(model, _z(model, 0), oqs, np.linspace(0.0, 3.0, 41))
    est = extract_velocity(full, threshold=1e-6)
    assert [d for d, _ in est.crossings] == [3, 4, 5, 6, 7, 8]
    assert est.v_emp == pytest.approx(4.1068, abs=1e-4)
    late = free_fermion_sweep(model, _z(model, 0), oqs, np.linspace(1.0, 3.0, 41))
    assert np.count_nonzero(late.values[0] >= 1e-6) == 5
    with pytest.raises(ValueError, match="only 1 separations crossed threshold 1e-06"):
        extract_velocity(late, threshold=1e-6)


def test_verify_bound_margins_and_exclusion():
    times = [0.5, 1.0]
    sweep = _synthetic_sweep(2.0, (1, 2, 3), times)
    report = verify_bound(sweep, (1, 2), {"flat": np.ones((2, 2))}, slack=1e-9)
    assert report.excluded_separations == (1,)
    assert {d for _, d, *_ in report.rows()} == {2, 3}
    assert report.passed
    assert report.worst_margin() <= 1.0


def test_verify_bound_fails_below_the_measured_norms():
    sweep = _synthetic_sweep(1.0, (2, 3, 4), [5.0])
    honest = verify_bound(sweep, (0, 1, 2), {"flat": np.ones((1, 3))}, slack=1e-9)
    low = verify_bound(
        sweep, (0, 1, 2), {"flat": np.full((1, 3), 1e-6)}, slack=1e-9
    )
    assert honest.passed
    assert not low.passed


def test_verify_bound_refuses_a_grid_of_another_shape():
    # Three times by two scored columns: a (2, 3) grid, its transpose, fits
    # the size but not the shape.
    sweep = _synthetic_sweep(1.0, (2, 3, 4), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
        verify_bound(sweep, (0, 1), {"flat": np.ones((2, 3))}, slack=1e-9)


def _verify_bound_per_point(sweep, bound_fns, min_separation, slack):
    """The scoring of `verify_bound` one point at a time, as it was before
    the grid: (rows, passed, worst margin, excluded separations), the rows
    by method, then t, then O_Q.  An empty time grid has no points, and
    this oracle then excludes no separation."""
    n = len(sweep.oq_labels)
    points = [
        (sweep.separations[k % n], sweep.times[k // n], v, sweep.oq_labels[k % n])
        for k, v in enumerate(sweep.points.tolist())
    ]
    excluded = tuple(sorted(set(d for d, *_ in points if d <= min_separation)))
    rows = []
    for method, fn in sorted(bound_fns.items()):
        for d, t, value, oq in points:
            if d <= min_separation:
                continue
            bound = float(fn(t, oq))
            rows.append((method, d, t, value, bound, bound - value, oq))
    passed = all(r[5] >= -slack for r in rows)
    worst = min((r[5] for r in rows), default=float("inf"))
    return rows, passed, worst, excluded


_finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    n_t=st.integers(1, 4),
    seps=st.lists(st.integers(0, 5), max_size=5),
    data=st.data(),
    min_separation=st.integers(-1, 6),
    methods=st.dictionaries(
        st.sampled_from(["closed_form", "observable", "series_exact_cn", "z"]),
        st.tuples(_finite, _finite, st.dictionaries(st.sampled_from("abc"), _finite)),
        max_size=3,
    ),
    slack=st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_verify_bound_scores_the_grid_like_the_per_point_loop(
    n_t, seps, data, min_separation, methods, slack
):
    # Labels drawn from a small alphabet repeat, and so do separations.
    oq_labels = data.draw(
        st.lists(st.sampled_from("abc"), min_size=len(seps), max_size=len(seps))
    )
    grid = data.draw(
        st.lists(
            st.floats(0.0, 5.0), min_size=n_t * len(seps), max_size=n_t * len(seps)
        )
    )
    sweep = SimulationSweep(
        op_label="P",
        oq_labels=tuple(oq_labels),
        separations=tuple(seps),
        times=tuple(0.5 * k for k in range(n_t)),
        values=np.array(grid).reshape(n_t, len(seps)),
        hilbert_dim=0,
    )

    def bound_fn(a, b, per_label):
        return lambda t, oq: a + b * t + per_label.get(oq, 0.0)

    fns = {name: bound_fn(*spec) for name, spec in methods.items()}
    # The scored columns, and each method's bounds on them, as arrays.
    columns = tuple(i for i, d in enumerate(seps) if d > min_separation)
    arrays = {
        name: np.array(
            [[fn(t, oq_labels[i]) for i in columns] for t in sweep.times]
        ).reshape(n_t, len(columns))
        for name, fn in fns.items()
    }
    report = verify_bound(sweep, columns, arrays, slack=slack)
    rows, passed, worst, excluded = _verify_bound_per_point(
        sweep, fns, min_separation, slack
    )
    assert list(report.rows()) == rows
    assert report.passed is passed
    assert report.worst_margin() == worst
    assert report.excluded_separations == excluded


def test_sweep_points_count_times_by_observables_on_both_routes():
    # The benchmark's tracer counts a sweep's points as len(sweep.points).
    model = build_tfim(6)
    op, oqs = _z(model, 0), [_z(model, s) for s in (2, 3, 5)]
    times = (0.0, 0.4, 0.8, 1.2)
    for route in (free_fermion_sweep, commutator_norm_sweep):
        sweep = route(model, op, oqs, times)
        assert len(sweep.points) == len(times) * len(oqs) == 12


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
