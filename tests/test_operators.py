"""Operator algebra oracles: embeddings, commutators, norms, evolution.

Expected values are frozen from hand calculations on one- and two-qubit
systems; properties are checked with hypothesis on small random matrices.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrlab.operators import (
    commutator,
    connected_components,
    decompose,
    embed_dense,
    embed_diagonal,
    embed_sparse,
    heisenberg_evolve,
    row_padded,
    sparse_commutator,
    spectral_norm,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_embed_site0_is_leftmost_factor():
    # Z on site 0 of two qubits: site 0 varies slowest.
    out = embed_dense(Z, (0,), (2, 2))
    np.testing.assert_array_equal(out, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_embed_site1():
    out = embed_dense(Z, (1,), (2, 2))
    np.testing.assert_array_equal(out, np.diag([1.0, -1.0, 1.0, -1.0]))


def test_embed_interior_site_mixed_dims():
    # A qutrit flanked by qubits; embedding must respect each local dimension.
    n = np.diag([0.0, 1.0, 2.0])
    out = embed_dense(n, (1,), (2, 3, 2))
    expected = np.kron(np.eye(2), np.kron(n, np.eye(2)))
    np.testing.assert_array_equal(out, expected)


def test_embed_two_site_payload_with_gap():
    xx = np.kron(X, X)
    out = embed_dense(xx, (0, 2), (2, 2, 2))
    expected = np.kron(X, np.kron(np.eye(2), X))
    np.testing.assert_array_equal(out, expected)


def test_embed_rejects_unsorted_sites():
    with pytest.raises(ValueError, match="sorted"):
        embed_dense(np.kron(X, Z), (2, 0), (2, 2, 2))


def test_embed_rejects_wrong_payload_shape():
    with pytest.raises(ValueError, match="shape"):
        embed_dense(X, (0, 1), (2, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_embed_is_an_algebra_morphism(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.choice([2, 3], size=4))
    sites = tuple(sorted(rng.choice(4, size=2, replace=False)))
    d = int(np.prod([dims[s] for s in sites]))
    a = _random_hermitian(rng, d)
    b = _random_hermitian(rng, d)
    lhs = embed_dense(a, sites, dims) @ embed_dense(b, sites, dims)
    rhs = embed_dense(a @ b, sites, dims)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def _embedding_oracle(payload, sites, dims):
    """E[b, b'] = payload[op(b), op(b')] * [rest(b) == rest(b')], read off the
    site digits of each basis index (site 0 slowest)."""
    total = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(total), dims))
    op = np.ravel_multi_index(digits[list(sites)], [dims[s] for s in sites])
    rest = digits[[k for k in range(len(dims)) if k not in sites]]
    same_rest = (rest[:, :, None] == rest[:, None, :]).all(axis=0)
    return np.where(same_rest, payload[op[:, None], op[None, :]], 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_embed_sparse_matches_dense(seed):
    # Both embeddings against the per-basis-state definition: site dims 2-4,
    # possibly non-contiguous 1-3-site supports, complex payloads with zeros.
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 5, size=4))
    k = int(rng.integers(1, 4))
    sites = tuple(sorted(int(s) for s in rng.choice(4, size=k, replace=False)))
    d = math.prod(dims[s] for s in sites)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a *= rng.random((d, d)) < rng.choice([0.2, 0.5, 1.0])
    expected = _embedding_oracle(a, sites, dims)
    np.testing.assert_array_equal(embed_dense(a, sites, dims), expected)
    cols, vals = embed_sparse(a, sites, dims)
    assert cols.shape[1] == np.count_nonzero(expected, axis=1).max(initial=0)
    # The padding is exact zeros, so adding every slot rebuilds the matrix.
    scattered = np.zeros_like(expected)
    np.add.at(scattered, (np.arange(len(cols))[:, None], cols), vals)
    np.testing.assert_array_equal(scattered, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sparse_commutator_matches_dense(seed):
    # Random sparse complex matrices up to 40 x 40 with some empty rows,
    # sometimes restricted to a random subset of the rows; sometimes the
    # commuting pair b = 2a, whose AB and BA terms agree one by one, so that
    # every entry cancels exactly.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a *= rng.random((n, n)) < rng.choice([0.05, 0.2, 0.6])
    commuting = rng.random() < 0.3
    if commuting:
        b = 2.0 * a
    else:
        b = rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.choice([0.05, 0.3]))
    rows = np.flatnonzero(rng.random(n) < 0.6) if rng.random() < 0.5 else None
    r, c, v = sparse_commutator(
        embed_sparse(a, (0,), (n,)), embed_sparse(b, (0,), (n,)), rows
    )
    if commuting:
        assert v.size == 0
    # Sorted by row, then column, one entry per position, no exact zeros.
    assert (np.diff(r * n + c) > 0).all()
    assert (v != 0).all()
    expected = commutator(a, b)
    if rows is not None:
        expected[np.setdiff1d(np.arange(n), rows)] = 0
    got = np.zeros_like(expected)
    got[r, c] = v
    scale = max(1.0, float(np.abs(a).max() * np.abs(b).max()) * n)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * scale)
    # The row-padded form holds the same matrix, as wide as its fullest row.
    cols, vals = row_padded(r, c, v, n)
    assert cols.shape[1] == np.bincount(r, minlength=n).max(initial=0)
    again = np.zeros_like(expected)
    np.add.at(again, (np.arange(n)[:, None], cols), vals)
    np.testing.assert_array_equal(again, got)


def _bracket_in_slot_order(a, b, rows):
    """COO of [A, B] on `rows`, one term at a time: each entry sums its AB
    terms in slot order (A's slot, then B's), then its BA terms, and
    subtracts the BA sum from the AB sum."""
    (ac, av), (bc, bv) = a, b
    out = []
    for r in rows:
        parts = ({}, {})
        for part, (xc, xv, yc, yv) in zip(parts, ((ac, av, bc, bv), (bc, bv, ac, av))):
            for s in range(xc.shape[1]):
                for t in range(yc.shape[1]):
                    term = xv[r, s] * yv[xc[r, s], t]
                    part.setdefault(int(yc[xc[r, s], t]), []).append(term)
        for col in sorted(parts[0].keys() | parts[1].keys()):
            ab, ba = (part.get(col, [0.0]) for part in parts)
            total_ab, total_ba = ab[0], ba[0]
            for term in ab[1:]:
                total_ab = total_ab + term
            for term in ba[1:]:
                total_ba = total_ba + term
            if total_ab - total_ba != 0:
                out.append((r, col, total_ab - total_ba))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_sparse_commutator_sums_in_slot_order(seed):
    # Entries built from 1e16, 1 and -1e16 (real and imaginary) round to
    # different values in different orders, so the bracket must match the
    # slot-order reference bit for bit, with and without a row restriction.
    rng = np.random.default_rng(seed)
    n = 12
    values = np.array([1e16, 1.0, -1e16, 1e16j, -1e16j, 1j])
    a = rng.choice(values, size=(n, n)) * (rng.random((n, n)) < 0.4)
    b = rng.choice(values, size=(n, n)) * (rng.random((n, n)) < 0.4)
    pa, pb = embed_sparse(a, (0,), (n,)), embed_sparse(b, (0,), (n,))
    for rows in (None, np.flatnonzero(rng.random(n) < 0.5)):
        expected = _bracket_in_slot_order(pa, pb, range(n) if rows is None else rows)
        r, c, v = sparse_commutator(pa, pb, rows)
        np.testing.assert_array_equal(r, [e[0] for e in expected])
        np.testing.assert_array_equal(c, [e[1] for e in expected])
        np.testing.assert_array_equal(v, np.array([e[2] for e in expected]))


def test_sparse_commutator_cancels_in_slot_order():
    # Exactly, [A, B][0, 0] = 1e16 + 1 - 1e16 (AB's three slots, no BA term)
    # and [A, B][5, 4] = (1e16 + 1) - 1e16 (two AB terms, one BA term) are
    # both 1.  Summed in slot order, with AB and BA apart, both round to 0
    # and are dropped; summed as 1e16 - 1e16 + 1 they would keep a 1.
    a, b = np.zeros((8, 8)), np.zeros((8, 8))
    a[0, [1, 2, 3]] = 1.0
    b[[1, 2, 3], 0] = [1e16, 1.0, -1e16]
    a[5, [6, 7]] = 1.0
    b[[6, 7], 4] = [1e16, 1.0]
    b[5, 6], a[6, 4] = 1e16, 1.0
    pa, pb = embed_sparse(a, (0,), (8,)), embed_sparse(b, (0,), (8,))
    r, c, v = sparse_commutator(pa, pb)
    kept = set(zip(r.tolist(), c.tolist()))
    assert (0, 0) not in kept and (5, 4) not in kept
    expected = _bracket_in_slot_order(pa, pb, range(8))
    assert [(e[0], e[1]) for e in expected] == sorted(kept)
    np.testing.assert_array_equal(v, [e[2] for e in expected])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_embed_diagonal_matches_dense(seed):
    # Site dims 2-4, possibly non-contiguous 1-3-site supports, a complex
    # diagonal with some exact zeros.
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 5, size=4))
    k = int(rng.integers(1, 4))
    sites = tuple(sorted(int(s) for s in rng.choice(4, size=k, replace=False)))
    d = math.prod(dims[s] for s in sites)
    diag = (rng.normal(size=d) + 1j * rng.normal(size=d)) * (rng.random(d) < 0.7)
    expected = np.diagonal(embed_dense(np.diag(diag), sites, dims))
    np.testing.assert_array_equal(embed_diagonal(diag, sites, dims), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_connected_components_match_csgraph(seed):
    # Random undirected edge sets on up to 300 nodes, from a few scattered
    # edges (many isolated nodes) to one giant component, with self-loops,
    # repeated edges and both orientations of some edges.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as csgraph_components

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 301))
    m = int(rng.choice([0.1, 0.5, 1.0, 2.0]) * n)
    rows, cols = rng.integers(0, n, size=(2, m))
    loops = rng.integers(0, n, size=int(rng.integers(0, 5)))
    again = rng.integers(0, m, size=m // 4) if m else np.zeros(0, dtype=int)
    rows, cols = (
        np.concatenate([rows, loops, rows[again], cols[again]]),
        np.concatenate([cols, loops, cols[again], rows[again]]),
    )
    count, labels = connected_components(rows, cols, n)
    graph = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    want_count, want_labels = csgraph_components(graph, directed=False)
    assert count == want_count
    np.testing.assert_array_equal(labels, want_labels)


def test_commutator_xz_is_minus_2i_y():
    np.testing.assert_array_equal(commutator(X, Z), -2j * Y)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commutator_antisymmetry_bitwise(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))


def test_spectral_norm_bond_field_commutator():
    xx = embed_dense(np.kron(X, X), (0, 1), (2, 2))
    z1 = embed_dense(Z, (1,), (2, 2))
    assert spectral_norm(commutator(xx, z1)) == pytest.approx(2.0, abs=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spectral_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    # Each structure hint on an input that has it, and the default on all.
    h = _random_hermitian(rng, 6)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for m, structure in ((h, "hermitian"), (1j * h, "antihermitian"), (g, "general")):
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m, structure=structure) == pytest.approx(ref, rel=1e-12)
        assert spectral_norm(m) == pytest.approx(ref, rel=1e-12)


def test_spectral_norm_hint_reads_tiny_antihermitian_inputs():
    # Entries far below any absolute floor: the hint, not a guess from the
    # entries, picks the route, so the norm is read to rounding.
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = 1j * (g + g.conj().T) * 1e-13
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m, structure="antihermitian") == pytest.approx(
            ref, rel=1e-12
        )
        assert spectral_norm(m) == pytest.approx(ref, rel=1e-12)


def _scaled_stack(rng, k, rows, cols, exponent, zero):
    """k complex rows x cols blocks with entries of size about 10**exponent;
    `zero` is "none", "member" (one block all zero) or "all"."""
    g = rng.normal(size=(k, rows, cols)) + 1j * rng.normal(size=(k, rows, cols))
    g *= 10.0**exponent
    if zero == "member":
        g[rng.integers(k)] = 0.0
    elif zero == "all":
        g[:] = 0.0
    return g


def _svd_norm(m):
    return float(np.linalg.svd(m, compute_uv=False).max(initial=0.0))


_STACK_CASES = dict(
    k=st.integers(1, 4),
    exponent=st.integers(-170, 170),
    zero=st.sampled_from(["none", "member", "all"]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["square", "tall", "wide"]),
    side=st.integers(1, 6),
    **_STACK_CASES,
)
@example(shape="tall", side=3, k=2, exponent=-170, zero="member", seed=0)
@example(shape="wide", side=3, k=3, exponent=170, zero="none", seed=1)
def test_spectral_norm_of_scaled_stacks_matches_svd(
    shape, side, k, exponent, zero, seed
):
    # Square, tall and wide blocks, alone or stacked; the Gram route must not
    # lose entries whose squares fall below the smallest double or above the
    # largest.
    rng = np.random.default_rng(seed)
    rows, cols = {
        "square": (side, side),
        "tall": (side + 2, side),
        "wide": (side, side + 3),
    }[shape]
    g = _scaled_stack(rng, k, rows, cols, exponent, zero)
    ref = _svd_norm(g)
    assert spectral_norm(g) == pytest.approx(ref, rel=1e-12, abs=0.0)
    if k == 1:
        assert spectral_norm(g[0]) == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(side=st.integers(1, 6), **_STACK_CASES)
@example(side=4, k=2, exponent=-170, zero="member", seed=2)
@example(side=4, k=2, exponent=170, zero="none", seed=3)
def test_spectral_norm_hints_on_scaled_stacks_match_svd(
    side, k, exponent, zero, seed
):
    rng = np.random.default_rng(seed)
    g = _scaled_stack(rng, k, side, side, exponent, zero)
    h = g + g.conj().swapaxes(-1, -2)
    for m, structure in ((h, "hermitian"), (1j * h, "antihermitian")):
        ref = _svd_norm(m)
        assert spectral_norm(m, structure=structure) == pytest.approx(
            ref, rel=1e-12, abs=0.0
        )
        assert spectral_norm(m) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_spectral_norm_of_subnormal_complex_input():
    # max|a| is subnormal, so 1/max|a| overflows; the scaled matrix must
    # still hold its zeros as zeros, not NaN, and its largest entry as 1.
    for tiny in (5e-320, 2.225073858507e-311, 4e-323):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1j * tiny
        m[2, 0] = 0.5 * tiny
        assert spectral_norm(m) == abs(m[0, 1])
        assert spectral_norm(m[None]) == abs(m[0, 1])
        assert spectral_norm(m.real) == abs(m[2, 0])


def test_spectral_norm_rejects_unknown_structure():
    with pytest.raises(ValueError, match="structure"):
        spectral_norm(np.eye(2), structure="unitary")


def test_spectral_norm_of_rectangular_block():
    m = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert spectral_norm(m) == pytest.approx(4.0, rel=1e-15)


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _reconstruct(dec):
    n = sum(len(idx) for idx in dec.sectors)
    out = np.zeros((n, n), dtype=complex)
    for idx, w, v in zip(dec.sectors, dec.eigenvalues, dec.eigenvectors):
        out[np.ix_(idx, idx)] = (v * w) @ v.conj().T
    return out


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decompose_reconstructs(seed):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, 8)
    dec = decompose(h)
    assert len(dec.sectors) == 1  # a dense H is one sector
    np.testing.assert_array_equal(dec.sectors[0], np.arange(8))
    np.testing.assert_allclose(_reconstruct(dec), h, atol=1e-10 * spectral_norm(h))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decompose_splits_a_hidden_block_structure(seed):
    # Three Hermitian blocks (one 1x1) scattered over a random permutation of
    # the basis: the sectors are exactly the blocks, and they reconstruct H.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(9)
    blocks = [perm[:4], perm[4:8], perm[8:]]
    h = np.zeros((9, 9), dtype=complex)
    for idx in blocks:
        h[np.ix_(idx, idx)] = _random_hermitian(rng, len(idx))
    dec = decompose(h)
    assert sorted(tuple(idx) for idx in dec.sectors) == sorted(
        tuple(sorted(idx)) for idx in blocks
    )
    np.testing.assert_allclose(_reconstruct(dec), h, atol=1e-10 * spectral_norm(h))


def test_decompose_finds_tfim_parity_sectors():
    # XX bonds and Z fields conserve prod Z: two sectors of 2^(L-1) states,
    # each of one parity.
    from lrlab.models import build_tfim, full_hamiltonian

    dec = decompose(full_hamiltonian(build_tfim(5)))
    parity = np.array([bin(b).count("1") % 2 for b in range(32)])
    assert [len(idx) for idx in dec.sectors] == [16, 16]
    for idx in dec.sectors:
        assert len(set(parity[idx])) == 1


def test_sector_pairs_follow_the_operator_pattern():
    from lrlab.models import build_tfim, full_hamiltonian

    dec = decompose(full_hamiltonian(build_tfim(3)))
    assert dec.sector_pairs(embed_dense(Z, (1,), (2, 2, 2))) == [(0, 0), (1, 1)]
    assert dec.sector_pairs(embed_dense(X, (1,), (2, 2, 2))) == [(0, 1), (1, 0)]
    assert dec.sector_pairs(np.zeros((8, 8))) == []


def test_heisenberg_evolution_single_qubit_oracle():
    # H = Z, A = X: ||[X(t), X]|| = 2 |sin 2t|.
    times = (0.0, 0.3, 1.1, 2.5)
    for t, a_t in zip(times, heisenberg_evolve(X, decompose(Z), times)):
        got = spectral_norm(commutator(a_t, X))
        assert got == pytest.approx(2.0 * abs(np.sin(2.0 * t)), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_heisenberg_evolution_matches_full_space_rotation(seed):
    # H with a hidden block structure and an A that links some sector pairs
    # and not others, against e^{iHt} A e^{-iHt} from one eigh of all of H.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(10)
    h = np.zeros((10, 10), dtype=complex)
    for idx in (perm[:3], perm[3:7], perm[7:]):
        h[np.ix_(idx, idx)] = _random_hermitian(rng, len(idx))
    a = _random_hermitian(rng, 10)
    a *= rng.random((10, 10)) < 0.3
    a = a + a.conj().T
    w, v = np.linalg.eigh(h)
    times = (0.0, 0.4, 1.7)
    for t, a_t in zip(times, heisenberg_evolve(a, decompose(h), times)):
        u = (v * np.exp(1j * w * t)) @ v.conj().T
        np.testing.assert_allclose(a_t, u @ a @ u.conj().T, atol=1e-11)


def test_heisenberg_evolution_preserves_spectrum():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 6)
    a = _random_hermitian(rng, 6)
    dec = decompose(h)
    (a_t,) = heisenberg_evolve(a, dec, (0.8,))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(a_t), np.linalg.eigvalsh(a), atol=1e-10
    )


def test_heisenberg_evolution_at_zero_is_identity_map():
    rng = np.random.default_rng(4)
    h = _random_hermitian(rng, 5)
    a = _random_hermitian(rng, 5)
    (a_0,) = heisenberg_evolve(a, decompose(h), (0.0,))
    np.testing.assert_allclose(a_0, a, atol=1e-12)
