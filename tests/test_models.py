"""Model builders: spectra, truncated ladders, and the spin-boson chain."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dicke_rewriting import dicke_commuting_terms
from lrlab.lattice import (
    occupation_projector_diagonal,
    pair_commutator_norm,
    validate_two_family,
)
from lrlab.models import (
    PAULI_Z,
    build_commuting_ising,
    build_dicke_chain,
    build_model,
    build_tfim,
    full_hamiltonian,
    ladder_lower,
    mode_quadratures,
)
from lrlab.operators import commutator, embed_dense, spectral_norm


def test_ladder_matrix_elements():
    b = ladder_lower(4)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    expected[2, 3] = math.sqrt(3.0)
    np.testing.assert_allclose(b, expected, atol=0)


def test_truncated_creation_norm():
    # ||b^dag|| at truncation 4 is sqrt(3), the largest retained sqrt(k).
    assert spectral_norm(ladder_lower(4).T) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_ladder_commutator_defect_sits_at_the_top():
    for m in (2, 3, 5):
        b = ladder_lower(m)
        d = commutator(b, b.T)
        expected = np.eye(m)
        expected[m - 1, m - 1] = -(m - 1.0)
        np.testing.assert_allclose(d, expected, atol=1e-12)


def test_quadratures_are_hermitian():
    p, q = mode_quadratures(5)
    np.testing.assert_allclose(p, p.conj().T, atol=0)
    np.testing.assert_allclose(q, q.conj().T, atol=0)


def test_tfim_two_site_spectrum():
    # J = g = 1 on two sites: eigenvalues -sqrt(5), -1, 1, sqrt(5).
    w = np.linalg.eigvalsh(full_hamiltonian(build_tfim(2)))
    np.testing.assert_allclose(
        w, [-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)], atol=1e-12
    )


def test_tfim_couplings_enter_hamiltonian():
    h = full_hamiltonian(build_tfim(2, j=0.0, g=2.0))
    np.testing.assert_allclose(h, 2.0 * np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-12)


def test_commuting_ising_has_empty_second_family():
    model = build_commuting_ising(5)
    assert model.family1 == ()
    assert model.h1 == 0.0
    assert validate_two_family(model) == ()


def test_build_model_dispatch_and_unknown_name():
    assert build_model("tfim", 3).name == "tfim"
    assert build_model("dicke_chain", 2, truncation=3).name == "dicke_chain"
    with pytest.raises(ValueError, match="unknown model"):
        build_model("xy_chain", 4)


def test_dicke_layout_is_a_path_of_modes_and_spins():
    model = build_dicke_chain(3, truncation=4)
    assert model.graph.site_count == 6
    assert model.site_dims == (4, 2, 4, 2, 4, 2)
    assert model.boson_sites == frozenset({0, 2, 4})
    assert model.graph.neighbours == ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4,))
    # Interior terms span (mode_n, spin_n, mode_{n+1}); the last term is the
    # open boundary.
    supports = [t.support.sites for t in sorted(model.terms, key=lambda t: t.index)]
    assert supports == [(0, 1, 2), (2, 3, 4), (4, 5)]
    assert validate_two_family(model) == ()


def test_dicke_families_split_by_parity():
    model = build_dicke_chain(4, truncation=3)
    assert [t.index for t in model.family0] == [0, 2]
    assert [t.index for t in model.family1] == [1, 3]


def test_dicke_adjacent_commutator_norms():
    for m in (2, 3, 4):
        model = build_dicke_chain(3, truncation=m)
        by_n = {t.index: t for t in model.terms}
        for n in (0, 1):
            full = pair_commutator_norm(model, by_n[n], by_n[n + 1])
            proj = pair_commutator_norm(model, by_n[n], by_n[n + 1], projected=True)
            assert full == pytest.approx(2.0 * (m - 1), abs=1e-9)
            assert proj == pytest.approx(2.0, abs=1e-9)


def test_dicke_commuting_rewrite_small():
    model = build_dicke_chain(2, truncation=3)
    terms = dicke_commuting_terms(model)
    dims = list(model.site_dims)
    total = sum(embed_dense(t.payload, t.support.sites, dims) for t in terms)
    np.testing.assert_allclose(total, full_hamiltonian(model), atol=1e-12)
    a = embed_dense(terms[0].payload, terms[0].support.sites, dims)
    b = embed_dense(terms[1].payload, terms[1].support.sites, dims)
    assert spectral_norm(commutator(a, b)) <= 1e-12


def test_dicke_commuting_rewrite_rejects_other_models():
    with pytest.raises(ValueError, match="dicke_chain"):
        dicke_commuting_terms(build_tfim(3))


def test_full_hamiltonian_dim_cap():
    model = build_dicke_chain(6, truncation=5)
    with pytest.raises(ValueError, match="exceeds cap"):
        full_hamiltonian(model)


def test_hilbert_dim_does_not_wrap():
    # A numpy product wraps to -2^63 at 63 qubits and to 0 at 64, which
    # would slip under the size cap; the cap must fire before any allocation.
    assert build_tfim(63).hilbert_dim == 2**63
    model = build_tfim(64)
    assert model.hilbert_dim == 2**64
    with pytest.raises(ValueError, match="exceeds cap"):
        full_hamiltonian(model)


def test_full_hamiltonian_real_when_possible():
    assert full_hamiltonian(build_tfim(3)).dtype == np.float64
    assert full_hamiltonian(build_dicke_chain(2, truncation=2)).dtype == np.complex128


def test_occupation_projector_diagonal():
    model = build_dicke_chain(2, truncation=3)
    keep = occupation_projector_diagonal(model, max_level=1)
    assert keep.shape == (36,)
    assert keep.sum() == 16  # (2 kept levels x 2 spin states)^2
    # The all-zero-occupation basis state is always kept.
    assert keep[0] == 1.0
    # At truncation 3 the interior (top level dropped) is occupation <= 1.
    np.testing.assert_array_equal(occupation_projector_diagonal(model), keep)
    np.testing.assert_array_equal(
        occupation_projector_diagonal(model, sites=(0, 1)),
        np.kron([1.0, 1.0, 0.0], [1.0, 1.0]),
    )


def test_pauli_z_matches_embedding_convention():
    h = full_hamiltonian(build_tfim(2, j=0.0, g=1.0))
    z0 = embed_dense(PAULI_Z, (0,), (2, 2))
    z1 = embed_dense(PAULI_Z, (1,), (2, 2))
    np.testing.assert_allclose(h, z0 + z1, atol=0)
