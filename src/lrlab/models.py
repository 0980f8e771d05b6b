"""Concrete lattice models exercised by the bounds.

Three builders share the two-family container:

* ``tfim``: transverse-field Ising chain; family 0 holds the X_i X_{i+1}
  bonds (coupling J), family 1 the Z_i fields (coupling g).
* ``commuting_ising``: the bonds alone; family 1 is empty, so every pair of
  terms commutes and the model carries zero Lieb-Robinson velocity.
* ``dicke_chain``: spins interleaved with truncated bosonic modes,
  h_n = sigma^z_n (b_n^dag + b_n) + i sigma^z_n (b_{n+1}^dag - b_{n+1}),
  families split by the parity of n.  Site 2k is mode k (dimension =
  truncation), site 2k+1 is spin k, so the interaction graph is a plain path
  of length 2N.
"""

from __future__ import annotations

import numpy as np

from .lattice import LocalTerm, TwoFamilyHamiltonian, build_graph, region
from .operators import embed_dense

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

FULL_HAMILTONIAN_DIM_CAP = 2**14


def ladder_lower(truncation: int) -> np.ndarray:
    """Truncated annihilation operator: b|k> = sqrt(k)|k-1>, k < truncation."""
    if truncation < 2:
        raise ValueError(f"truncation must be at least 2, got {truncation}")
    return np.diag(np.sqrt(np.arange(1.0, truncation)), 1)


def mode_quadratures(truncation: int):
    """(P, Qtilde) = (b^dag + b, i(b^dag - b)) at the given truncation."""
    b = ladder_lower(truncation)
    return b + b.T, 1j * (b.T - b)


def _path_graph(site_count: int):
    edges = [(i, i + 1) for i in range(site_count - 1)]
    return build_graph(site_count, edges)


def _xx_bonds(graph):
    """Family 0 of the Ising chains: the X_i X_{i+1} bonds of a path graph."""
    xx = np.kron(PAULI_X, PAULI_X)
    return tuple(
        LocalTerm(i, region(graph, (i, i + 1)), xx)
        for i in range(graph.site_count - 1)
    )


def build_tfim(length: int, j: float = 1.0, g: float = 1.0) -> TwoFamilyHamiltonian:
    if length < 2:
        raise ValueError("tfim needs at least 2 sites")
    graph = _path_graph(length)
    fields = tuple(
        LocalTerm(i, region(graph, (i,)), PAULI_Z.copy()) for i in range(length)
    )
    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=(2,) * length,
        family0=_xx_bonds(graph),
        family1=fields,
        h0=float(j),
        h1=float(g),
        name="tfim",
    )


def build_commuting_ising(length: int, j: float = 1.0) -> TwoFamilyHamiltonian:
    if length < 2:
        raise ValueError("commuting_ising needs at least 2 sites")
    graph = _path_graph(length)
    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=(2,) * length,
        family0=_xx_bonds(graph),
        family1=(),
        h0=float(j),
        h1=0.0,
        name="commuting_ising",
    )


def build_dicke_chain(
    length: int, h: float = 1.0, truncation: int = 4
) -> TwoFamilyHamiltonian:
    """Spin-boson chain of `length` spins and `length` truncated modes."""
    if length < 1:
        raise ValueError("dicke_chain needs at least 1 spin")
    m = int(truncation)
    site_count = 2 * length
    graph = _path_graph(site_count)
    dims = tuple(m if s % 2 == 0 else 2 for s in range(site_count))
    p_op, q_op = mode_quadratures(m)
    id_m = np.eye(m)

    terms = []
    for n in range(length):
        if n < length - 1:
            # Support (mode_n, spin_n, mode_{n+1}) in increasing site order.
            sites = (2 * n, 2 * n + 1, 2 * n + 2)
            payload = np.kron(p_op, np.kron(PAULI_Z, id_m)) + np.kron(
                id_m, np.kron(PAULI_Z, q_op)
            )
        else:
            # Open boundary: the last spin couples only to its own mode.
            sites = (2 * n, 2 * n + 1)
            payload = np.kron(p_op, PAULI_Z)
        terms.append(LocalTerm(n, region(graph, sites), payload))

    return TwoFamilyHamiltonian(
        graph=graph,
        site_dims=dims,
        family0=tuple(terms[0::2]),
        family1=tuple(terms[1::2]),
        h0=float(h),
        h1=float(h),
        boson_sites=frozenset(range(0, site_count, 2)),
        name="dicke_chain",
    )


def build_model(name: str, length: int, **kwargs) -> TwoFamilyHamiltonian:
    """Dispatch on model name; kwargs are the model's couplings/truncation."""
    builders = {
        "tfim": build_tfim,
        "commuting_ising": build_commuting_ising,
        "dicke_chain": build_dicke_chain,
    }
    if name not in builders:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(builders)}")
    return builders[name](length, **kwargs)


def full_space_dim(model: TwoFamilyHamiltonian) -> int:
    """The Hilbert dimension, refused above FULL_HAMILTONIAN_DIM_CAP: every
    full-space route asks this before it builds a full-space array."""
    dim = model.hilbert_dim
    if dim > FULL_HAMILTONIAN_DIM_CAP:
        raise ValueError(
            f"Hilbert dimension {dim} exceeds cap {FULL_HAMILTONIAN_DIM_CAP}"
        )
    return dim


def full_hamiltonian(model: TwoFamilyHamiltonian) -> np.ndarray:
    """Dense H on the full Hilbert space, refused above FULL_HAMILTONIAN_DIM_CAP."""
    dim = full_space_dim(model)
    real = all(np.isrealobj(t.payload) for t in model.terms)
    h = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    dims = list(model.site_dims)
    for coupling, family in ((model.h0, model.family0), (model.h1, model.family1)):
        for term in family:
            h += coupling * embed_dense(term.payload, term.support.sites, dims)
    return h

