"""The paper's commuting rewriting of the spin-boson chain: a test oracle.

No bound the package computes uses the rewriting; the tests check that its
terms commute pairwise and sum to the chain's Hamiltonian, so it lives with
them.
"""

from __future__ import annotations

import numpy as np

from lrlab.lattice import LocalTerm, TwoFamilyHamiltonian, region
from lrlab.models import PAULI_Z, mode_quadratures


def dicke_commuting_terms(model: TwoFamilyHamiltonian) -> tuple:
    """The rewriting h~_n = b_n (sigma^z_n - i sigma^z_{n-1}) + h.c.

    The h~_n commute pairwise exactly (each touches a single mode and only
    sigma^z spins) and sum to the same Hamiltonian as the h_n.
    """
    if model.name != "dicke_chain":
        raise ValueError("commuting rewriting defined for dicke_chain only")
    length = len(model.graph) // 2
    m = model.site_dims[0]
    p_op, q_op = mode_quadratures(m)
    out = []
    for n in range(length):
        if n == 0:
            sites = (0, 1)
            payload = np.kron(p_op, PAULI_Z)
        else:
            # Support (spin_{n-1}, mode_n, spin_n).
            sites = (2 * n - 1, 2 * n, 2 * n + 1)
            payload = np.kron(PAULI_Z, np.kron(q_op, np.eye(2))) + np.kron(
                np.eye(2), np.kron(p_op, PAULI_Z)
            )
        out.append(LocalTerm(n, region(model.graph, sites), payload))
    return tuple(out)
