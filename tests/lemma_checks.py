"""Two of the paper's intermediate statements, checked numerically: test
oracles.

`bounded_term_check` checks that bounded terms are commutator-bounded
(K <= 2 Ktilde^2, Q <= 4 Ktilde^3); `derivative_identity_check` checks the
evolution identity behind the chain recursion against a central difference
of the exact dynamics.  Neither is a step of any bound the package computes,
so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from lrlab.lattice import (
    TwoFamilyHamiltonian,
    compute_bound_constants,
    noncommuting_adjacency,
)
from lrlab.models import full_hamiltonian
from lrlab.operators import (
    commutator,
    decompose,
    embed_dense,
    heisenberg_evolve,
    spectral_norm,
)


def bounded_term_check(model) -> dict:
    """For models with bounded terms, Ktilde = max_i ||Phi^i|| over the bare
    payloads of both families controls the commutator constants:
    K <= 2 Ktilde^2 and Q <= 4 Ktilde^3, all in bare units, so no coupling
    enters.  Returns the three constants and whether both inequalities
    hold."""
    consts = compute_bound_constants(model, noncommuting_adjacency(model))
    ktilde = max(
        spectral_norm(t.payload, structure="hermitian") for t in model.terms
    )
    slack = 1e-9 * max(1.0, ktilde) ** 3
    ok = (consts.K <= 2.0 * ktilde**2 + slack) and (
        consts.Q <= 4.0 * ktilde**3 + slack
    )
    return {"Ktilde": ktilde, "K": consts.K, "Q": consts.Q, "ok": ok}


def _global_id(model: TwoFamilyHamiltonian, family: int, index: int) -> int:
    offset = len(model.family0) if family else 0
    for k, term in enumerate((model.family0, model.family1)[family]):
        if term.index == index:
            return offset + k
    raise ValueError(f"no term with family {family}, index {index}")


def derivative_identity_check(
    model: TwoFamilyHamiltonian,
    family_a: int,
    index_a: int,
    family_b: int,
    index_b: int,
    t: float,
    step: float = 1e-4,
) -> float:
    """Relative defect of the evolution identity for K(t) = [Phi_a^i(t), Phi_b^j].

    dK/dt is compared, as a central difference with the given step, against
    [K(t), -i h' sum Phi'(t)] + (-i h') sum [Phi_a^i(t), [Phi'(t), Phi_b^j]]
    where the sums run over the opposite-family terms that fail to commute
    with Phi_a^i.  Returns ||lhs - rhs|| / max(||rhs||, 1); the floor keeps
    the metric finite on commuting models where both sides vanish.
    """
    adj = noncommuting_adjacency(model)
    gid_a = _global_id(model, family_a, index_a)
    gid_b = _global_id(model, family_b, index_b)
    decomp = decompose(full_hamiltonian(model))
    dims = list(model.site_dims)

    terms = model.terms
    a_full = embed_dense(terms[gid_a].payload, terms[gid_a].support.sites, dims)
    b_full = embed_dense(terms[gid_b].payload, terms[gid_b].support.sites, dims)
    h_opp = (model.h0, model.h1)[1 - family_a]

    a_plus, a_minus, a_t = heisenberg_evolve(
        a_full, decomp, (t + step, t - step, t)
    )
    lhs = (commutator(a_plus, b_full) - commutator(a_minus, b_full)) / (2.0 * step)
    k_t = commutator(a_t, b_full)
    rhs = np.zeros_like(k_t)
    partner_sum = np.zeros_like(k_t)
    for gid in sorted(adj.zmap[gid_a]):
        term = terms[gid]
        (phi_t,) = heisenberg_evolve(
            embed_dense(term.payload, term.support.sites, dims), decomp, (t,)
        )
        partner_sum += phi_t
        rhs += (-1j * h_opp) * commutator(a_t, commutator(phi_t, b_full))
    rhs += commutator(k_t, -1j * h_opp * partner_sum)

    denom = max(spectral_norm(rhs), 1.0)
    return spectral_norm(lhs - rhs) / denom
