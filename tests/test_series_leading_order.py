"""The series bound at t -> 0: its leading coefficient against the exact
nested commutator.

On the TFIM with O_P = Z_0 (a field term) and O_Q = Z_d at d > R, both
sides of bound(t) >= ||[O_P(t), O_Q]|| start at the same order
n0 = 2d - 1: below it every chain misses Z_d (c_n = 0), and every nested
commutator [ad_H^n Z_0, Z_d] is exactly 0.  So as t -> 0,

    bound(t) / measured(t) -> M c_n0 rate^n0 / ||[ad_H^n0 Z_0, Z_d]||,

the ratio of the two t^n0 / n0! coefficients, with rate the series rate
sqrt(2 |h0 h1| K).  This checks M, the rate and the chain counts with no
time grid, tolerance or slack.  With r = max(|J|/|g|, |g|/|J|) the ratio does
not depend on d: it is 1 at J = g, where the series is exact at the light-cone
edge, sqrt(r) when |J| > |g|, and r^(3/2) when |g| > |J|.

The nested commutators come from the single-particle form.  With the
Majoranas c of `dynamics.free_fermion_sweep`, an operator i/4 sum W_ab c_a c_b
(W real antisymmetric) is carried by W: H by A = h - h^T, Z_p by W with
W[2p, 2p+1] = -2, and the commutator of two such operators by [W, W'] up to a
phase.  So ad_H^n Z_p is carried by W_n = A W_{n-1} - W_{n-1} A, and
||[ad_H^n Z_p, Z_q]|| = 1/4 sum |eig(i [W_n, W_q])|.  A dense computation on
8 sites holds that form to the full-space nested commutators.
"""

from __future__ import annotations

import numpy as np
import pytest

from lrlab.bounds import _series_rate
from lrlab.chains import count_chains_dp
from lrlab.lattice import (
    compute_bound_constants,
    noncommuting_adjacency,
    observable_from_sites,
    region,
)
from lrlab.models import PAULI_Z, build_tfim, full_hamiltonian
from lrlab.operators import embed_dense

LENGTH = 64
SEPARATIONS = range(3, 21)  # d > R = 2, orders n0 up to 39


def _z_generator(modes, site):
    w = np.zeros((modes, modes))
    w[2 * site, 2 * site + 1], w[2 * site + 1, 2 * site] = -2.0, 2.0
    return w


def _single_particle_nested(length, j, g, p, qs, n_top):
    """[n][q] = [W_n, W_q] for n <= n_top: the single-particle form of
    [ad_H^n Z_p, Z_q] on a `length`-site TFIM."""
    modes = 2 * length
    h = np.diag(-2.0 * np.where(np.arange(modes - 1) % 2, j, g), 1)
    a = h - h.T
    w = _z_generator(modes, p)
    out = []
    for _ in range(n_top + 1):
        out.append({q: w @ _z_generator(modes, q) - _z_generator(modes, q) @ w
                    for q in qs})
        w = a @ w - w @ a
    return out


def _norm(c):
    """||i/4 sum C_ab c_a c_b|| for a real antisymmetric C."""
    return 0.25 * float(np.abs(np.linalg.eigvalsh(1j * c)).sum())


def _leading_ratios(j, g):
    """{d: M c_n0 rate^n0 / ||[ad_H^n0 Z_0, Z_d]||} on a LENGTH-site TFIM,
    after holding both sides to exact zeros below n0 = 2d - 1."""
    model = build_tfim(LENGTH, j=j, g=g)
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    start = model.term_id(observable_from_sites(model, (0,), PAULI_Z, "Z@0"))
    rate = _series_rate(consts)
    n_top = 2 * max(SEPARATIONS) - 1
    nested = _single_particle_nested(LENGTH, j, g, 0, SEPARATIONS, n_top)
    ratios = {}
    for d in SEPARATIONS:
        n0 = 2 * d - 1
        table = count_chains_dp(adj, start, region(model.graph, (d,)), n0)
        assert [table.counts[n] for n in range(n0)] == [0] * n0
        assert [np.count_nonzero(nested[n][d]) for n in range(n0)] == [0] * n0
        assert table.counts[n0] > 0
        ratios[d] = consts.M * table.counts[n0] * rate**n0 / _norm(nested[n0][d])
    return ratios


@pytest.mark.parametrize("s", [1.0, -1.3])
def test_series_is_exact_at_the_light_cone_edge_at_equal_couplings(s):
    ratios = _leading_ratios(s, s)
    assert list(ratios.values()) == pytest.approx([1.0] * len(ratios), rel=1e-12)


@pytest.mark.parametrize(
    "j,g,power",
    [(1.0, 0.6, 0.5), (0.6, 1.0, 1.5), (0.5, 1.5, 1.5)],
)
def test_leading_ratio_is_a_power_of_the_coupling_ratio(j, g, power):
    r = max(abs(j / g), abs(g / j))
    ratios = _leading_ratios(j, g)
    want = r**power
    assert list(ratios.values()) == pytest.approx([want] * len(ratios), rel=1e-12)


@pytest.mark.parametrize("j,g", [(1.0, 1.0), (1.3, -0.7)])
def test_single_particle_form_matches_the_dense_nested_commutators(j, g):
    # Every O_Q of an 8-site chain through order 9, n0 of d = 5.  Dense
    # rounding grows with the order, so each order is compared relative to
    # its largest norm; the single-particle zeros are exact.
    length, n_top = 8, 9
    qs = range(1, length)
    model = build_tfim(length, j=j, g=g)
    dims = [2] * length
    h = full_hamiltonian(model)
    a = embed_dense(PAULI_Z, (0,), dims)
    zs = {q: embed_dense(PAULI_Z, (q,), dims) for q in qs}
    nested = _single_particle_nested(length, j, g, 0, qs, n_top)
    for n in range(n_top + 1):
        dense = [np.linalg.norm(a @ zs[q] - zs[q] @ a, 2) for q in qs]
        single = [_norm(nested[n][q]) for q in qs]
        assert single == pytest.approx(dense, rel=0, abs=1e-9 * max(dense))
        assert [x == 0.0 for x in single] == [n < 2 * q - 1 for q in qs]
        a = h @ a - a @ h

