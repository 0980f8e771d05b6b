"""Chain counting: frozen TFIM values, DP vs enumeration, envelopes.

The frozen counts come from enumerating admissible sequences by hand for the
leading orders (the d = 3 chain at order 5 is unique: bond, field, bond,
field, bond marching one site per bond) and from the brute-force enumerator
for the rest; the DP must reproduce them exactly as integers.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.chains import (
    ChainCountTable,
    closed_form_chain_bound,
    count_chains_bruteforce,
    count_chains_dp,
)
from lrlab.lattice import (
    NoncommutingAdjacency,
    SupportRegion,
    compute_bound_constants,
    noncommuting_adjacency,
    region,
)
from lrlab.models import build_tfim


@pytest.fixture(scope="module")
def tfim6():
    model = build_tfim(6)
    return model, noncommuting_adjacency(model)


def test_tfim_counts_frozen_d3(tfim6):
    model, adj = tfim6
    start = 5  # field on site 0; bonds occupy global ids 0..4
    target = region(model.graph, (3,))
    table = count_chains_dp(adj, start, target, 8)
    assert [table.counts[n] for n in range(9)] == [0, 0, 0, 0, 0, 1, 6, 25, 93]


def test_tfim_start_on_target_counts_order_zero(tfim6):
    model, adj = tfim6
    table = count_chains_dp(adj, 5, region(model.graph, (0,)), 2)
    assert table.counts[0] == 1


def test_dp_equals_bruteforce_all_targets(tfim6):
    model, adj = tfim6
    for site in range(6):
        target = region(model.graph, (site,))
        for start in (0, 5, 8):
            dp = count_chains_dp(adj, start, target, 6)
            bf = count_chains_bruteforce(adj, start, target, 6)
            assert dp.counts == bf.counts


def test_reachability_cutoff(tfim6):
    # R = 2: an order-n chain reaches at most 2n sites of separation.
    model, adj = tfim6
    consts = compute_bound_constants(model, adj)
    d = 5
    table = count_chains_dp(adj, 5, region(model.graph, (d,)), 8)
    for n in range(9):
        if consts.R * n < d:
            assert table.counts[n] == 0
            assert closed_form_chain_bound(consts, n, d) == 0.0


def test_envelope_dominates_counts(tfim6):
    model, adj = tfim6
    nu = adj.nu
    table = count_chains_dp(adj, 5, region(model.graph, (2,)), 10)
    for n in range(11):
        assert table.counts[n] <= 2 ** (n // 2) * nu**n


def test_closed_form_sample_value():
    model = build_tfim(8)
    consts = compute_bound_constants(model, noncommuting_adjacency(model), lam=1.0)
    # nu=2, R=2: at n=3, d=5 the envelope is (2 sqrt 2)^3 e^{1*(6-5)}.
    val = closed_form_chain_bound(consts, 3, 5)
    assert val == pytest.approx((2.0 * math.sqrt(2.0)) ** 3 * math.e, rel=1e-12)
    assert val == pytest.approx(61.49, rel=1e-2)


def test_bruteforce_order_cap():
    model = build_tfim(4)
    adj = noncommuting_adjacency(model)
    with pytest.raises(ValueError, match="capped"):
        count_chains_bruteforce(adj, 0, region(model.graph, (3,)), 11)


def test_unknown_start_rejected(tfim6):
    model, adj = tfim6
    with pytest.raises(ValueError, match="start"):
        count_chains_dp(adj, 99, region(model.graph, (3,)), 4)
    with pytest.raises(ValueError, match="start term id 99 not in adjacency"):
        count_chains_bruteforce(adj, 99, region(model.graph, (3,)), 4)


def _random_adjacency(rng):
    """Random bipartite noncommuting structure over a handful of terms."""
    n0 = int(rng.integers(1, 4))
    n1 = int(rng.integers(1, 4))
    total = n0 + n1
    on_site = {}  # site -> ids of the terms on it
    for i in range(total):
        for s in rng.choice(6, size=int(rng.integers(1, 3)), replace=False):
            on_site.setdefault(int(s), []).append(i)
    zsets = {i: set() for i in range(total)}
    pair_norms = {}
    for i in range(n0):
        for j in range(n0, total):
            if rng.random() < 0.6:
                zsets[i].add(j)
                zsets[j].add(i)
                pair_norms[(i, j)] = 1.0
    return NoncommutingAdjacency(
        zmap={i: frozenset(z) for i, z in zsets.items()},
        on_site=on_site,
        pair_norms=pair_norms,
        projected=False,
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dp_equals_bruteforce_random_structures(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    adj = _random_adjacency(rng)
    target = SupportRegion(sites=tuple(sorted(rng.choice(6, size=2, replace=False))))
    nu = adj.nu
    for start in adj.zmap:
        dp = count_chains_dp(adj, start, target, 5)
        bf = count_chains_bruteforce(adj, start, target, 5)
        assert dp.counts == bf.counts
        for n in range(6):
            assert dp.counts[n] <= 2 ** (n // 2) * nu**n


def test_dp_equals_bruteforce_where_neighbourhoods_overlap():
    # Three mutually noncommuting terms: Z(l) and Z(p) share a term, which a
    # sequence step must count once (a two-family adjacency never shows this).
    adj = NoncommutingAdjacency(
        zmap={i: frozenset({0, 1, 2} - {i}) for i in range(3)},
        on_site={i: [i] for i in range(3)},
        pair_norms={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        projected=False,
    )
    for site in range(3):
        target = SupportRegion(sites=(site,))
        dp = count_chains_dp(adj, 0, target, 7)
        assert dp.counts == count_chains_bruteforce(adj, 0, target, 7).counts
