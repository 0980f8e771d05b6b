"""Graph machinery, structural validation, and bound-constant extraction."""

from __future__ import annotations

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import lattice
from lrlab.lattice import (
    BoundConstants,
    LocalTerm,
    SupportRegion,
    TwoFamilyHamiltonian,
    build_graph,
    compute_bound_constants,
    noncommuting_adjacency,
    observable_conditions,
    observable_from_sites,
    occupation_projector_diagonal,
    operator_norm_on_union,
    region,
    region_distance,
    region_distances,
    validate_two_family,
)
from lrlab.models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    build_commuting_ising,
    build_dicke_chain,
    build_tfim,
)
from lrlab.operators import (
    HERMITICITY_TOL,
    NumericalError,
    commutator,
    decompose,
    embed_dense,
    hermiticity_defect,
    spectral_norm,
)


def _overlap(a: SupportRegion, b: SupportRegion) -> bool:
    return not set(a.sites).isdisjoint(b.sites)


def _site_distance(g, a, b):
    return region_distance(g, region(g, (a,)), region(g, (b,)))


def test_build_graph_path_distances():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _site_distance(g, 0, 3) == 3
    assert _site_distance(g, 2, 2) == 0
    assert all(
        _site_distance(g, a, b) == _site_distance(g, b, a)
        for a in range(4)
        for b in range(4)
    )


def test_build_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self loop"):
        build_graph(2, [(0, 0), (0, 1)])


def test_build_graph_single_site_allows_no_edges():
    g = build_graph(1, [])
    assert len(g) == 1
    assert _site_distance(g, 0, 0) == 0


def test_build_graph_multi_site_requires_edges():
    with pytest.raises(ValueError, match="empty"):
        build_graph(3, [])


def test_build_graph_and_region_refuse_sites_outside_the_graph():
    with pytest.raises(ValueError, match="site_count must be positive, got 0"):
        build_graph(0, [])
    with pytest.raises(ValueError, match=r"edge \(1, 3\) outside 0..2"):
        build_graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) outside 0..2"):
        build_graph(3, [(-1, 0)])
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="support region must be nonempty"):
        region(g, ())
    with pytest.raises(ValueError, match=r"sites \(1, 3\) outside graph"):
        region(g, (3, 1))
    with pytest.raises(ValueError, match=r"sites \(-1,\) outside graph"):
        region(g, (-1,))


def test_a_model_with_no_terms_has_branching_number_zero():
    g = build_graph(2, [(0, 1)])
    adj = noncommuting_adjacency(TwoFamilyHamiltonian(g, (2, 2), (), (), 1.0, 1.0))
    assert adj.zmap == {} and adj.pair_norms == {}
    assert adj.nu == 0


def test_region_diameter_and_distance():
    g = build_graph(5, [(i, i + 1) for i in range(4)])
    r = region(g, (1, 3))
    # The diameter 2 of a term on r gives R = 3.
    term = LocalTerm(0, r, np.eye(4))
    model = TwoFamilyHamiltonian(g, (2,) * 5, (term,), (), 1.0, 0.0)
    assert model.locality_radius == 2 + 1
    assert region_distance(g, r, region(g, (4,))) == 1
    assert region_distance(g, r, region(g, (3, 4))) == 0


def _all_pairs_distances(n, edges) -> dict:
    """Oracle: a breadth-first search from every site; (s, t) -> distance,
    with no entry where t cannot be reached from s."""
    adj = {s: set() for s in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {}
    for src in range(n):
        dist[src, src] = 0
        queue = collections.deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if (src, v) not in dist:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    return dist


@st.composite
def _connected_graphs(draw):
    """(site count, edges) of a path, cycle, 2 x k ladder or random tree of
    at most 12 sites, its sites relabelled at random."""
    kind = draw(st.sampled_from(["path", "cycle", "ladder", "tree"]))
    if kind == "ladder":
        k = draw(st.integers(1, 6))
        n = 2 * k
        edges = [(i, i + k) for i in range(k)]
        edges += [(i + r, i + r + 1) for r in (0, k) for i in range(k - 1)]
    else:
        n = draw(st.integers(3 if kind == "cycle" else 1, 12))
        if kind == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "cycle":
            edges = [(i, (i + 1) % n) for i in range(n)]
        else:
            edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in edges]


@settings(max_examples=150, deadline=None)
@given(graph=_connected_graphs(), data=st.data())
def test_distances_and_radius_match_an_all_pairs_bfs(graph, data):
    n, edges = graph
    g = build_graph(n, edges)
    dist = _all_pairs_distances(n, edges)
    for s in range(n):
        for t in range(n):
            assert _site_distance(g, s, t) == dist[s, t]
    sites = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    a, b = data.draw(sites), data.draw(sites)
    assert region_distance(g, region(g, a), region(g, b)) == min(
        dist[s, t] for s in a for t in b
    )
    # One search from a serves every region: the same integers, in order.
    many = [region(g, r) for r in data.draw(st.lists(sites, max_size=5))]
    assert region_distances(g, region(g, a), many) == tuple(
        region_distance(g, region(g, a), r) for r in many
    )
    supports = data.draw(st.lists(sites, min_size=1, max_size=4))
    terms = tuple(
        LocalTerm(i, region(g, sup), np.eye(2 ** len(sup)))
        for i, sup in enumerate(supports)
    )
    model = TwoFamilyHamiltonian(g, (2,) * n, terms, (), 1.0, 0.0)
    assert model.locality_radius == 1 + max(
        dist[s, t] for sup in supports for s in sup for t in sup
    )


@settings(max_examples=150, deadline=None)
@given(graph=_connected_graphs(), data=st.data())
def test_build_graph_refuses_exactly_the_disconnected_graphs(graph, data):
    # Any subset of a connected graph's edges, connected or not.
    n, edges = graph
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    kept = [e for e, k in zip(edges, keep) if k]
    dist = _all_pairs_distances(n, kept)
    if all((0, t) in dist for t in range(n)):
        assert len(build_graph(n, kept)) == n
    else:
        with pytest.raises(ValueError, match="not connected" if kept else "empty"):
            build_graph(n, kept)


@settings(max_examples=100, deadline=None)
@given(graph=_connected_graphs(), data=st.data())
def test_graphs_and_models_from_reordered_edge_lists_are_equal(graph, data):
    # The neighbour tuples are the whole graph: the order of the edge list,
    # the order of each edge's ends and a repeated edge change nothing.
    n, edges = graph
    other = [
        (b, a) if flip else (a, b)
        for (a, b), flip in zip(
            data.draw(st.permutations(edges + edges[:1])),
            data.draw(st.lists(st.booleans(), min_size=len(edges) + 1,
                               max_size=len(edges) + 1)),
        )
    ]
    g, h = build_graph(n, edges), build_graph(n, other)
    assert g == h and hash(g) == hash(h)
    assert len(g) == n
    assert all(list(nb) == sorted(nb) for nb in g)
    assert {(s, t) for s, nb in enumerate(g) for t in nb} == {
        e for a, b in edges for e in ((a, b), (b, a))
    }

    def model(graph):
        fields = tuple(LocalTerm(s, region(graph, (s,)), PAULI_Z) for s in range(n))
        return TwoFamilyHamiltonian(graph, (2,) * n, fields, (), 1.0, 0.0)

    assert model(g) == model(h) and hash(model(g)) == hash(model(h))


def test_build_tfim_holds_no_all_pairs_array():
    # The graph keeps each site's neighbours; an L x L int64 distance
    # matrix alone would hold 8.4 MB at L = 1024.
    tracemalloc.start()
    try:
        model = build_tfim(1024)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.graph) == 1024
    assert held < 4_000_000


def test_observable_from_sites_rejects_non_hermitian_payload():
    # The sweep's b - b^dagger and its half-block norm, and the structure
    # hints of the union norms, all assume a Hermitian observable.
    model = build_tfim(3)
    ladder = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        observable_from_sites(model, (1,), ladder)
    with pytest.raises(ValueError, match="not Hermitian"):
        observable_from_sites(model, (1,), PAULI_Z + 1e-8j * PAULI_X)
    # Rounding below HERMITICITY_TOL is accepted, and so is a complex one.
    observable_from_sites(model, (1,), PAULI_Z + 1e-14 * ladder)
    observable_from_sites(model, (1,), PAULI_Y)


def test_observable_from_sites_rejects_a_payload_of_the_wrong_size():
    model = build_tfim(3)
    with pytest.raises(ValueError, match="support dim 4"):
        observable_from_sites(model, (0, 1), PAULI_Z)


def test_validate_tfim_passes():
    assert validate_two_family(build_tfim(5)) == ()


def test_validate_reports_noncommuting_family_without_raising():
    # Put an X field and a Z field on the same site into one family.
    g = build_graph(2, [(0, 1)])
    bad = TwoFamilyHamiltonian(
        graph=g,
        site_dims=(2, 2),
        family0=(
            LocalTerm(0, region(g, (0,)), PAULI_Z.copy()),
            LocalTerm(1, region(g, (0,)), PAULI_X.copy()),
        ),
        family1=(),
        h0=1.0,
        h1=0.0,
    )
    assert any("do not commute" in f for f in validate_two_family(bad))


def test_model_refuses_a_non_hermitian_payload():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="term 0:0 payload not Hermitian"):
        TwoFamilyHamiltonian(
            graph=g,
            site_dims=(2, 2),
            family0=(LocalTerm(0, region(g, (0,)), np.array([[0.0, 1.0], [0.0, 0.0]])),),
            family1=(),
            h0=1.0,
            h1=0.0,
        )


def _off_hermitian(scale, factor):
    """A 2x2 payload with max|A| = scale whose max|A - A^dagger| is `factor`
    times the Hermiticity tolerance at that scale."""
    dev = factor * HERMITICITY_TOL * max(1.0, scale)
    return np.array([[scale, dev], [0.0, -scale]])


@pytest.mark.parametrize(
    "payload,hermitian",
    [
        (_off_hermitian(0.5, 0.99), True),
        (_off_hermitian(0.5, 1.01), False),
        (_off_hermitian(5.0, 0.99), True),
        (_off_hermitian(5.0, 1.01), False),
        # A NaN compares false with every tolerance; it must not pass.
        (np.array([[np.nan, 1.0], [0.0, 1.0]]), False),
    ],
    ids=["under@0.5", "over@0.5", "under@5", "over@5", "nan"],
)
def test_hermiticity_entry_points_agree_at_the_tolerance(payload, hermitian):
    # The observable check, the model's check of a term and the
    # eigendecomposition share one test, max|A - A^dagger| against
    # HERMITICITY_TOL * max(1, max|A|): just under it all three accept, just
    # over it all three reject.
    g = build_graph(1, [])
    verdicts = []
    try:
        TwoFamilyHamiltonian(
            graph=g,
            site_dims=(2,),
            family0=(LocalTerm(0, region(g, (0,)), payload),),
            family1=(),
            h0=1.0,
            h1=0.0,
        )
        verdicts.append(True)
    except ValueError as e:
        assert "term 0:0 payload not Hermitian" in str(e)
        verdicts.append(False)
    try:
        observable_from_sites(build_tfim(2), (0,), payload)
        verdicts.append(True)
    except ValueError as e:
        assert "not Hermitian" in str(e)
        verdicts.append(False)
    try:
        decompose(payload)
        verdicts.append(True)
    except NumericalError as e:
        assert "not Hermitian" in str(e)
        verdicts.append(False)
    assert verdicts == [hermitian] * 3


_RAISING = np.array([[0.0, 1.0], [0.0, 0.0]])


def _refuse_norms(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a commutator norm was taken")

    monkeypatch.setattr(lattice, "operator_norm_on_union", refused)


def test_model_refuses_a_non_hermitian_term_instead_of_trusting_it_to_commute(
    monkeypatch,
):
    # sigma^+ on site 1 and Z1 Z2 do not commute: their bracket is
    # -2 sigma^+_1 Z_2, which has entries above the diagonal only, so a norm
    # that trusted the anti-Hermitian hint would read it from the empty lower
    # triangle as 0 and call the pair commuting.  No such model is built,
    # and refusing it takes no norm.
    _refuse_norms(monkeypatch)
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError) as exc:
        TwoFamilyHamiltonian(
            graph=g,
            site_dims=(2, 2, 2),
            family0=(
                LocalTerm(0, region(g, (0, 1)), np.kron(np.eye(2), _RAISING)),
                LocalTerm(1, region(g, (1, 2)), np.kron(PAULI_Z, PAULI_Z)),
            ),
            family1=(),
            h0=1.0,
            h1=0.0,
        )
    assert str(exc.value) == "term 0:0 payload not Hermitian (dev 1.000e+00)"


def test_model_refuses_a_misshapen_term(monkeypatch):
    # A 3x3 payload on one qubit cannot be embedded.  The refusal names
    # every offending term, of both families, and takes no norm.
    _refuse_norms(monkeypatch)
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError) as exc:
        TwoFamilyHamiltonian(
            graph=g,
            site_dims=(2, 2),
            family0=(
                LocalTerm(0, region(g, (0,)), np.eye(3)),
                LocalTerm(1, region(g, (0, 1)), np.kron(PAULI_Z, PAULI_Z)),
            ),
            family1=(LocalTerm(0, region(g, (1,)), _RAISING),),
            h0=1.0,
            h1=0.0,
        )
    assert str(exc.value) == (
        "term 0:0 payload shape (3, 3) != support dim 2; "
        "term 1:0 payload not Hermitian (dev 1.000e+00)"
    )


@pytest.mark.parametrize("site_dims", [(2, 2), (2, 2, 2, 2)], ids=["short", "long"])
def test_model_refuses_site_dims_of_another_length_before_any_check(
    monkeypatch, site_dims
):
    # Too few dimensions would fail inside the payload check with a bare
    # IndexError; too many would give a Hilbert dimension of sites that the
    # graph does not have.  One ValueError names both lengths, before any
    # payload is checked or any norm taken.
    _refuse_norms(monkeypatch)

    def unchecked(*args):
        raise AssertionError("a payload was checked")

    monkeypatch.setattr(lattice, "_payload_failure", unchecked)
    g = build_graph(3, [(0, 1), (1, 2)])
    fields = tuple(LocalTerm(s, region(g, (s,)), PAULI_Z) for s in range(3))
    with pytest.raises(ValueError) as exc:
        TwoFamilyHamiltonian(g, site_dims, fields, (), 1.0, 0.0)
    assert str(exc.value) == (
        f"site_dims has {len(site_dims)} entries for a graph of 3 sites"
    )


def test_model_reports_a_shared_payload_for_each_term_that_holds_it():
    # One array on three terms is checked once per support dimension, yet
    # the refusal still names every term that holds it, in order.
    g = build_graph(3, [(0, 1), (1, 2)])
    shared = tuple(LocalTerm(s, region(g, (s,)), _RAISING) for s in range(3))
    with pytest.raises(ValueError) as exc:
        TwoFamilyHamiltonian(g, (2, 2, 2), (), shared, 1.0, 1.0)
    assert str(exc.value) == "; ".join(
        f"term 1:{s} payload not Hermitian (dev 1.000e+00)" for s in range(3)
    )
    # The same array on a site of another dimension gets its own verdict.
    z_fields = tuple(LocalTerm(s, region(g, (s,)), PAULI_Z) for s in range(3))
    with pytest.raises(ValueError) as exc:
        TwoFamilyHamiltonian(g, (2, 3, 2), z_fields, (), 1.0, 0.0)
    assert str(exc.value) == "term 0:1 payload shape (2, 2) != support dim 3"


def _payload_failures(site_dims, families) -> tuple:
    """Oracle: the shape and Hermiticity failures of a model's terms, built
    or not, family 0 first."""
    failures = []
    for fam, terms in enumerate(families):
        for term in terms:
            d = math.prod(int(site_dims[s]) for s in term.support.sites)
            if term.payload.shape != (d, d):
                failures.append(
                    f"term {fam}:{term.index} payload shape {term.payload.shape} "
                    f"!= support dim {d}"
                )
                continue
            dev = hermiticity_defect(term.payload)
            if dev is not None:
                failures.append(
                    f"term {fam}:{term.index} payload not Hermitian (dev {dev:.3e})"
                )
    return tuple(failures)


def _all_pairs_validate(model) -> tuple:
    """Oracle: the structural check over every same-family pair, the
    disjoint ones included (they commute and report nothing); the failures
    in the order `validate_two_family` gives them."""
    failures = []
    for fam, terms in ((0, model.family0), (1, model.family1)):
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                overlap = _overlap(a.support, b.support)
                nrm = operator_norm_on_union(model, (a, b)) if overlap else 0.0
                if nrm > lattice.INTRA_FAMILY_TOL:
                    failures.append(
                        f"family {fam} terms {a.index},{b.index} do not commute "
                        f"(norm {nrm:.3e})"
                    )
    return tuple(failures)


@st.composite
def _structural_models(draw):
    """The data of a two-family model of up to 7 terms on a small graph,
    (graph, site dims, (family0, family1)): Pauli products on one to three
    sites, which may fail to commute within a family, a payload of the
    wrong shape or a non-Hermitian factor."""
    n, edges = draw(_connected_graphs())
    g = build_graph(n, edges)
    families = ([], [])
    for index in range(draw(st.integers(0, 7))):
        sites = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        factors = [draw(st.sampled_from([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]))
                   for _ in sites]
        kind = draw(st.sampled_from(["pauli"] * 6 + ["misshapen", "non-hermitian"]))
        if kind == "non-hermitian":
            factors[0] = _RAISING
        payload = factors[0]
        for f in factors[1:]:
            payload = np.kron(payload, f)
        if kind == "misshapen":
            payload = np.eye(2 ** len(sites) + 1)
        fam = draw(st.integers(0, 1))
        families[fam].append(LocalTerm(index, region(g, sites), payload))
    return g, (2,) * n, (tuple(families[0]), tuple(families[1]))


@settings(max_examples=150, deadline=None)
@given(data=_structural_models())
def test_validate_visits_overlapping_pairs_and_keeps_the_all_pairs_failures(data):
    # The model refuses exactly the data with a shape or Hermiticity
    # failure, naming each; on the rest the walk over overlapping pairs
    # finds the all-pairs commutation failures.
    graph, site_dims, families = data
    refused = _payload_failures(site_dims, families)
    if refused:
        with pytest.raises(ValueError) as exc:
            TwoFamilyHamiltonian(graph, site_dims, *families, 1.0, 1.0)
        assert str(exc.value) == "; ".join(refused)
    else:
        model = TwoFamilyHamiltonian(graph, site_dims, *families, 1.0, 1.0)
        assert validate_two_family(model) == _all_pairs_validate(model)


def test_validate_measures_only_overlapping_pairs(monkeypatch):
    # A 1024-site TFIM: 1,022 overlapping pairs of neighbouring bonds; the
    # fields are disjoint, and so are bonds further apart.
    calls = []

    def counted(model, ops, projected=False):
        calls.append(tuple(op.index for op in ops))
        return operator_norm_on_union(model, ops, projected)

    monkeypatch.setattr(lattice, "operator_norm_on_union", counted)
    assert validate_two_family(build_tfim(1024)) == ()
    assert calls == [(i, i + 1) for i in range(1022)]


def test_term_id_finds_each_term_by_its_own_payload_only():
    model = build_tfim(5)
    for gid, term in enumerate(model.terms):
        obs = observable_from_sites(model, term.support.sites, term.payload)
        assert model.term_id(obs) == gid
    ising = build_commuting_ising(5)
    for s in range(5):
        assert model.term_id(observable_from_sites(model, (s,), PAULI_X)) is None
        # A multiple of a term is not the term: the series takes no scale.
        two_z = observable_from_sites(model, (s,), 2.0 * PAULI_Z)
        assert model.term_id(two_z) is None
        assert ising.term_id(observable_from_sites(ising, (s,), PAULI_Z)) is None


def test_tfim_adjacency_structure():
    model = build_tfim(6)
    adj = noncommuting_adjacency(model)
    n_bonds = 5
    # A bond fails to commute with the two fields under it; an interior field
    # with the two bonds over it, an edge field with one.
    assert adj.nu == 2
    assert adj.zmap[0] == frozenset({n_bonds + 0, n_bonds + 1})
    assert adj.zmap[n_bonds + 0] == frozenset({0})
    assert adj.zmap[n_bonds + 2] == frozenset({1, 2})
    for (i, j), nrm in adj.pair_norms.items():
        assert nrm == pytest.approx(2.0, abs=1e-12)
    assert adj.projected is False
    assert noncommuting_adjacency(model, projected=True).projected is True


@settings(max_examples=100, deadline=None)
@given(
    supports=st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=3), min_size=1, max_size=8
    ),
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10),
    query=st.sets(st.integers(0, 7), min_size=1, max_size=3),
)
def test_indexed_touching_and_pairs_meeting_match_a_full_scan(supports, pairs, query):
    # The model's index, and the adjacency it is lent to.  Pairs in a random
    # insertion order, ids past the last term included; pairs_meeting keeps
    # the insertion order of pair_norms.
    g = build_graph(8, [(i, i + 1) for i in range(7)])
    terms = tuple(
        LocalTerm(i, region(g, s), np.eye(2 ** len(s)))
        for i, s in enumerate(supports)
    )
    model = TwoFamilyHamiltonian(g, (2,) * 8, terms, (), 1.0, 0.0)
    adj = lattice.NoncommutingAdjacency(
        zmap={gid: frozenset() for gid in range(len(terms))},
        on_site=model.on_site,
        pair_norms=dict.fromkeys(pairs, 1.0),
        projected=False,
    )
    target = SupportRegion(sites=tuple(sorted(query)))
    near = frozenset(gid for gid, t in enumerate(terms) if _overlap(t.support, target))
    assert model.touching(target) == near
    assert adj.touching(target) == near
    assert adj.pairs_meeting(target) == [
        (i, j) for i, j in adj.pair_norms if i in near or j in near
    ]


@pytest.mark.parametrize(
    "model",
    [build_tfim(7), build_commuting_ising(5), build_dicke_chain(3, truncation=2)],
    ids=["tfim", "commuting_ising", "dicke"],
)
def test_adjacency_visits_only_overlapping_pairs_and_keeps_the_full_scan(
    model, monkeypatch
):
    # Every cross-family pair, in the same order, against the pairs visited.
    terms, n0 = model.terms, len(model.family0)
    full, overlapping = {}, 0
    for i in range(n0):
        for j in range(n0, len(terms)):
            overlapping += _overlap(terms[i].support, terms[j].support)
            nrm = operator_norm_on_union(model, (terms[i], terms[j]))
            if nrm > lattice.NONCOMMUTING_TOL:
                full[(i, j)] = nrm
    visited = []

    def recorded(model, ops, projected=False):
        visited.append(_overlap(*(op.support for op in ops)))
        return operator_norm_on_union(model, ops, projected)

    monkeypatch.setattr(lattice, "operator_norm_on_union", recorded)
    adj = noncommuting_adjacency(model)
    assert list(adj.pair_norms.items()) == list(full.items())
    assert all(visited)
    assert len(visited) == overlapping


def _constants(model, lam=None):
    return compute_bound_constants(model, noncommuting_adjacency(model), lam=lam)


def test_tfim_constants_frozen_values():
    consts = _constants(build_tfim(8))
    assert consts.K == pytest.approx(2.0, abs=1e-12)
    assert consts.Q == pytest.approx(4.0, abs=1e-12)
    assert consts.nu == 2
    assert consts.R == 2
    assert consts.gamma == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert consts.xi == pytest.approx(0.5, abs=0)
    assert consts.lam == pytest.approx(0.5, abs=0)
    assert consts.M == pytest.approx(2.0, abs=1e-12)
    assert consts.Mtilde == 1.0
    assert consts.Mtildetilde == pytest.approx(2.0, abs=1e-12)
    assert consts.v_lr == pytest.approx(16.0 * math.e, rel=1e-12)
    assert not consts.zero_velocity


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize(
    "model,R",
    [(build_tfim(6), 2), (build_commuting_ising(5), 2),
     (build_dicke_chain(3, truncation=3), 3)],
    ids=["tfim", "commuting_ising", "dicke_chain"],
)
def test_locality_radius_is_the_constants_r(model, R, projected):
    # The model owns R, from its supports alone; the constants read it.
    adj = noncommuting_adjacency(model, projected=projected)
    assert model.locality_radius == compute_bound_constants(model, adj).R == R


@pytest.mark.parametrize(
    "model,decoupled",
    [(build_tfim(6), False), (build_tfim(6, j=-0.5, g=2.0), False),
     (build_tfim(6, g=0.0), True), (build_tfim(6, j=-0.0), True),
     (build_commuting_ising(5), True), (build_dicke_chain(2, h=0.0), True),
     (build_dicke_chain(2, truncation=3), False)],
    ids=["tfim", "tfim-signed", "tfim-g0", "tfim-j-0", "commuting_ising",
         "dicke-h0", "dicke"],
)
def test_a_decoupled_model_has_zero_velocity(model, decoupled):
    # The model decides v_LR = 0 from its families and couplings alone,
    # before any norm; a decoupled model's coupling ratio is 1.
    assert model.decoupled is decoupled
    assert _constants(model).zero_velocity is decoupled
    if decoupled:
        assert lattice._coupling_ratio(model) == 1.0


def test_velocity_scales_as_sqrt_h0_h1():
    # v_LR is a rate, 2 (gamma/xi) e sqrt(|h0 h1| K) with K bare: one
    # coupling per order of t.
    base = _constants(build_tfim(6, j=1.0, g=1.0))
    dbl_j = _constants(build_tfim(6, j=2.0, g=1.0))
    dbl_g = _constants(build_tfim(6, j=1.0, g=2.0))
    dbl_both = _constants(build_tfim(6, j=2.0, g=2.0))
    assert dbl_j.v_lr == pytest.approx(math.sqrt(2.0) * base.v_lr, rel=1e-12)
    assert dbl_g.v_lr == pytest.approx(math.sqrt(2.0) * base.v_lr, rel=1e-12)
    assert dbl_both.v_lr == pytest.approx(2.0 * base.v_lr, rel=1e-12)


def test_tfim_at_zero_coupling_has_zero_velocity():
    # K and Q stay the bare norms; the zero coupling enters through v_LR.
    model = build_tfim(6, j=0.0, g=1.0)
    adj = noncommuting_adjacency(model)
    consts = compute_bound_constants(model, adj)
    assert consts.K == pytest.approx(2.0, abs=1e-12)
    assert consts.Q == pytest.approx(4.0, abs=1e-12)
    assert consts.v_lr == 0.0
    assert consts.zero_velocity
    assert consts.M == 1.0
    op = observable_from_sites(model, (0,), PAULI_Z)
    oq = observable_from_sites(model, (5,), PAULI_Z)
    with pytest.raises(ValueError, match="zero coupling"):
        observable_conditions(model, op, oq, consts, adj)


def test_commuting_ising_constants():
    consts = _constants(build_commuting_ising(6))
    assert consts.K == 0.0
    assert consts.Q == 0.0
    assert consts.nu == 0
    assert consts.M == 1.0
    assert consts.v_lr == 0.0
    assert consts.zero_velocity


def test_lambda_override_threads_through():
    consts = _constants(build_tfim(4), lam=1.25)
    assert consts.lam == 1.25
    assert consts.xi == 0.5  # xi stays the structural value
    assert consts.as_dict()["lambda"] == 1.25
    assert "lam" not in consts.as_dict()


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_bound_constants_reject_invalid_lambda(lam):
    consts = _constants(build_tfim(4))
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        BoundConstants(**{**consts.__dict__, "lam": lam})
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        _constants(build_tfim(4), lam=lam)


def test_dicke_interior_projection_changes_constants():
    model = build_dicke_chain(3, truncation=5)
    full = _constants(model)
    proj = compute_bound_constants(
        model, noncommuting_adjacency(model, projected=True)
    )
    assert full.K == pytest.approx(2.0 * (5 - 1), abs=1e-9)
    assert proj.K == pytest.approx(2.0, abs=1e-9)
    assert proj.Q == 0.0
    assert full.R == proj.R == 3
    assert proj.xi == pytest.approx(1.0 / 3.0, rel=1e-15)


def _dense_union_norm(model, ops, projected):
    """Oracle: the left-nested commutator embedded densely on the union."""
    union = sorted(set().union(*(op.support.sites for op in ops)))
    dims = [model.site_dims[s] for s in union]
    mats = [
        embed_dense(op.payload, [union.index(s) for s in op.support.sites], dims)
        for op in ops
    ]
    out = mats[0]
    for mat in mats[1:]:
        out = commutator(out, mat)
    if projected:
        keep = occupation_projector_diagonal(model, sites=union)
        out = out * np.outer(keep, keep)
    return spectral_norm(out)


def _random_union_model(rng):
    # Four sites of mixed dimension 2-4, some of them boson sites.
    dims = tuple(int(d) for d in rng.integers(2, 5, size=4))
    bosons = frozenset(int(s) for s in np.flatnonzero(rng.random(4) < 0.5))
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    return TwoFamilyHamiltonian(
        graph=g, site_dims=dims, family0=(), family1=(), h0=1.0, h1=1.0,
        boson_sites=bosons,
    )


def _random_observable(rng, model, must_touch):
    # One to three sites, not necessarily contiguous, meeting `must_touch`;
    # a random zero pattern gives the commutator blocks of several sizes.
    size = int(rng.integers(1, 4))
    others = [s for s in range(4) if s != must_touch]
    sites = sorted([must_touch, *rng.choice(others, size - 1, replace=False)])
    d = math.prod(model.site_dims[s] for s in sites)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a *= rng.random((d, d)) < rng.choice([0.2, 0.5, 1.0])
    return observable_from_sites(model, sites, a + a.conj().T)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_block_norm_matches_dense_oracle(seed, n_ops, projected):
    rng = np.random.default_rng(seed)
    model = _random_union_model(rng)
    ops = []
    for _ in range(n_ops):
        touched = sorted(set().union(*(op.support.sites for op in ops)))
        anchor = int(rng.choice(touched)) if touched else int(rng.integers(4))
        ops.append(_random_observable(rng, model, anchor))
    oracle = _dense_union_norm(model, ops, projected)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "DENSE_UNION_MAX_DIM", 0)
        blocks = operator_norm_on_union(model, ops, projected=projected)
    # Rounding only, on the scale of the bracket: ||C|| <= 2^(n-1) prod ||op||.
    scale = math.prod(spectral_norm(op.payload) for op in ops)
    assert abs(blocks - oracle) <= 1e-12 * max(oracle, scale)


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def test_block_norm_of_empty_and_diagonal_brackets(monkeypatch):
    monkeypatch.setattr(lattice, "DENSE_UNION_MAX_DIM", 0)
    model = build_tfim(3)
    x0 = observable_from_sites(model, (0,), PAULI_X)
    y0 = observable_from_sites(model, (0,), PAULI_Y)
    z0 = observable_from_sites(model, (0,), PAULI_Z)
    zz = observable_from_sites(model, (0, 1), np.kron(PAULI_Z, PAULI_Z))
    # Commuting: no entry survives.  [X, Y] = 2iZ: every block is 1x1.
    assert operator_norm_on_union(model, (z0, zz)) == 0.0
    assert operator_norm_on_union(model, (x0, y0)) == 2.0

    # On one 9-dim site, [X + Z + Z + A, sY + X + Y + B] (direct sums) is
    # 2isZ + 2iY - 2iX + [A, B]: blocks of sizes 1, 1, 2, 2 and 3 with norms
    # 2s, 2s, 2, 2 and ||[A, B]|| = 3.54..., all in exact integer arithmetic.
    # s = 3 puts the largest norm in a 1x1 block, s = 1 in the 3x3 one.
    model = TwoFamilyHamiltonian(
        graph=build_graph(1, []), site_dims=(9,), family0=(), family1=(),
        h0=1.0, h1=1.0,
    )
    a3 = np.array([[1, 1, 0], [1, 0, 1j], [0, -1j, -1]])
    b3 = np.array([[0, 1, 1], [1, 1, 0], [1, 0, 0]])
    shapes = []

    def norm(m, structure):
        shapes.append(m.shape)
        return spectral_norm(m, structure=structure)

    monkeypatch.setattr(lattice, "spectral_norm", norm)
    for s in (3.0, 1.0):
        a = _direct_sum(PAULI_X, PAULI_Z, PAULI_Z, a3)
        b = _direct_sum(s * PAULI_Y, PAULI_X, PAULI_Y, b3)
        c = commutator(a, b)
        # Anti-Hermitian: each block's norm is that of i times the block.
        oracle = max(
            float(np.abs(np.linalg.eigvalsh(1j * c[np.ix_(i, i)])).max())
            for i in ([0], [1], [2, 3], [4, 5], [6, 7, 8])
        )
        assert (oracle == 2 * s) == (s == 3.0)
        ops = [observable_from_sites(model, (0,), m) for m in (a, b)]
        shapes.clear()
        assert operator_norm_on_union(model, ops) == oracle
        # One stack per block size.
        assert sorted(shapes) == [(1, 3, 3), (2, 1, 1), (2, 2, 2)]


def test_pair_commutator_norm_disjoint_is_zero():
    model = build_tfim(6)
    assert operator_norm_on_union(model, (model.family0[0], model.family1[4])) == 0.0


def _conditions(model, op, oq, projected=False):
    adj = noncommuting_adjacency(model, projected=projected)
    consts = compute_bound_constants(model, adj)
    return observable_conditions(model, op, oq, consts, adj)


def test_observable_conditions_tfim_frozen():
    model = build_tfim(8)
    op = observable_from_sites(model, (0,), PAULI_Z)
    oq = observable_from_sites(model, (5,), PAULI_Z)
    cond = _conditions(model, op, oq)
    assert cond.F_P == pytest.approx(1.0, abs=1e-12)
    assert cond.F_Q == pytest.approx(1.0, abs=1e-12)
    assert cond.n_P == 1
    assert cond.d == 5


def test_observable_conditions_rejects_close_pair():
    model = build_tfim(8)
    op = observable_from_sites(model, (0,), PAULI_Z)
    oq = observable_from_sites(model, (2,), PAULI_Z)
    with pytest.raises(ValueError, match=r"condition \(i\)"):
        _conditions(model, op, oq)


def test_observable_conditions_rejects_commuting_model():
    model = build_commuting_ising(8)
    op = observable_from_sites(model, (0,), PAULI_Z)
    oq = observable_from_sites(model, (6,), PAULI_Z)
    with pytest.raises(ValueError, match="commuting system"):
        _conditions(model, op, oq)


def test_observable_conditions_q_zero_unsatisfiable():
    # Projected dicke has Q = 0; a sigma^x probe sees the pair commutator,
    # so condition (iii) cannot hold.
    model = build_dicke_chain(4, truncation=3)
    op = observable_from_sites(model, (1,), PAULI_X)
    oq = observable_from_sites(model, (7,), PAULI_X)
    with pytest.raises(ValueError, match=r"condition \(iii\)"):
        _conditions(model, op, oq, projected=True)
