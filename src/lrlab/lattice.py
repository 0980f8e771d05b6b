"""Lattice structure, two-family Hamiltonians, and bound constants.

A model is H = h0 * sum_i Phi_0^i + h1 * sum_j Phi_1^j where terms within one
family commute exactly and only cross-family pairs with overlapping support
may fail to commute.  From the term data we extract everything the bounds
need: the noncommuting adjacency, the pair/triple commutator constants K and
Q, the branching number nu, the locality radius R, and the derived rates.

This module measures commutators of the bare payloads and nothing else: K,
Q and the observable conditions carry no coupling.  The couplings enter the
bounds once, as |h0*h1| in the rates and as the imbalance r in the
prefactor M, so flipping a coupling's sign changes no bound.

Each value has one owner.  The model owns the one site -> term-ids index
(`TwoFamilyHamiltonian.on_site`), and every "which terms meet here" query
reads it: `term_id`, the structural check, which visits only overlapping
same-family pairs, and the adjacency, which visits only overlapping
cross-family pairs and lends the index to `chains` through its own
`touching`.  This module owns the distance rule (`region_distance`,
`region_distances`), which `cli` and `dynamics` call rather than repeat,
and the payload contract (`_payload_failure`): a term or an observable is
a Hermitian matrix of its support's dimension, checked when the model or
the observable is built, so every norm here may take a structure hint.
The graph stores neighbours, not distances: one breadth-first search
(`_shells`) gives a separation d, or every O_Q's separation at once, the
connectivity check and the term diameters behind R, when they are read.
The adjacency records whether it was built from interior-projected norms,
and the constants and observable conditions take that flag from the
adjacency they are handed.  The decay rate lambda lives in
`BoundConstants.lam`, which must be positive and finite.

All commutator norms are evaluated on the union of the supports involved,
embedded locally; the full Hilbert space is never materialized here.  Small
unions are embedded densely.  Large ones (a few spins with their boson modes
reach thousands of dimensions) take numpy's row-padded sparse form, one
bracket level at a time, and the commutator is split into the exact blocks
of its sparsity pattern, stacked by size; the largest block norm is its norm.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import (
    commutator,
    connected_components,
    embed_dense,
    embed_rows,
    embed_sparse,
    hermiticity_defect,
    row_padded,
    sparse_commutator,
    spectral_norm,
)

INTRA_FAMILY_TOL = 1e-10
NONCOMMUTING_TOL = 1e-12

# Largest union dimension whose commutator norm is taken densely.  One norm
# on a 2-core host with OpenBLAS, medians of 21, on Dicke-chain brackets of
# a term with a spin X or with the next term, with 1 and with 2 BLAS
# threads: dims 4-50 take 0.05-0.42 ms dense and 0.47-0.77 ms sparse;
# dims 72-128 0.8-2.9 ms dense and 1.1-1.8 ms sparse; a pair at dim 108
# 2.5 ms dense on 1 thread but 48 ms on 2, and 0.76 ms sparse; dim 256
# 17-20 ms dense and 0.9 ms sparse; dim 2048 3.6-5.6 s dense and 6 ms
# sparse.  The routes break even near 80 dims, but from about 48 dims
# OpenBLAS may split a complex product over both threads, which stalls for
# tens of ms, so the threshold stays below that.  Every TFIM union (4 to 8
# dims) stays dense.
DENSE_UNION_MAX_DIM = 36


@dataclass(frozen=True)
class InteractionGraph:
    """Connected interaction graph, stored as `neighbours[s]`, the sorted
    tuple of sites adjacent to site s, and nothing else: distances are
    taken by breadth-first search when read (`region_distance`)."""

    neighbours: tuple

    @property
    def site_count(self) -> int:
        return len(self.neighbours)


def _shells(graph: InteractionGraph, sources):
    """The breadth-first shells around `sources`: the set of sites at
    distance 0 (the sources), then 1, 2, ..., up to the last one reached.
    A reader stops at the shell it needs."""
    neighbours, shell = graph.neighbours, set(sources)
    seen = set(shell)
    while shell:
        yield shell
        shell = {v for u in shell for v in neighbours[u]} - seen
        seen |= shell


def build_graph(site_count: int, edges) -> InteractionGraph:
    """Validate an edge list and index each site's neighbours.

    Single-site graphs may have no edges; anything larger must be connected.
    """
    if site_count < 1:
        raise ValueError(f"site_count must be positive, got {site_count}")
    adj = [set() for _ in range(site_count)]
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if a == b:
            raise ValueError(f"self loop at site {a}")
        if not (0 <= a < site_count and 0 <= b < site_count):
            raise ValueError(f"edge {(a, b)} outside 0..{site_count - 1}")
        adj[a].add(b)
        adj[b].add(a)
    if site_count > 1 and not any(adj):
        raise ValueError("edge list is empty for a multi-site graph")

    graph = InteractionGraph(tuple(tuple(sorted(n)) for n in adj))
    if sum(map(len, _shells(graph, (0,)))) < site_count:
        raise ValueError("interaction graph is not connected")
    return graph


@dataclass(frozen=True)
class SupportRegion:
    """A nonempty set of sites, sorted."""

    sites: tuple


def region(graph: InteractionGraph, sites) -> SupportRegion:
    sites = tuple(sorted(int(s) for s in set(sites)))
    if not sites:
        raise ValueError("support region must be nonempty")
    if sites[0] < 0 or sites[-1] >= graph.site_count:
        raise ValueError(f"sites {sites} outside graph")
    return SupportRegion(sites=sites)


def region_distance(graph: InteractionGraph, a: SupportRegion, b: SupportRegion) -> int:
    """Minimum graph distance between two regions (0 when they overlap): the
    first shell around `a` that meets `b`."""
    return next(d for d, shell in enumerate(_shells(graph, a.sites))
                if not shell.isdisjoint(b.sites))


def region_distances(graph: InteractionGraph, a: SupportRegion, regions) -> tuple:
    """`region_distance` from `a` to each of `regions`, read off one
    breadth-first search from `a`'s sites."""
    depth = {s: d for d, shell in enumerate(_shells(graph, a.sites)) for s in shell}
    return tuple(min(depth[s] for s in r.sites) for r in regions)


def _diameter(graph: InteractionGraph, sites) -> int:
    """Largest graph distance between two of `sites`."""
    return max(region_distance(graph, SupportRegion((s,)), SupportRegion((t,)))
               for s in sites for t in sites)


@dataclass(frozen=True)
class LocalTerm:
    """One local interaction term Phi^index with Hermitian payload; its
    family is the tuple of the model that holds it."""

    index: int
    support: SupportRegion
    payload: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class Observable:
    """A local observable to test against the bounds; shaped like a term."""

    support: SupportRegion
    payload: np.ndarray = field(repr=False, compare=False)
    label: str = ""


def _payload_failure(site_dims, sites, payload) -> str | None:
    """Why `payload` is not a Hermitian matrix of the dimension of `sites`,
    or None: the contract of every term and observable.  Every norm in this
    module hands `spectral_norm` a structure hint that holds only for
    Hermitian ops, and `embed_dense` needs the support's dimension."""
    d = math.prod(int(site_dims[s]) for s in sites)
    if payload.shape != (d, d):
        return f"payload shape {payload.shape} != support dim {d}"
    dev = hermiticity_defect(payload)
    return None if dev is None else f"payload not Hermitian (dev {dev:.3e})"


@dataclass(frozen=True)
class TwoFamilyHamiltonian:
    """H = h0 * sum(family0) + h1 * sum(family1).

    Raises ValueError, naming every offending term, unless each term's
    payload is a Hermitian matrix of its support's dimension
    (`_payload_failure`); building one takes no commutator norm.  Whether
    each family commutes is measured by `validate_two_family`.
    """

    graph: InteractionGraph
    site_dims: tuple
    family0: tuple
    family1: tuple
    h0: float
    h1: float
    boson_sites: frozenset = frozenset()
    name: str = ""

    def __post_init__(self):
        failures = [
            f"term {fam}:{term.index} {why}"
            for fam, family in enumerate((self.family0, self.family1))
            for term in family
            if (why := _payload_failure(self.site_dims, term.support.sites,
                                        term.payload))
        ]
        if failures:
            raise ValueError("; ".join(failures))

    @cached_property
    def terms(self) -> tuple:
        """All terms, family 0 first; the position is the global term id."""
        return self.family0 + self.family1

    @cached_property
    def on_site(self) -> dict:
        """Site -> ids of the terms whose support holds it, ascending: the
        one index every term-overlap query reads."""
        on = {}
        for gid, term in enumerate(self.terms):
            for s in term.support.sites:
                on.setdefault(s, []).append(gid)
        return on

    def touching(self, support: SupportRegion) -> frozenset:
        """Ids of the terms whose support overlaps `support`."""
        return frozenset(g for s in support.sites for g in self.on_site.get(s, ()))

    def term_id(self, obs) -> int | None:
        """The global id of the term that is `obs` exactly, or None."""
        return next((g for g in self.on_site.get(obs.support.sites[0], ())
                     if self.terms[g].support == obs.support
                     and np.array_equal(self.terms[g].payload, obs.payload)), None)

    @cached_property
    def locality_radius(self) -> int:
        """R = 1 + the largest term diameter, from the supports alone: the
        bounds hold at separations d > R (the paper's condition (i))."""
        supports = {t.support.sites for t in self.terms}
        return 1 + max((_diameter(self.graph, sites) for sites in supports), default=0)

    @property
    def decoupled(self) -> bool:
        """A family empty or a coupling zero: v_LR = 0, from the model alone."""
        return not (self.family0 and self.family1 and self.h0 and self.h1)

    @property
    def hilbert_dim(self) -> int:
        # math.prod on Python ints: a numpy product wraps past 2^63.
        return math.prod(int(d) for d in self.site_dims)


def observable_from_sites(
    model: TwoFamilyHamiltonian, sites, payload, label: str = ""
) -> Observable:
    """An observable with `payload` on `sites`.

    Raises ValueError unless the payload is a Hermitian matrix of the
    support's dimension, the contract a term keeps (`_payload_failure`):
    the commutator norms taken with an observable (`operator_norm_on_union`,
    `dynamics.commutator_norm_sweep`) rely on it.
    """
    support = region(model.graph, sites)
    payload = np.asarray(payload)
    why = _payload_failure(model.site_dims, support.sites, payload)
    if why:
        raise ValueError(f"observable {why}")
    return Observable(support=support, payload=payload, label=label)


def check_occupation_cap(max_level: int | None) -> None:
    """ValueError for a negative occupation cap, which would keep no state."""
    if max_level is not None and max_level < 0:
        raise ValueError(f"occupation cap must be at least 0, got {max_level}")


def occupation_projector_diagonal(
    model: TwoFamilyHamiltonian, max_level: int | None = None, sites=None
) -> np.ndarray:
    """Diagonal of the projector keeping boson occupations <= max_level.

    The diagonal is over the product space of `sites` (default: the whole
    lattice), in site order.  `max_level=None` keeps the interior of every
    boson site, i.e. drops its top retained Fock level; a negative
    `max_level` raises ValueError (`check_occupation_cap`).
    """
    check_occupation_cap(max_level)
    if sites is None:
        sites = range(model.graph.site_count)
    keep = np.ones(1)
    for s in sites:
        d = model.site_dims[s]
        vec = np.ones(d)
        if s in model.boson_sites and d >= 2:
            vec[(d - 1 if max_level is None else max_level + 1) :] = 0.0
        keep = np.kron(keep, vec)
    return keep


def operator_norm_on_union(model, ops, projected: bool = False) -> float:
    """Spectral norm of the left-nested commutator [[ops[0], ops[1]], ...]
    of two or more ops, embedded on the union of their supports.

    With `projected=True` the result is the interior-projected norm
    ||P C P|| where P removes the top retained Fock level of every boson
    site in the union.

    Every op is Hermitian (a term or an observable), so the bracket is
    anti-Hermitian for an even number of ops and Hermitian for an odd one,
    and `spectral_norm` is told so.

    Unions of at most DENSE_UNION_MAX_DIM dimensions are embedded densely;
    larger ones take `_block_norm`.
    """
    union = sorted(set().union(*(op.support.sites for op in ops)))
    keep = occupation_projector_diagonal(model, sites=union) if projected else None
    structure = "hermitian" if len(ops) % 2 else "antihermitian"
    dims = [model.site_dims[s] for s in union]
    if math.prod(dims) > DENSE_UNION_MAX_DIM:
        return _block_norm(model, ops, keep, structure)
    pos = {s: k for k, s in enumerate(union)}
    mats = [
        embed_dense(op.payload, [pos[s] for s in op.support.sites], dims)
        for op in ops
    ]
    out = mats[0]
    for mat in mats[1:]:
        out = commutator(out, mat)
    if keep is not None:
        out = out * np.outer(keep, keep)
    return spectral_norm(out, structure=structure)


def _block_norm(model, ops, keep, structure) -> float:
    """The sparse, block-wise route of `operator_norm_on_union`, with the
    projector diagonal `keep` on the union (or None); each block keeps the
    bracket's `structure`.

    The bracket is taken one level at a time, in the row-padded form of
    `operators.embed_sparse`, on the union of that level's own supports:
    for [[a, b], c], [a, b] on S_a | S_b, which is then scattered into
    S_a | S_b | S_c through the index grid and bracketed with c there.  Only
    exact zeros are dropped: nothing is approximated away, which could
    under-estimate.  The result C is split into the connected components of
    its sparsity pattern: after that permutation C is block diagonal, so
    ||C|| is exactly the largest block norm, and each block is small.  The
    blocks of one size k that hold an entry go to `spectral_norm` as one
    (count, k, k) stack with the bracket's hint, which takes no scaling.

    Only dense stacks reach `spectral_norm`: the benchmark's tracer hooks
    this module's `commutator` and `spectral_norm` and sizes each call with
    `len()` of its first argument, a stack's block count.
    """
    sites = list(ops[0].support.sites)
    dims = [model.site_dims[s] for s in sites]
    out = embed_sparse(ops[0].payload, range(len(sites)), dims)
    for depth, op in enumerate(ops[1:], start=2):
        last = depth == len(ops)
        level = sorted(set(sites) | set(op.support.sites))
        dims = [model.site_dims[s] for s in level]
        pos = {s: k for k, s in enumerate(level)}
        if level != sites:
            out = embed_rows(*out, [pos[s] for s in sites], dims)
        mat = embed_sparse(op.payload, [pos[s] for s in op.support.sites], dims)
        # P C P keeps only the kept rows of the last level's C ...
        kept = np.flatnonzero(keep) if last and keep is not None else None
        rows, cols, vals = sparse_commutator(out, mat, kept)
        if vals.size == 0:
            return 0.0  # and [0, c] = 0 at every later level
        if not last:
            out, sites = row_padded(rows, cols, vals, math.prod(dims)), level
    if keep is not None:
        # ... and only its kept columns.
        inside = keep[cols] != 0
        rows, cols, vals = rows[inside], cols[inside], vals[inside]
        if vals.size == 0:
            return 0.0
    n_blocks, labels = connected_components(rows, cols, math.prod(dims))
    sizes = np.bincount(labels, minlength=n_blocks)
    rank = np.empty_like(labels)
    rank[np.argsort(labels, kind="stable")] = np.arange(labels.size)
    local = rank - (np.cumsum(sizes) - sizes)[labels]  # position in its block
    block = labels[rows]
    best = 0.0
    # Not np.unique, whose plain form imports numpy.ma: 1 MB of peak memory.
    for k in np.flatnonzero(np.bincount(sizes[block])):
        here = sizes[block] == k
        ids, slot = np.unique(block[here], return_inverse=True)
        stack = np.zeros((ids.size, k, k), dtype=vals.dtype)
        stack[slot, local[rows[here]], local[cols[here]]] = vals[here]
        best = max(best, spectral_norm(stack, structure=structure))
    return best


def pair_commutator_norm(model, a, b, projected: bool = False) -> float:
    return operator_norm_on_union(model, (a, b), projected=projected)


def triple_commutator_norm(model, a, b, c, projected: bool = False) -> float:
    return operator_norm_on_union(model, (a, b, c), projected=projected)


def validate_two_family(model: TwoFamilyHamiltonian) -> tuple:
    """The same-family pairs that do not commute, as failure lines: none
    when the structural contract holds.  Collects failures instead of
    aborting.

    Only terms whose supports overlap can fail to commute, so each
    overlapping same-family pair is visited once, through the model's site
    index, in the order of the family's terms.  Every term is Hermitian and
    of its support's dimension, which the model checked when it was built,
    so each pair's norm takes the anti-Hermitian hint.
    """
    failures = []
    terms, n0 = model.terms, len(model.family0)
    for ga, a in enumerate(terms):
        fam, end = (0, n0) if ga < n0 else (1, len(terms))
        for gb in sorted(g for g in model.touching(a.support) if ga < g < end):
            b = terms[gb]
            nrm = pair_commutator_norm(model, a, b)
            if nrm > INTRA_FAMILY_TOL:
                failures.append(
                    f"family {fam} terms {a.index},{b.index} do not commute "
                    f"(norm {nrm:.3e})"
                )
    return tuple(failures)


@dataclass(frozen=True)
class NoncommutingAdjacency:
    """Z_i map: for each global term id, the opposite-family ids it fails to
    commute with (commutator norm above NONCOMMUTING_TOL).

    `on_site` is the model's site -> term-ids index, lent so that `chains`
    and the observable conditions can ask which terms meet a region without
    the model.  `projected` says whether the pair norms are
    interior-projected; the constants and observable conditions built on
    this adjacency use the same setting for every norm they compute.
    """

    zmap: dict
    on_site: dict
    pair_norms: dict  # (i, j) with i < j -> ||[Phi_i, Phi_j]||
    projected: bool

    @property
    def nu(self) -> int:
        if not self.zmap:
            return 0
        return max(len(zs) for zs in self.zmap.values())

    # The model's own query, read from the lent index.
    touching = TwoFamilyHamiltonian.touching

    def pairs_meeting(self, support: SupportRegion) -> list:
        """The noncommuting pairs (i, j) whose union of supports meets
        `support`, so that their bracket may not commute with an op there,
        in the order of `pair_norms`.  One pass over `pair_norms`, of the
        same order as the separation search that each O_Q's conditions
        take anyway."""
        near = self.touching(support)
        return [pair for pair in self.pair_norms if not near.isdisjoint(pair)]


def noncommuting_adjacency(
    model: TwoFamilyHamiltonian, projected: bool = False
) -> NoncommutingAdjacency:
    terms = model.terms
    n0 = len(model.family0)
    staged = {gid: set() for gid in range(len(terms))}
    pair_norms = {}
    for i in range(n0):
        for j in sorted(g for g in model.touching(terms[i].support) if g >= n0):
            nrm = pair_commutator_norm(model, terms[i], terms[j], projected=projected)
            if nrm > NONCOMMUTING_TOL:
                pair_norms[(i, j)] = nrm
                staged[i].add(j)
                staged[j].add(i)
    return NoncommutingAdjacency(
        zmap={gid: frozenset(s) for gid, s in staged.items()},
        on_site=model.on_site,
        pair_norms=pair_norms,
        projected=projected,
    )


@dataclass(frozen=True)
class BoundConstants:
    K: float
    Q: float
    nu: int
    R: int
    gamma: float
    xi: float
    lam: float
    M: float
    Mtilde: float
    Mtildetilde: float
    h0: float
    h1: float
    v_lr: float
    zero_velocity: bool

    def __post_init__(self):
        # The chained comparison is false for NaN as well.
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")

    def as_dict(self) -> dict:
        """The fields by name, with `lam` written out as `lambda`."""
        out = dataclasses.asdict(self)
        out["lambda"] = out.pop("lam")
        return out


def _coupling_ratio(model: TwoFamilyHamiltonian) -> float:
    """max(|h0|/|h1|, |h1|/|h0|); signs do not enter any bound.  A
    decoupled model carries no cross terms, and its ratio defaults to 1."""
    if model.decoupled:
        return 1.0
    h0, h1 = abs(model.h0), abs(model.h1)
    return max(h0 / h1, h1 / h0)


def compute_bound_constants(
    model: TwoFamilyHamiltonian,
    adjacency: NoncommutingAdjacency,
    lam: float | None = None,
) -> BoundConstants:
    """Extract (K, Q, nu, R, ...) and the derived rates from the term data.

    K and Q are bare commutator norms of the payloads, with no coupling in
    them: K maxes ||[Phi_a, Phi_b]|| over noncommuting cross-family pairs,
    and Q maxes ||[[Phi_a, Phi_b], Phi_c]|| over those pairs against any
    third term whose support meets the pair's union (the pair's own members
    included).  The couplings enter through |h0*h1| in the rates and through
    the imbalance r = max(|h0|/|h1|, |h1|/|h0|) in the unit-free prefactor
    M = max(K*r, Q*sqrt(r)/sqrt(2*K)), so every bound is covariant under
    H -> sH, t -> t/s, and v_LR = 2 (gamma/xi) e sqrt(|h0*h1| K) scales as
    s.  zero_velocity means v_LR = 0 (a fully commuting model, or a zero
    coupling); it gets M = 1.  The triple norms are projected when the
    adjacency's pair norms are, and lam defaults to xi = 1/R.
    """
    terms = model.terms
    hh = abs(model.h0 * model.h1)

    # Every stored pair norm is above NONCOMMUTING_TOL.
    K = max(adjacency.pair_norms.values(), default=0.0)

    Q = 0.0
    for i, j in adjacency.pair_norms:
        a, b = terms[i], terms[j]
        for g in adjacency.touching(a.support) | adjacency.touching(b.support):
            nrm = triple_commutator_norm(model, a, b, terms[g],
                                         projected=adjacency.projected)
            if nrm > NONCOMMUTING_TOL:
                Q = max(Q, nrm)

    nu = adjacency.nu
    R = model.locality_radius
    gamma = math.sqrt(2.0) * nu
    xi = 1.0 / R

    zero_velocity = hh * K == 0.0
    r = _coupling_ratio(model)
    if zero_velocity:
        M = 1.0
    elif Q == 0.0:
        M = K * r
    else:
        M = max(K * r, Q * math.sqrt(r) / math.sqrt(2.0 * K))
    Mtilde = 1.0
    v_lr = 2.0 * (gamma / xi) * math.e * math.sqrt(hh * K)

    return BoundConstants(
        K=K,
        Q=Q,
        nu=nu,
        R=R,
        gamma=gamma,
        xi=xi,
        lam=xi if lam is None else float(lam),
        M=M,
        Mtilde=Mtilde,
        Mtildetilde=Mtilde * M,
        h0=model.h0,
        h1=model.h1,
        v_lr=v_lr,
        zero_velocity=zero_velocity,
    )


ZERO_VELOCITY_REFUSAL = ("constants undefined at v_LR = 0 (a commuting system, "
                         "K = 0, or a zero coupling)")


@dataclass(frozen=True)
class ObservableConditions:
    """Prefactor data (F_P, F_Q, n_P, d) for the observable-pair bound."""

    F_P: float
    F_Q: float
    n_P: int
    d: int


def observable_conditions(
    model: TwoFamilyHamiltonian,
    op_p: Observable,
    op_q: Observable,
    consts: BoundConstants,
    adjacency: NoncommutingAdjacency,
) -> ObservableConditions:
    """Check conditions (i)-(iii) for an observable pair and extract constants.

    `consts` must come from `adjacency`, whose projection setting every norm
    here follows.  Raises when the separation does not exceed R (condition
    (i)), at zero velocity (a fully commuting model or a zero coupling: the
    constants are undefined), or when Q = 0 but O_Q sees a nonzero pair
    commutator (condition (iii) unsatisfiable).
    """
    projected = adjacency.projected
    if consts.zero_velocity:
        raise ValueError(ZERO_VELOCITY_REFUSAL)
    d = region_distance(model.graph, op_p.support, op_q.support)
    if d <= consts.R:
        raise ValueError(
            f"condition (i) violated: separation d = {d} must exceed R = {consts.R}"
        )
    terms = model.terms
    # A term that does not overlap an observable commutes with it.
    near_p = adjacency.touching(op_p.support)
    near_q = adjacency.touching(op_q.support)
    p_norms = [pair_commutator_norm(model, op_p, terms[g], projected) for g in near_p]
    q_norms = [pair_commutator_norm(model, op_q, terms[g], projected) for g in near_q]
    n_P = sum(1 for x in p_norms if x > NONCOMMUTING_TOL)
    F_P = max(p_norms, default=0.0) / consts.K
    F_Q = max(q_norms, default=0.0) / consts.K

    for i, j in adjacency.pairs_meeting(op_q.support):
        a, b = terms[i], terms[j]
        # ||[O_Q, [a, b]]||, taken as ||[[a, b], O_Q]||: one matrix is the
        # exact negation of the other.
        nrm = operator_norm_on_union(model, (a, b, op_q), projected=projected)
        if consts.Q == 0.0:
            if nrm > NONCOMMUTING_TOL:
                raise ValueError(
                    "condition (iii) unsatisfiable: Q = 0 but "
                    f"||[O_Q,[Phi_{i},Phi_{j}]]|| = {nrm:.3e}"
                )
            continue
        F_Q = max(F_Q, nrm / consts.Q)

    return ObservableConditions(F_P=F_P, F_Q=F_Q, n_P=n_P, d=d)
