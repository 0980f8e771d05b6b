"""Counting the operator chains that feed the series bound.

A chain starts from the term s_0 containing the propagated operator and
appends terms s_1, ..., s_n subject to the alternating rule: the k-th added
term must fail to commute with its predecessor when k is odd, and with either
of its two predecessors when k is even.  A chain of length n contributes to
the coefficient c_n iff its terminal support touches the target region: the
support of s_n for even n, of s_{n-1} or s_n for odd n (s_0's own support at
n = 0).

Two counts are kept.  ``counts`` treats every admissible sequence as
distinct, which is exactly what unrolling the recursion produces (the two
branches of an even step extend disjoint families, so no sequence arises
twice).  ``collapsed`` additionally identifies sequences that differ only in
the dummy predecessor of an even step taken through the two-back branch.
collapsed <= counts <= 2^floor(n/2) * nu^n holds everywhere, and both vanish
below the reachability cutoff R*n >= d.

"Touches" is `NoncommutingAdjacency.touching`; the per-order envelope takes
lambda from the bound constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import NoncommutingAdjacency, SupportRegion

BRUTE_FORCE_MAX_ORDER = 10


@dataclass(frozen=True)
class ChainCountTable:
    start: int
    target: SupportRegion
    n_max: int
    counts: dict
    collapsed: dict


def count_chains_dp(
    adj: NoncommutingAdjacency, start: int, target: SupportRegion, n_max: int
) -> ChainCountTable:
    """Dynamic program over chain suffixes; exact integer counts.

    Even-length frontiers are keyed by the last term (the next odd step only
    looks one back); odd-length frontiers keep (penult, last) pairs because
    both the next even step and the odd terminal rule look two back.  The
    sequences and the classes share the frontier keys and the terminal rule;
    they differ only in how an even step grows them.
    """
    if start not in adj.zmap:
        raise ValueError(f"start term id {start} not in adjacency")
    zmap, hits = adj.zmap, adj.touching(target)

    def tally(frontier, n):
        if n % 2:
            return sum(c for (p, l), c in frontier.items() if p in hits or l in hits)
        return sum(c for last, c in frontier.items() if last in hits)

    counts, collapsed = {}, {}
    seqs = classes = {start: 1}
    for n in range(n_max + 1):
        if n % 2:
            back = classes
            # Distinct last terms give distinct (last, partner) keys.
            seqs, classes = (
                {(last, y): c for last, c in even.items() for y in zmap[last]}
                for even in (seqs, classes)
            )
        elif n:
            seqs = _grow((zmap[l] | zmap[p], c) for (p, l), c in seqs.items())
            # Two-back branch: the dummy intermediate is quotiented out.
            classes = _grow(
                [(zmap[l], c) for (p, l), c in classes.items()]
                + [(zmap[p], c) for p, c in back.items()]
            )
        counts[n], collapsed[n] = tally(seqs, n), tally(classes, n)
    return ChainCountTable(
        start=start, target=target, n_max=n_max, counts=counts, collapsed=collapsed
    )


def _grow(steps) -> dict:
    """{term: total count} over the (next terms, count) pairs in `steps`."""
    out = {}
    for nexts, c in steps:
        for x in nexts:
            out[x] = out.get(x, 0) + c
    return out


def count_chains_bruteforce(
    adj: NoncommutingAdjacency, start: int, target: SupportRegion, n_max: int
) -> ChainCountTable:
    """Explicit enumeration of sequences and collapsed classes; n_max <= 10."""
    if n_max > BRUTE_FORCE_MAX_ORDER:
        raise ValueError(
            f"brute force capped at order {BRUTE_FORCE_MAX_ORDER}, got {n_max}"
        )
    if start not in adj.zmap:
        raise ValueError(f"start term id {start} not in adjacency")
    counts = {n: 0 for n in range(n_max + 1)}
    collapsed = {n: 0 for n in range(n_max + 1)}

    hits = adj.touching(target)
    counts[0] = 1 if start in hits else 0
    collapsed[0] = counts[0]

    def walk_sequences(seq):
        n = len(seq) - 1
        if n >= n_max:
            return
        k = n + 1
        if k % 2 == 1:
            choices = adj.zmap[seq[-1]]
        else:
            choices = adj.zmap[seq[-1]] | adj.zmap[seq[-2]]
        for x in choices:
            nxt = seq + (x,)
            if k % 2 == 1:
                if nxt[-2] in hits or nxt[-1] in hits:
                    counts[k] += 1
            else:
                if nxt[-1] in hits:
                    counts[k] += 1
            walk_sequences(nxt)

    walk_sequences((start,))

    def walk_classes(last, length):
        # `last` is the recorded term at an even length.
        if length + 1 <= n_max:
            for y in adj.zmap[last]:
                if last in hits or y in hits:
                    collapsed[length + 1] += 1
        if length + 2 <= n_max:
            for y in adj.zmap[last]:
                for x in adj.zmap[y]:
                    if x in hits:
                        collapsed[length + 2] += 1
                    walk_classes(x, length + 2)
            for x in adj.zmap[last]:
                if x in hits:
                    collapsed[length + 2] += 1
                walk_classes(x, length + 2)

    walk_classes(start, 0)

    return ChainCountTable(
        start=start, target=target, n_max=n_max, counts=counts, collapsed=collapsed
    )


def closed_form_chain_bound(consts, n: int, d: int) -> float:
    """Per-order envelope (sqrt(2) nu)^n e^{lam (R n - d)}, zero below reach."""
    if consts.R * n < d:
        return 0.0
    return (math.sqrt(2.0) * consts.nu) ** n * math.exp(
        consts.lam * (consts.R * n - d)
    )
