"""Counting the operator chains that feed the series bound.

A chain starts from the term s_0 containing the propagated operator and
appends terms s_1, ..., s_n subject to the alternating rule: the k-th added
term must fail to commute with its predecessor when k is odd, and with either
of its two predecessors when k is even.  A chain of length n contributes to
the coefficient c_n iff its terminal support touches the target region: the
support of s_n for even n, of s_{n-1} or s_n for odd n (s_0's own support at
n = 0).

``count_chains_dp`` counts every admissible sequence as distinct, which is
exactly what unrolling the recursion produces (the two branches of an even
step extend disjoint families, so no sequence arises twice); the series bound
reads these counts.  They vanish below the reachability cutoff R*n >= d and
never exceed the envelope 2^floor(n/2) * nu^n.

The count runs one recurrence over even chains.  An odd chain (..., p, l) is
an even chain ending at p and some l in Z(p), and its terminal rule and the
next even step look only at p and l, so a frontier E (last term -> count) of
even chains suffices.  An odd order is c_n = sum_p E[p] |{l in Z(p) : p or l
touches}|.  An even step adds E[p] to each x in Z(l) | Z(p) (a set union,
exact on any adjacency) for each l in Z(p).

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


def count_chains_dp(
    adj: NoncommutingAdjacency, start: int, target: SupportRegion, n_max: int
) -> ChainCountTable:
    """Exact integer counts of the admissible sequences, orders 0..n_max."""
    if start not in adj.zmap:
        raise ValueError(f"start term id {start} not in adjacency")
    zmap, hits = adj.zmap, adj.touching(target)
    counts, even = {0: int(start in hits)}, {start: 1}
    for n in range(1, n_max + 1, 2):
        counts[n] = sum(
            c * len(zmap[p] if p in hits else zmap[p] & hits) for p, c in even.items()
        )
        if n < n_max:
            grown = {}
            for p, c in even.items():
                for l in zmap[p]:
                    for x in zmap[l] | zmap[p]:
                        grown[x] = grown.get(x, 0) + c
            even = grown
            counts[n + 1] = sum(c for p, c in even.items() if p in hits)
    return ChainCountTable(start=start, target=target, n_max=n_max, counts=counts)


def count_chains_bruteforce(
    adj: NoncommutingAdjacency, start: int, target: SupportRegion, n_max: int
) -> ChainCountTable:
    """Explicit enumeration of the admissible sequences; n_max <= 10."""
    if n_max > BRUTE_FORCE_MAX_ORDER:
        raise ValueError(
            f"brute force capped at order {BRUTE_FORCE_MAX_ORDER}, got {n_max}"
        )
    if start not in adj.zmap:
        raise ValueError(f"start term id {start} not in adjacency")
    counts = {n: 0 for n in range(n_max + 1)}

    hits = adj.touching(target)
    counts[0] = 1 if start in hits else 0

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

    return ChainCountTable(start=start, target=target, n_max=n_max, counts=counts)


def closed_form_chain_bound(consts, n: int, d: int) -> float:
    """Per-order envelope gamma^n e^{lam (R n - d)}, gamma = sqrt(2) nu, zero
    below reach."""
    if consts.R * n < d:
        return 0.0
    return consts.gamma**n * math.exp(consts.lam * (consts.R * n - d))
