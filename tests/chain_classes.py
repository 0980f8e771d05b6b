"""Test oracle: explicit enumeration of the collapsed chain classes.

`lrlab.chains.count_chain_classes` counts them by the even-chain recurrence;
this walks every class instead, so the two routes share nothing but the
adjacency and the hit set.
"""

from __future__ import annotations

from lrlab.lattice import NoncommutingAdjacency, SupportRegion


def count_chain_classes_bruteforce(
    adj: NoncommutingAdjacency, start: int, target: SupportRegion, n_max: int
) -> dict:
    """{order: class count} for orders 0..n_max; exponential, keep n_max small."""
    hits = adj.touching(target)
    collapsed = {n: 0 for n in range(n_max + 1)}
    collapsed[0] = 1 if start in hits else 0

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
    return collapsed
