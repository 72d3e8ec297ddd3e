"""The elimination-order dynamic program without any shortcut: every vertex
of every prefix set is tried and every distinct bag's cover LP is solved.
``optimal_ghd`` skips work this search does, so ``TestOptimalGhdPlanIdentity``
checks that it returns the very GHD this one builds."""

from __future__ import annotations

from typing import Any, Optional

from ajar import Ghd, Hypergraph
from ajar.ghd import contract_redundant, cost_edges_for
from ajar.lp import fractional_cover_value


def unpruned_optimal_ghd(
    h: Hypergraph,
    sizes: Optional[dict[str, int]] = None,
    cost_edges: Optional[list[tuple[frozenset[str], Any]]] = None,
) -> Ghd:
    """Minimum-width GHD over elimination orders; at each prefix set the
    last-eliminated vertex is the first in sorted order of least width."""
    verts = sorted(h.vertices)
    n = len(verts)
    if n == 0:
        return Ghd.single(())
    if cost_edges is None:
        cost_edges = cost_edges_for(h, sizes)
    neighbours = {v: set() for v in verts}
    for e in h.edges:
        for a in e.attrs:
            neighbours[a] |= e.attrs - {a}

    costs: dict[frozenset[str], Any] = {}

    def bag_cost(bag: frozenset[str]):
        if bag not in costs:
            costs[bag] = fractional_cover_value(bag, cost_edges)
        return costs[bag]

    def bag_of(v: str, eliminated: frozenset[str]) -> frozenset[str]:
        # v plus every vertex reachable from it through eliminated vertices
        reached, stack = {v}, [v]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    if w in eliminated:
                        stack.append(w)
        return frozenset(reached - eliminated)

    best: dict[int, Any] = {0: 0}
    choice: dict[int, int] = {}
    for mask in sorted(range(1, 1 << n), key=lambda m: bin(m).count("1")):
        members = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        for i in range(n):
            if mask >> i & 1:
                rest = mask ^ (1 << i)
                cost = max(best[rest], bag_cost(bag_of(verts[i], members - {verts[i]})))
                if mask not in best or cost < best[mask]:
                    best[mask], choice[mask] = cost, i

    order: list[int] = []
    mask = (1 << n) - 1
    while mask:
        order.append(choice[mask])
        mask ^= 1 << choice[mask]
    order.reverse()  # elimination order, first eliminated first

    bags, eliminated = [], frozenset()
    for i in order:
        bags.append(bag_of(verts[i], eliminated))
        eliminated |= {verts[i]}
    position = {verts[i]: k for k, i in enumerate(order)}
    root = n - 1
    parent: dict[int, Optional[int]] = {}
    for k in range(n):
        later = [position[a] for a in bags[k] if position[a] > k]
        parent[k] = min(later) if later else (None if k == root else root)
    return contract_redundant(Ghd(root=root, parent=parent, chi=dict(enumerate(bags))))
