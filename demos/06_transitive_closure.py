#!/usr/bin/env python3
# Transitive closure by doubling: evaluate the 2^n-step reachability query
# as an aggregate-join over renamed copies until the result stabilizes.
# Every node needs a zero-weight self-loop (min-plus's one), so 2^n steps
# cover all shorter walks; then this is all-pairs shortest paths, reached
# within ceil(log2 V) + 1 rounds unless a negative cycle prevents a fixpoint.
# A missing self-loop, or no fixpoint within that budget, is a QueryError.

from ajar import AnnotatedRelation, INF, get_semiring, transitive_closure
from ajar.oracle import floyd_warshall
from ajar.planner import closure_chain_ghd

mp = get_semiring("minplus")

edges = {
    (0, 1): 3,
    (1, 2): 1,
    (2, 3): 2,
    (0, 2): 7,
    (3, 0): 1,
}
rows = {(v, v): 0 for v in range(4)}
rows.update(edges)
graph = AnnotatedRelation(("src", "dst"), rows, zero=INF)

closed = transitive_closure(graph, mp)
print("all-pairs shortest paths:")
for (u, v), d in sorted(closed.tuples.items()):
    print(f"  {u} -> {v}: {d}")

print("\nagrees with Floyd-Warshall:", dict(closed.tuples) == floyd_warshall(graph))

# the k-step query runs over a chain of 3-attribute bags; each bag holds
# two consecutive path positions plus the final endpoint
g = closure_chain_ghd(4)
print("\nchain GHD bags for the 4-step query:")
for t in g.nodes():
    print("  ", sorted(g.chi[t]))
