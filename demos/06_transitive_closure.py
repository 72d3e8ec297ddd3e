#!/usr/bin/env python3
# Transitive closure by repeated squaring: plan the two-atom query
# Q(X,Y) = min[M] L(X,M), L(M,Y) once and run it on each round's result
# until the result stabilizes. Every node needs a zero-weight self-loop
# (min-plus's one), so round n covers every walk of at most 2^n steps; then
# this is all-pairs shortest paths, reached within ceil(log2 V) + 1 rounds.
# A missing self-loop, a negative diagonal entry (a negative cycle through
# that node), or no fixpoint within that budget is a QueryError.

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    Hypergraph,
    INF,
    QueryError,
    get_semiring,
    plan,
    transitive_closure,
)
from ajar.oracle import floyd_warshall

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

# each round runs one ordinary plan of a single bag {X,M,Y}: one join that
# folds the middle node inside its recursion (the output part's bag {X,Y}
# lies inside it and is contracted away)
p = plan(
    Hypergraph.build([("L1", ("X", "M")), ("L2", ("M", "Y"))]),
    AggregationOrdering.of(("M", "min")),
)
print("\nsquaring plan bags (node: bag, parent):")
for t in p.ghd.nodes():
    print(f"   {t}: {sorted(p.ghd.chi[t])}, parent {p.ghd.parent[t]}")

# a negative cycle makes a diagonal entry drop below zero
rows[(1, 0)] = -5
try:
    transitive_closure(AnnotatedRelation(("src", "dst"), rows, zero=INF), mp)
except QueryError as exc:
    print("\nwith edge 1 -> 0 at -5:", exc)
