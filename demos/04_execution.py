#!/usr/bin/env python3
# Execution: one post-order pass. Each bag runs a worst-case-optimal join
# over its relations and its children's messages, aggregating its TOP
# attributes inside the join, and passes the result up as its own message.
# Only the output region (the root and the bags below it that lead to an
# output attribute) keeps its output values and goes through a Yannakakis
# pass of semijoins and joins; in the full join of the parity cycle below
# that is every bag, built whole. Each relation's annotations enter at
# exactly one bag; everywhere else it only filters.

import math

from ajar import (
    AnnotatedRelation,
    AggregationOrdering,
    ExecStats,
    Hypergraph,
    get_semiring,
    plan,
    run,
)
from ajar.oracle import naive_eval

sr = get_semiring("int")
H = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))])
R = AnnotatedRelation(("A", "B"), {(1, 3): 3, (1, 2): 1, (1, 1): 2})
S = AnnotatedRelation(("B", "C"), {(1, 1): 4, (3, 3): 6})
alpha = AggregationOrdering.of(("C", "sum"), ("B", "sum"))

stats = ExecStats()
p = plan(H, alpha)
out = run(p, {"R": R, "S": S}, None, sr, stats)
print("result:", out.tuples)
print("matches naive evaluation:", out == naive_eval(H, alpha, {"R": R, "S": S}, None, sr))
print("stats:", stats.to_dict())

# the point of planning: on a parity-contradictory 6-cycle the join is
# empty, and the width-2 plan touches ~N^1.5 tuples where a left-deep
# pipeline would materialize ~N^3
def parity_cycle(m):
    values = range(1, 2 * m + 1)
    same = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 0}
    flip = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 1}
    h = Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i % 6 + 1}")) for i in range(1, 7)])
    rels = {f"E{i}": AnnotatedRelation((f"A{i}", f"A{i % 6 + 1}"), same) for i in range(1, 6)}
    rels["E6"] = AnnotatedRelation(("A6", "A1"), flip)
    return h, rels

for m in (4, 8):
    h, rels = parity_cycle(m)
    st = ExecStats()
    empty = run(plan(h, AggregationOrdering.of()), rels, None, sr, st)
    n = m * m
    print(
        f"N~{n}: output {len(empty)} tuples, plan touched {st.intermediate_tuples} "
        f"(naive worst ~{2 * m ** 6})"
    )
