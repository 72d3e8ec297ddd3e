"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` (or -rA) to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    DomainRegistry,
    ExecStats,
    Ghd,
    Hypergraph,
    INF,
    PRODUCT,
    SemiringSpec,
    builtin_semirings,
    check_laws,
    compute_prec,
    get_semiring,
    join,
    linear_extensions,
    naive_eval,
    plan,
    register_semiring,
    run,
    transitive_closure,
    width,
)
from ajar.oracle import RandomInstanceSpec, floyd_warshall, min_valid_width
from ajar.ordering import test_equivalence as is_equivalent
from ajar.semirings import _REGISTRY
from conftest import ordering


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def chain(*pairs):
    return Hypergraph.build(list(pairs))


# ---------------------------------------------------------------------- 1


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    int_sr = get_semiring("int")
    h = chain(("R", ("A", "B")), ("S", ("B", "C")))

    r1 = AnnotatedRelation(("A", "B"), {(1, 3): 3, (1, 2): 1, (1, 1): 2})
    s1 = AnnotatedRelation(("B", "C"), {(1, 1): 4, (3, 3): 6})
    joined = join([r1, s1], int_sr)
    assert joined == AnnotatedRelation(("A", "B", "C"), {(1, 3, 3): 18, (1, 1, 1): 8})
    alpha = ordering(("C", "sum"), ("B", "sum"))
    total = run(plan(h, alpha), {"R": r1, "S": s1}, None, int_sr)
    assert total == AnnotatedRelation(("A",), {(1,): 26})

    qplus = get_semiring("qplus")
    r2 = AnnotatedRelation(("A", "B"), {(1, 1): 1, (2, 1): 2})
    s2 = AnnotatedRelation(("B", "C"), {(1, 1): 3, (1, 2): 4})
    joined2 = join([r2, s2], qplus)
    assert joined2 == AnnotatedRelation(
        ("A", "B", "C"), {(1, 1, 1): 3, (1, 1, 2): 4, (2, 1, 1): 6, (2, 1, 2): 8}
    )
    from ajar import aggregate

    assert aggregate(s2, "C", "sum", qplus) == AnnotatedRelation(("B",), {(1,): 7})

    # quantified product example, once over bool01 and once with symbolic
    # primes in a divisibility semiring (idempotent lcm keeps factors apart)
    bool01 = get_semiring("bool01")
    alpha_p = ordering(("B", PRODUCT))
    rb = AnnotatedRelation(("A", "B"), {(0, 0): 1, (0, 1): 1})
    sb = AnnotatedRelation(("B", "C"), {(0, 1): 1, (1, 1): 1})
    doms = DomainRegistry.from_declarations({"B": [0, 1]}, {"R": rb, "S": sb})
    got = run(plan(h, alpha_p), {"R": rb, "S": sb}, doms, bool01)
    assert got == AnnotatedRelation(("A", "C"), {(0, 1): 1})

    if "gcdlcm" not in _REGISTRY:
        register_semiring(
            SemiringSpec(
                name="gcdlcm",
                domain="integer",
                additive_ops={"gcd": math.gcd},
                multiply=math.lcm,
                zero=0,
                one=1,
                multiply_idempotent=True,
            )
        )
    primes = get_semiring("gcdlcm")
    x, y, p_, q_ = 2, 3, 5, 7
    rp = AnnotatedRelation(("A", "B"), {(0, 0): x, (0, 1): y})
    sp = AnnotatedRelation(("B", "C"), {(0, 1): p_, (1, 1): q_})
    got = run(plan(h, alpha_p), {"R": rp, "S": sp}, doms, primes)
    assert got == AnnotatedRelation(("A", "C"), {(0, 1): x * y * p_ * q_})
    assert got.tuples[(0, 1)] == 210

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"worked examples reproduced exactly in {elapsed:.3f}s")


# ---------------------------------------------------------------------- 2


EQUIVALENCE_SUITE = [
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("A", "sum"), ("B", "sum"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("A", "sum"), ("B", "max"), ("C", "max"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("B", "max"), ("A", "sum"), ("C", "max"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("B", "min"), ("A", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("A", "sum"), ("C", "max"))),
    (chain(("R", ("A", "B")), ("S", ("A", "C"))), (("A", "sum"), ("B", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("A", "C"))), (("B", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))),
     (("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))),
     (("A", "sum"), ("B", "max"), ("D", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))),
     (("D", "min"), ("B", "max"), ("A", "sum"), ("C", "sum"))),
    (chain(("R", ("A", "B", "C"))), (("A", "sum"), ("B", "max"), ("C", "min"))),
    (chain(("R", ("A", "B", "C"))), (("A", "sum"), ("B", "sum"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("C", "D"))), (("A", "sum"), ("C", "max"), ("B", "min"), ("D", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("C", "D"))), (("A", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))),
     (("A", "sum"), ("B", "max"), ("C", "sum"), ("D", "max"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))),
     (("B", "sum"), ("C", "sum"), ("D", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))),
     (("A", "sum"), ("B", "max"), ("C", "min"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))),
     (("A", "max"), ("B", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B", "C")), ("S", ("C", "D"))),
     (("A", "min"), ("B", "min"), ("C", "max"), ("D", "max"))),
    (chain(("R", ("A", "B", "C")), ("S", ("C", "D"))), (("B", "sum"), ("D", "max"))),
    (chain(("E1", ("A", "B1")), ("E2", ("A", "B2")), ("E3", ("A", "B3"))),
     (("B1", "sum"), ("B2", "max"), ("B3", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("B", "D"))),
     (("A", "sum"), ("C", "max"), ("D", "min"), ("B", "sum"))),
]


def test_criterion_2_equivalence_characterization():
    assert len(EQUIVALENCE_SUITE) >= 20
    for h, items in EQUIVALENCE_SUITE:
        alpha = AggregationOrdering(items)
        assert len(alpha.attrs()) <= 4
        prec = compute_prec(h, alpha)
        extensions = {b.items for b in linear_extensions(prec, alpha)}
        accepted = {
            perm
            for perm in itertools.permutations(alpha.items)
            if is_equivalent(h, alpha, AggregationOrdering(perm))
        }
        assert accepted == extensions, (items, accepted ^ extensions)
    report(2, f"accepted orderings = linear extensions on {len(EQUIVALENCE_SUITE)} queries, all permutations")


# ---------------------------------------------------------------------- 3


def test_criterion_3_prec_vectors():
    h = chain(("R", ("A", "B")), ("S", ("B", "C")))
    p1 = compute_prec(h, ordering(("A", "sum"), ("B", "max"), ("C", "max")))
    assert set(p1.prec) == {("A", "B"), ("A", "C")}
    p2 = compute_prec(h, ordering(("B", "max"), ("A", "sum"), ("C", "max")))
    assert set(p2.prec) == {("B", "A")}
    h2 = chain(("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D")))
    p3 = compute_prec(h2, ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum")))
    assert set(p3.prec) == {("A", "B"), ("A", "C"), ("A", "D"), ("B", "D"), ("C", "D")}
    report(3, "three precedence fixed points match, including the two-round case")


# ---------------------------------------------------------------------- 4


def test_criterion_4_three_equivalent_orderings():
    h = chain(("R", ("A", "B")), ("S", ("A", "C")))
    alpha = ordering(("A", "sum"), ("B", "max"), ("C", "sum"))
    prec = compute_prec(h, alpha)
    exts = {b.attr_list() for b in linear_extensions(prec, alpha)}
    assert exts == {("A", "B", "C"), ("A", "C", "B"), ("C", "A", "B")}
    assert ("A", "B", "C") in exts  # the original ordering itself
    report(4, "exactly 3 equivalent orderings enumerated, original included")


# ---------------------------------------------------------------------- 5


def _random_query(rng, semiring_name, with_products):
    n = rng.randint(2, 5)
    attrs = [f"X{i}" for i in range(n)]
    shuffled = rng.sample(attrs, n)
    edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
    for j in range(rng.randint(0, 1)):
        edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
    h = Hypergraph.build(edges)
    sr = get_semiring(semiring_name)
    ops = sorted(sr.additive_ops)
    k = rng.randint(1, n) if with_products else rng.randint(0, n)
    items = []
    for idx, a in enumerate(rng.sample(attrs, k)):
        if with_products and (idx == 0 or rng.random() < 0.4):
            items.append((a, PRODUCT))
        else:
            items.append((a, rng.choice(ops)))
    return h, AggregationOrdering(tuple(items))


def test_criterion_5_semantic_soundness():
    rng = random.Random(505)
    pairs = 0
    for trial in range(210):
        name = ["int", "minplus", "bool01"][trial % 3]
        sr = get_semiring(name)
        h, alpha = _random_query(rng, name, with_products=False)
        inst = RandomInstanceSpec(
            semiring_name=name,
            domain_size=rng.choice([2, 3]),
            density=rng.choice([0.5, 0.8]),
            seed=50_000 + trial,
        ).instance(h)
        doms = DomainRegistry.from_declarations({}, inst)
        want = naive_eval(h, alpha, inst, doms, sr)
        got = run(plan(h, alpha), inst, doms, sr)
        assert got == want, (name, alpha.items)
        pairs += 1
    assert pairs >= 200

    sr = get_semiring("bool01")
    copy_runs = 0
    product_runs = 0
    trial = 0
    while product_runs < 110:
        trial += 1
        h, alpha = _random_query(rng, "bool01", with_products=True)
        if not alpha.has_products():
            continue
        inst = RandomInstanceSpec(
            semiring_name="bool01",
            domain_size=2,
            density=rng.choice([0.6, 0.9]),
            seed=90_000 + trial,
        ).instance(h)
        doms = DomainRegistry.from_declarations({}, inst)
        want = naive_eval(h, alpha, inst, doms, sr)
        query_plan = plan(h, alpha)
        got = run(query_plan, inst, doms, sr)
        assert got == want, (alpha.items,)
        product_runs += 1
        if query_plan.copies:
            copy_runs += 1
    assert product_runs >= 100
    assert copy_runs >= 40  # a healthy share exercises the renamed-copy path
    report(
        5,
        f"{pairs} plan-vs-naive pairs across 3 semirings, "
        f"{product_runs} product queries ({copy_runs} over renamed copies)",
    )


# ---------------------------------------------------------------------- 6


DECOMPOSITION_SUITE = [
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("B", "sum"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C"))), (("A", "sum"), ("B", "max"), ("C", "max"))),
    (chain(("R", ("A", "B")), ("S", ("A", "C"))), (("A", "sum"), ("B", "max"), ("C", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))),
     (("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))),
     (("A", "sum"), ("B", "max"), ("C", "min"))),
    (chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))),
     (("B", "sum"), ("C", "sum"), ("D", "sum"))),
    (chain(("E1", ("A", "B1")), ("E2", ("A", "B2")), ("E3", ("A", "B3"))),
     (("B1", "sum"), ("B2", "max"), ("B3", "sum"))),
    (chain(("R", ("A", "B", "C")), ("S", ("C", "D"))),
     (("A", "min"), ("B", "min"), ("C", "max"), ("D", "max"))),
    (chain(("R", ("X0", "X1")), ("S", ("X1", "X2")), ("T", ("X2", "X3")), ("U", ("X3", "X4"))),
     (("X0", "sum"), ("X1", "max"), ("X2", "sum"), ("X3", "max"), ("X4", "sum"))),
    (chain(("R", ("X0", "X1")), ("S", ("X1", "X2")), ("T", ("X2", "X3")), ("U", ("X3", "X4")),
           ("V", ("X4", "X0"))),
     (("X1", "sum"), ("X2", "max"), ("X3", "sum"), ("X4", "max"))),
    # single-operator 5-chain: weakest validity pruning, largest search
    (chain(("R", ("X0", "X1")), ("S", ("X1", "X2")), ("T", ("X2", "X3")), ("U", ("X3", "X4"))),
     (("X1", "sum"), ("X2", "sum"), ("X3", "sum"), ("X4", "sum"))),
]


def test_criterion_6_decomposition_optimality():
    for h, items in DECOMPOSITION_SUITE:
        alpha = AggregationOrdering(items)
        assert len(h.vertices) <= 5
        p = plan(h, alpha)
        best = min_valid_width(h, alpha)
        assert p.width == best, (items, p.width, best)
        assert isinstance(p.width, Fraction) or isinstance(p.width, int)
        # width identity on this stitch: stitched width = max over parts
        assert p.width == max(p.part_widths)
    report(6, f"plan width = exhaustive minimum on {len(DECOMPOSITION_SUITE)} queries; width identity exact")


# ---------------------------------------------------------------------- 7


def test_criterion_7_width_vectors():
    h = chain(("R", ("A", "B")), ("S", ("B", "C")))
    p = plan(h, ordering(("B", "sum"), ("C", "sum")))
    assert p.width == 1
    contrast = width(Ghd.single(("A", "B", "C")), h).width
    assert contrast == 2  # output addition folds A into one bag

    cyc = chain(*[(f"E{i}", (f"A{i}", f"A{i % 6 + 1}")) for i in range(1, 7)])
    assert plan(cyc, ordering()).width == 2

    tri = chain(("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A")))
    assert width(Ghd.single(("A", "B", "C")), tri).width == Fraction(3, 2)

    star = chain(*[(f"E{i}", ("A", f"B{i}")) for i in range(1, 5)])
    alpha = ordering(*[(f"B{i}", "sum") for i in range(1, 5)])
    p_star = plan(star, alpha)
    assert len(p_star.part_hypergraphs) == 5
    assert p_star.width == 1
    report(7, "width vectors: plan 1 vs contrast 2; cycle 2; triangle 3/2; star n+1 parts")


# ---------------------------------------------------------------------- 8


def _parity_instance(n, big_n):
    m = math.isqrt(big_n)
    h = chain(*[(f"E{i}", (f"A{i}", f"A{i % n + 1}")) for i in range(1, n + 1)])
    values = range(1, 2 * m + 1)
    same = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 0}
    flip = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 1}
    rels = {
        f"E{i}": AnnotatedRelation((f"A{i}", f"A{i % n + 1}"), same) for i in range(1, n)
    }
    rels[f"E{n}"] = AnnotatedRelation((f"A{n}", "A1"), flip)
    return h, rels


def _left_deep_tuple_work(h, rels):
    """Exact intermediate cardinalities of the left-deep chain join.

    Counts are propagated as group-by cardinalities (first attr, frontier
    attr), which equals the tuple count a materializing join would produce.
    """
    names = [e.name for e in h.edges]
    first = rels[names[0]]
    counts: dict[tuple, int] = {}
    for a1, a2 in first.tuples:
        counts[(a1, a2)] = counts.get((a1, a2), 0) + 1
    total = 0
    for name in names[1:-1]:
        rel = rels[name]
        step: dict[tuple, int] = {}
        for (a1, frontier), c in counts.items():
            for (u, v), _ in rel.tuples.items():
                if u == frontier:
                    key = (a1, v)
                    step[key] = step.get(key, 0) + c
        counts = step
        total += sum(counts.values())
    closing = rels[names[-1]]
    closed = sum(
        c for (a1, frontier), c in counts.items() if (frontier, a1) in closing.tuples
    )
    total += closed
    return total


def _slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1)) for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def test_criterion_8_output_sensitivity():
    int_sr = get_semiring("int")
    plan_points = []
    naive_points = []
    for big_n in (16, 64, 256):
        h, rels = _parity_instance(6, big_n)
        p = plan(h, ordering())
        assert p.width == 2
        stats = ExecStats()
        out = run(p, rels, None, int_sr, stats)
        assert not out  # the parity contradiction empties the join
        plan_points.append((big_n, stats.intermediate_tuples))
        naive_points.append((big_n, _left_deep_tuple_work(h, rels)))
    plan_slope = _slope(plan_points)
    naive_slope = _slope(naive_points)
    assert plan_slope <= 2.0 + 0.1, plan_points
    assert naive_slope >= 2.5 - 0.1, naive_points
    assert naive_slope - plan_slope >= 0.4, (plan_points, naive_points)
    report(
        8,
        f"log-log slopes: plan {plan_slope:.2f} vs left-deep {naive_slope:.2f} "
        f"(gap {naive_slope - plan_slope:.2f} >= 0.4)",
    )


# ---------------------------------------------------------------------- 9


def test_criterion_9_transitive_closure():
    mp = get_semiring("minplus")
    rng = random.Random(909)
    for trial in range(50):
        n = rng.randint(1, 8)
        nodes = list(range(n))
        rows = {(v, v): 0 for v in nodes}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u != v:
                key = (u, v)
                w = rng.randint(0, 9)
                rows[key] = w if key not in rows else min(rows[key], w)
        rel = AnnotatedRelation(("S", "D"), rows, zero=INF)
        budget = max(1, math.ceil(math.log2(max(n, 2))) + 1)
        closed = transitive_closure(rel, mp, max_iters=budget)
        assert dict(closed.tuples) == floyd_warshall(rel), trial
    report(9, "50 random digraphs match Floyd–Warshall within ceil(log2 V)+1 rounds")


# ---------------------------------------------------------------------- 10


def test_criterion_10_semiring_laws():
    rng = random.Random(1010)
    for spec in builtin_semirings():
        check_laws(spec, rng, triples=1000)
    bool01 = get_semiring("bool01")
    assert bool01.multiply_idempotent
    for a in (0, 1):
        assert bool01.multiply(a, a) == a
    report(10, "law suite over 1000 sampled triples per builtin; bool01 idempotence verified")
