import collections
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    DomainRegistry,
    ExecStats,
    Ghd,
    Hypergraph,
    InternalError,
    PRODUCT,
    QueryError,
    aggro_ghd_join,
    aggro_yannakakis,
    generic_join,
    get_semiring,
    join,
    register_semiring,
)
from ajar.ghd import is_compatible, is_ghd
from ajar.oracle import RandomInstanceSpec, naive_eval
from ajar import execution, planner, semirings
from ajar.planner import plan, run
from conftest import chain, ordering, random_query

# int with ⊕ a plain Python function, which generic_join folds by reduce
register_semiring(get_semiring("int")._replace(
    name="int-fn", additive_ops={"sum": lambda a, b: a + b}))


def two_node_tree(r, s):
    g = Ghd(root=0, parent={0: None, 1: 0}, chi={0: frozenset(r.schema), 1: frozenset(s.schema)})
    return g, {0: r, 1: s}


def parity_cycle_instance(n, m):
    """Same-parity chain relations with one opposite-parity closing edge."""
    h = Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i % n + 1}")) for i in range(1, n + 1)])
    values = range(1, 2 * m + 1)
    same = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 0}
    flip = {(x, y): 1 for x in values for y in values if (x - y) % 2 == 1}
    rels = {f"E{i}": AnnotatedRelation((f"A{i}", f"A{i % n + 1}"), same) for i in range(1, n)}
    rels[f"E{n}"] = AnnotatedRelation((f"A{n}", "A1"), flip)
    return h, rels


def slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1)) for _, y in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return num / sum((x - mean_x) ** 2 for x in xs)


def materializing_join(h, g, alpha, relations, semiring, domains=None, stats=None):
    """The bag-materializing pipeline, whatever the plan: every bag built
    whole by generic_join, then aggro_yannakakis over the whole tree.  No
    bag gets a message, so none drops a pi1 filter as implied."""
    home = execution._annotation_homes(h, g)
    bags = {}
    for t in g.chi:
        edges, local = execution._bag_atoms(h, g, t, home, relations, semiring.one, ())
        bags[t] = generic_join(Hypergraph.build(edges), local, semiring, stats)
        if stats:
            stats.record_bag(f"bag{t}", sum(map(len, local.values())), len(bags[t]))
    return aggro_yannakakis(g, bags, alpha, semiring, domains, stats)


class TestGenericJoin:
    def test_worked_instance(self, fig1, int_sr, chain_h):
        out = generic_join(chain_h, fig1, int_sr)
        assert out == AnnotatedRelation(("A", "B", "C"), {(1, 3, 3): 18, (1, 1, 1): 8})

    def test_triangle_diagonal(self, int_sr):
        k = 6
        diag = {(i, i): 1 for i in range(k)}
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))])
        rels = {
            "R": AnnotatedRelation(("A", "B"), diag),
            "S": AnnotatedRelation(("B", "C"), diag),
            "T": AnnotatedRelation(("C", "A"), diag),
        }
        out = generic_join(h, rels, int_sr)
        assert out == join(list(rels.values()), int_sr)
        assert len(out) == k

    def test_single_relation(self, fig1, int_sr):
        h = Hypergraph.build([("R", ("A", "B"))])
        assert generic_join(h, {"R": fig1["R"]}, int_sr) == fig1["R"]

    def test_matches_naive_join_on_randoms(self, int_sr):
        rng = random.Random(31)
        for trial in range(25):
            n = rng.randint(2, 4)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 2)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
            h = Hypergraph.build(edges)
            inst = RandomInstanceSpec(seed=trial).instance(h)
            got = generic_join(h, inst, int_sr)
            want = join([inst[e.name] for e in h.edges], int_sr)
            assert got == want

    def test_schema_mismatch_rejected(self, fig1, int_sr):
        h = Hypergraph.build([("R", ("A", "Z"))])
        with pytest.raises(QueryError):
            generic_join(h, {"R": fig1["R"]}, int_sr)

    def test_fold_equals_aggregating_the_join(self):
        configs = [("int", ["sum"]), ("qplus", ["max", "sum"]), ("minplus", ["min"]),
                   ("bool01", ["max", PRODUCT])]
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))])
        rng = random.Random(37)
        for trial in range(40):
            name, ops = configs[trial % len(configs)]
            sr = get_semiring(name)
            inst = RandomInstanceSpec(semiring_name=name, density=0.7, seed=trial).instance(h)
            doms = DomainRegistry.from_declarations({}, inst)
            attrs = rng.sample(["A", "B", "C"], rng.randint(0, 3))
            fold = AggregationOrdering(tuple((a, rng.choice(ops)) for a in attrs))
            got = generic_join(h, inst, sr, None, fold, doms)
            want = execution._fold_ordering(generic_join(h, inst, sr), fold, sr, doms)
            assert got == want, (name, fold.items)

    def test_kernel_matches_folding_the_join(self):
        # seeded sweep of the trie kernel: three or more tries on one level,
        # atoms sharing one tuple map (one trie when their columns line up),
        # all-one atoms, weighted tries that end above the last level and
        # every kind of last-level fold, against folding the whole join
        configs = [("int", ["sum"]), ("qplus", ["sum", "max"]), ("minplus", ["min"]),
                   ("bool01", ["max", PRODUCT])]
        values = {
            "int": lambda rng: rng.choice([-3, -2, -1, 1, 2, 3]),  # sums cancel to zero
            "qplus": lambda rng: Fraction(rng.randint(1, 6), rng.randint(1, 3)),
            "minplus": lambda rng: rng.randint(0, 9),
            "bool01": lambda rng: 1,
        }
        shapes = [
            [("A", "B"), ("B", "C"), ("A", "C")],
            [("A", "B"), ("B", "C"), ("B", "D"), ("B",)],
            [("A", "B"), ("B", "C"), ("A", "B", "C"), ("C", "D")],
            [("A", "B"), ("B", "A"), ("B", "C")],
        ]
        rng = random.Random(53)
        seen = collections.Counter()
        for trial in range(160):
            name, ops = configs[trial % len(configs)]
            sr = get_semiring(name)
            maps: dict[int, dict] = {}  # arity -> a tuple map atoms of that arity may share
            edges, rels = [], {}
            for k, attrs in enumerate(rng.choice(shapes)):
                if len(attrs) in maps and rng.random() < 0.6:
                    tuples = maps[len(attrs)]
                else:
                    weight = values[name] if rng.random() < 0.7 else lambda rng: sr.one
                    rows = itertools.product(range(3), repeat=len(attrs))
                    tuples = {row: weight(rng) for row in rows if rng.random() < 0.7}
                    maps[len(attrs)] = tuples
                rel = AnnotatedRelation.empty(attrs)
                rel.tuples = tuples
                edges.append((f"E{k}", attrs))
                rels[f"E{k}"] = rel
            h = Hypergraph.build(edges)
            aggregated = rng.sample(sorted(h.vertices), rng.randint(0, len(h.vertices)))
            fold = AggregationOrdering(tuple((a, rng.choice(ops)) for a in aggregated))
            doms = DomainRegistry.from_declarations({}, rels)
            got = generic_join(h, rels, sr, None, fold, doms)
            want = execution._fold_ordering(join(rels.values(), sr), fold, sr, doms)
            assert got == want, (name, fold.items, edges)
            if fold.items:
                last, op = fold.items[-1]
                weighted = [r for r in rels.values() if set(r.tuples.values()) != {sr.one}]
                seen["prod last"] += op == PRODUCT
                seen["reduce last"] += op != PRODUCT
                seen["ended"] += op != PRODUCT and any(last not in r.schema for r in weighted)
            seen["shared"] += len({id(r.tuples) for r in rels.values()}) < len(rels)
            seen["all-one"] += any(set(r.tuples.values()) == {sr.one} for r in rels.values())
            seen["zero"] += name == "int" and len(got) < len(join(rels.values(), sr))
        cases = ("prod last", "reduce last", "ended", "shared", "all-one", "zero")
        assert min(seen[case] for case in cases) >= 10, seen

    def test_multiplications_counted_on_a_weighted_self_join(self):
        # the reduce on the last level multiplies len(weighted) - 1 times per
        # joined tuple, two of its factors from tries that ended above it,
        # and ExecStats counts every call; two atoms over one trie give the
        # last level's probe one dict as both leaves, so each product is x ⊗ x
        calls = []
        base = get_semiring("int")

        def multiply(a, b):
            calls.append(1)
            return base.multiply(a, b)

        sr = base._replace(multiply=multiply)
        rng = random.Random(59)
        tuples = {(a, b): rng.choice([-2, -1, 2, 3]) for a in range(6) for b in range(6)
                  if rng.random() < 0.5}
        cases = [
            ([("E1", ("A", "B")), ("E2", ("B", "C")), ("E3", ("A", "C")), ("E4", ("A", "B"))],
             [ordering(("A", "sum"), ("B", "sum"), ("C", "sum")), ordering(("C", "sum"))]),
            ([("R", ("A", "B")), ("S", ("A", "B"))], [ordering(("B", "sum"))]),
        ]
        for atoms, folds in cases:
            h = Hypergraph.build(atoms)
            rels = {}
            for name, attrs in atoms:
                rels[name] = AnnotatedRelation.empty(attrs)
                rels[name].tuples = tuples
            joined = join(rels.values(), base)
            for fold in folds:
                calls.clear()
                stats = ExecStats()
                got = generic_join(h, rels, sr, stats, fold)
                assert got == execution._fold_ordering(joined, fold, base, None)
                assert stats.multiplications == len(calls) == (len(atoms) - 1) * len(joined)

    @pytest.mark.parametrize("data, atoms, fold", [
        # the last level (the last fold, or the last free attribute) with one,
        # two, three and four active tries
        ("int", [("R", "AB")], [("B", "sum")]),
        ("int", [("R", "AB"), ("S", "BC")], [("B", "sum")]),
        ("qplus", [("R", "AB"), ("S", "BC"), ("T", "BD")], [("D", "max"), ("B", "sum")]),
        ("minplus", [("R", "AB"), ("S", "BC"), ("T", "BD"), ("U", "B")], [("B", "min")]),
        # weighted tries that end above the last level
        ("int", [("R", "AB"), ("S", "AC")], [("C", "sum")]),
        ("qplus", [("R", "A"), ("S", "AB"), ("T", "BC")], [("B", "sum"), ("C", "max")]),
        # all-one atoms only
        ("int1", [("R", "AB"), ("S", "BC"), ("T", "AC")], [("C", "sum")]),
        # a prod last level, below an additive one
        ("bool01", [("R", "AB"), ("S", "BC")], [("A", "max"), ("B", PRODUCT)]),
        ("bool01", [("R", "AB"), ("S", "BC")], [("C", PRODUCT)]),
        # no free attributes, and no folds at all
        ("int", [("R", "AB"), ("S", "BC"), ("T", "AC")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("qplus", [("R", "AB"), ("S", "BC")], []),
        # empty intersections: R's B values and S's never meet
        ("int-split", [("R", "AB"), ("S", "BC")], [("B", "sum"), ("A", "sum")]),
        # the level above an additive last fold, with one varying trie (active
        # at both levels) and fixed ones; a name ending in 1 holds only ones
        ("int", [("S", "BC"), ("T", "AC")], [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("minplus", [("S", "BC"), ("T", "AC")], [("B", "min"), ("C", "min")]),
        ("int1", [("R", "AB"), ("S", "BC"), ("T", "AC")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("int", [("S", "BC"), ("T1", "AC")], [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("minplus", [("S1", "BC"), ("T", "AC")], [("B", "min"), ("C", "min")]),
        ("qplus", [("S", "BC")], [("B", "max"), ("C", "sum")]),
        ("bool01", [("R", "AB"), ("S", "BC")], [("B", PRODUCT), ("C", "max")]),
        # ... with weighted tries that end at the level above, or above it
        ("int", [("E", "AB"), ("S", "BC"), ("T", "AC")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("qplus", [("E", "AB"), ("S1", "BC"), ("T1", "AC")], [("B", "max"), ("C", "sum")]),
        ("int", [("U", "A"), ("E", "AB"), ("S", "BC"), ("T1", "AC")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("minplus", [("U", "A"), ("S1", "BC"), ("T1", "AC")], [("B", "min"), ("C", "min")]),
        # ... with two fixed tries, weighted or not
        ("int", [("S", "BC"), ("T", "AC"), ("U", "C")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("qplus", [("S", "BC"), ("T1", "AC"), ("V", "DC")],
         [("A", "max"), ("D", "sum"), ("B", "sum"), ("C", "max")]),
        # ... with two varying tries, or none
        ("int", [("R", "BC"), ("S", "BC"), ("T", "AC")],
         [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        ("minplus", [("E", "AB"), ("R1", "BC"), ("S", "BC")],
         [("A", "min"), ("B", "min"), ("C", "min")]),
        ("int", [("R", "AB"), ("T", "AC")], [("A", "sum"), ("B", "sum"), ("C", "sum")]),
        # a ⊕ that is a plain Python function, folded by reduce
        ("int-fn", [("S", "BC"), ("T", "AC")], [("A", "sum"), ("B", "sum"), ("C", "sum")]),
    ])
    def test_last_level_shapes(self, data, atoms, fold):
        # each shape of the last level against folding the whole join, over
        # sparse seeded data; every multiply call is counted in ExecStats
        name, weights = {
            "int": ("int", [-2, -1, 1, 2, 3]), "int-split": ("int", [-2, -1, 1, 2, 3]),
            "int1": ("int", [1]), "qplus": ("qplus", [Fraction(1, 2), 1, 3]),
            "int-fn": ("int-fn", [-2, -1, 1, 2, 3]),
            "minplus": ("minplus", [0, 2, 5]), "bool01": ("bool01", [1]),
        }[data]
        calls = []
        base = get_semiring(name)

        def multiply(a, b):
            calls.append(1)
            return base.multiply(a, b)

        sr = base._replace(multiply=multiply)
        disjoint = data == "int-split"
        h = Hypergraph.build([(rel, tuple(attrs)) for rel, attrs in atoms])
        alpha = ordering(*fold)
        for seed in range(6):
            rng = random.Random(seed)
            rels = {}
            for rel, attrs in atoms:
                rows = itertools.product(range(4), repeat=len(attrs))
                if disjoint:  # B < 2 in R, B >= 2 in S
                    rows = [row for row in rows if (row[attrs.index("B")] < 2) == (rel == "R")]
                choices = [base.one] if rel.endswith("1") else weights
                tuples = {row: rng.choice(choices) for row in rows if rng.random() < 0.6}
                rels[rel] = AnnotatedRelation(tuple(attrs), tuples)
            doms = DomainRegistry.from_declarations({}, rels)
            calls.clear()
            stats = ExecStats()
            got = generic_join(h, rels, sr, stats, alpha, doms)
            joined = join(rels.values(), base)
            assert got == execution._fold_ordering(joined, alpha, base, doms), (atoms, seed)
            assert stats.multiplications == len(calls), (atoms, seed)
            if disjoint:
                assert not got

    def test_level_above_last_fold_calls_no_function_per_value(self, int_sr):
        # an all-one triangle count folds C under all of a visit's B values at
        # once, so the Python calls from execution.py and semirings.py grow
        # with the values of A, the first level, not with the edges; an upper
        # bound, as newer Pythons inline comprehensions
        rng = random.Random(0)
        edges = set()
        while len(edges) < 500:
            edges.add(tuple(rng.sample(range(60), 2)))
        firsts = len({a for a, _ in edges})
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename in (execution.__file__, semirings.__file__):
                calls.append(frame.f_code.co_name)

        def check(atoms, tuples, sr, fold):
            rels = {}
            for name, attrs in atoms:
                rels[name] = AnnotatedRelation.empty(attrs)
                rels[name].tuples = tuples
            calls.clear()
            sys.setprofile(profile)
            try:
                got = generic_join(Hypergraph.build(atoms), rels, sr, None, fold)
            finally:
                sys.setprofile(None)
            assert got == execution._fold_ordering(join(rels.values(), sr), fold, sr, None)
            assert len(calls) <= 6 * firsts + 40, collections.Counter(calls)

        check([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))], dict.fromkeys(edges, 1),
              int_sr, ordering(("A", "sum"), ("B", "sum"), ("C", "sum")))
        # whether some triangle exists, over bool01: counted like the above
        check([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))], dict.fromkeys(edges, 1),
              get_semiring("bool01"), ordering(("A", "max"), ("B", "max"), ("C", "max")))
        # a closure round, Q(X,Y) = min[M] L(X,M), L(M,Y): no value's fold
        # compares with the min-plus zero, whose comparisons are Python methods
        lengths = {edge: rng.randint(1, 20) for edge in edges}
        check([("L1", ("X", "M")), ("L2", ("M", "Y"))], lengths, get_semiring("minplus"),
              ordering(("M", "min")))

    def test_last_level_probe_iterates_the_smaller_leaf(self, int_sr):
        # a skewed matrix product, Q() = sum[Y] sum[Z] S(Z), R(Y,Z): the fixed
        # leaf of S holds 2,000 keys and each Y's leaf of R one to three, so
        # the probes number the sum over Y of the smaller leaf's size, whichever
        # atom comes first
        rng = random.Random(61)
        s = {(z,): rng.choice([2, 3]) for z in range(2000)}
        r = {(y, z): rng.choice([-1, 2]) for y in range(300)
             for z in rng.sample(range(2100), rng.randint(1, 3))}
        work = sum(min(n, len(s)) for n in collections.Counter(y for y, _ in r).values())
        probes = []

        def profile(frame, event, arg):
            if event == "c_call" and arg.__name__ == "get" and isinstance(arg.__self__, dict):
                probes.append(1)

        fold = ordering(("Y", "sum"), ("Z", "sum"))
        for atoms in ([("S", ("Z",)), ("R", ("Y", "Z"))], [("R", ("Y", "Z")), ("S", ("Z",))]):
            rels = {"S": AnnotatedRelation(("Z",), s), "R": AnnotatedRelation(("Y", "Z"), r)}
            probes.clear()
            sys.setprofile(profile)
            try:
                got = generic_join(Hypergraph.build(atoms), rels, int_sr, None, fold)
            finally:
                sys.setprofile(None)
            assert got == execution._fold_ordering(join(rels.values(), int_sr), fold, int_sr, None)
            assert 0 < len(probes) <= work, (atoms, len(probes), work)

    @pytest.mark.parametrize("name, op", [("int", "sum"), ("bool01", "max")])
    def test_count_path_agrees_with_the_oracle(self, name, op, monkeypatch):
        # all-one inputs count their last level with int bitmasks when the
        # masks take at most one word per tuple, and with key sets otherwise;
        # atoms named by one letter share that letter's tuple map, so a trie
        # whose second level is the last one for one atom is B for another
        sr = get_semiring(name)
        shapes = [
            [("R", "E", ("A", "B")), ("S", "E", ("B", "C")), ("T", "E", ("A", "C"))],
            [("R", "E", ("A", "B")), ("S", "E", ("B", "C")), ("U", "U", ("C",))],
            # R and U are fixed on the last level, C; S, over R's map, holds B
            [("R", "E", ("A", "C")), ("S", "E", ("A", "B")), ("U", "U", ("C",))],
            # three tries on the last level, one of three levels
            [("R", "E", ("A", "C")), ("S", "E", ("B", "C")), ("T", "T", ("A", "B", "C"))],
            [("R", "E", ("A", "B")), ("S", "E", ("B", "C")), ("T", "E", ("C", "D")),
             ("U", "E", ("A", "D"))],
        ]
        masked = []
        original = execution._mask_leaves

        def spy(*args):
            masked.append(original(*args))
            return masked[-1]

        monkeypatch.setattr(execution, "_mask_leaves", spy)
        rng = random.Random(83)
        for trial in range(90):
            atoms = shapes[trial % len(shapes)]
            if trial % 3 == 2:  # sparse over a wide domain: more than a word per tuple
                size = rng.randint(100, 200)
                rows = lambda arity: {tuple(rng.randrange(size) for _ in range(arity))
                                      for _ in range(size + size // 4)}
            else:
                size, density = rng.randint(3, 40 if len(atoms) == 3 else 12), rng.uniform(0.1, 0.8)
                rows = lambda arity: {row for row in itertools.product(range(size), repeat=arity)
                                      if rng.random() < density}
            maps = {}
            rels = {}
            for rel, source, attrs in atoms:
                if source not in maps:
                    maps[source] = dict.fromkeys(rows(len(attrs)), sr.one)
                rels[rel] = AnnotatedRelation.empty(attrs)
                rels[rel].tuples = maps[source]
            h = Hypergraph.build([(rel, attrs) for rel, _, attrs in atoms])
            attrs = sorted(h.vertices)
            head = rng.sample(attrs, rng.randint(0, 1))
            alpha = AggregationOrdering(tuple((a, op) for a in rng.sample(attrs, len(attrs))
                                              if a not in head))
            want = naive_eval(h, alpha, rels, None, sr)
            context = (name, trial, atoms, alpha.items)
            assert generic_join(h, rels, sr, None, alpha) == want, context
            assert run(plan(h, alpha), rels, None, sr) == want, context
        assert True in masked and False in masked

    def test_count_path_masks_take_at_most_a_word_per_tuple(self, int_sr):
        # a star of 20,000 spokes has 20,001 leaves over 20,001 values: its
        # masks would take about 50 MB, so the count keeps its key sets and
        # peaks at a small multiple of the trie's own size
        spokes = 20_000
        star = dict.fromkeys([(0, i) for i in range(1, spokes + 1)]
                             + [(i, 0) for i in range(1, spokes + 1)], 1)
        rels = {}
        for name, attrs in [("R", ("A", "B")), ("S", ("B", "C"))]:
            rels[name] = AnnotatedRelation.empty(attrs)
            rels[name].tuples = star
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))])
        fold = ordering(("A", "sum"), ("B", "sum"), ("C", "sum"))
        tracemalloc.start()
        try:
            trie: dict = {}
            for a, b in star:
                trie.setdefault(a, {})[b] = 1
            size = tracemalloc.get_traced_memory()[0]
            del trie
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = generic_join(h, rels, int_sr, None, fold)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # every path 0 -> i -> 0, and i -> 0 -> j
        assert got == AnnotatedRelation((), {(): spokes + spokes * spokes})
        assert peak <= 3 * size, (peak, size)

    def test_distinct_counted_once_per_column(self, int_sr, monkeypatch):
        # a triangle over one tuple map orders its attributes by two scans,
        # one per column, not one per atom and attribute
        scans = []
        original = AnnotatedRelation.distinct

        def distinct(rel, attr):
            scans.append(attr)
            return original(rel, attr)

        monkeypatch.setattr(AnnotatedRelation, "distinct", distinct)
        tuples = {(i, (3 * i + j) % 20): 1 for i in range(20) for j in range(4)}
        atoms = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]
        rels = {}
        for name, attrs in atoms:
            rels[name] = AnnotatedRelation.empty(attrs)
            rels[name].tuples = tuples
        h = Hypergraph.build(atoms)
        assert generic_join(h, rels, int_sr) == join(rels.values(), int_sr)
        assert len(scans) == 2

    def test_product_fold_rejects_value_outside_domain(self):
        sr = get_semiring("bool01")
        h = Hypergraph.build([("R", ("A", "B"))])
        rels = {"R": AnnotatedRelation(("A", "B"), {(1, 1): 1, (1, 2): 1})}
        doms = DomainRegistry(values={"A": frozenset({1}), "B": frozenset({1})})
        with pytest.raises(InternalError):
            generic_join(h, rels, sr, None, ordering(("B", PRODUCT)), doms)


class TestYannakakis:
    def test_two_node_tree(self, fig1, int_sr):
        g, bags = two_node_tree(fig1["R"], fig1["S"])
        out = aggro_yannakakis(g, bags, ordering(), int_sr)
        assert out == AnnotatedRelation(("A", "B", "C"), {(1, 3, 3): 18, (1, 1, 1): 8})

    def test_single_node(self, fig1, int_sr):
        g = Ghd.single(fig1["R"].schema)
        assert aggro_yannakakis(g, {0: fig1["R"]}, ordering(), int_sr) == fig1["R"]

    def test_empty_node_empties_output(self, fig1, int_sr):
        g, bags = two_node_tree(fig1["R"], AnnotatedRelation.empty(("B", "C")))
        assert not aggro_yannakakis(g, bags, ordering(), int_sr)

    def test_join_tree_property_enforced(self, fig1, int_sr):
        # B appears at nodes 0 and 2 but not at their connector
        bags = {
            0: fig1["R"],
            1: AnnotatedRelation(("A",), {(1,): 1}),
            2: fig1["S"],
        }
        bad = Ghd(
            root=0,
            parent={0: None, 1: 0, 2: 1},
            chi={t: frozenset(rel.schema) for t, rel in bags.items()},
        )
        with pytest.raises(QueryError):
            aggro_yannakakis(bad, bags, ordering(), int_sr)

    def test_semijoins_only_affect_counters(self, fig1, int_sr, monkeypatch):
        g, bags = two_node_tree(fig1["R"], fig1["S"])
        expected = aggro_yannakakis(g, bags, ordering(), int_sr)
        monkeypatch.setattr(execution, "_semijoin_passes", lambda *a, **k: None)
        assert aggro_yannakakis(g, bags, ordering(), int_sr) == expected


class TestAggroYannakakis:
    def test_worked_total(self, fig1, int_sr):
        g, bags = two_node_tree(fig1["R"], fig1["S"])
        alpha = ordering(("C", "sum"), ("B", "sum"))
        out = aggro_yannakakis(g, bags, alpha, int_sr)
        assert out == AnnotatedRelation(("A",), {(1,): 26})

    def test_star_matches_naive(self, int_sr):
        h = Hypergraph.build([("E1", ("A", "B1")), ("E2", ("A", "B2"))])
        inst = RandomInstanceSpec(seed=5).instance(h)
        g, bags = two_node_tree(inst["E1"], inst["E2"])
        alpha = ordering(("B1", "sum"), ("B2", "sum"))
        got = aggro_yannakakis(g, bags, alpha, int_sr)
        assert got == naive_eval(h, alpha, inst, None, int_sr)

    @pytest.mark.parametrize(
        "name,ops", [("int", ("sum",)), ("qplus", ("sum", "max")), ("bool01", ("max", PRODUCT))]
    )
    def test_run_leaves_it_nothing_to_fold(self, monkeypatch, name, ops):
        # under run() it gets the output region, whose bags compatibility
        # keeps free of aggregated attributes: its ordering, restricted to
        # the region's attributes, is empty, so its fold never aggregates
        received = []
        real = execution.aggro_yannakakis

        def spy(g, bags, alpha, *args):
            received.append((len(g.chi), alpha.restrict(g.attr_universe())))
            return real(g, bags, alpha, *args)

        monkeypatch.setattr(execution, "aggro_yannakakis", spy)
        sr = get_semiring(name)
        rng = random.Random(77)
        for seed in range(250):
            h, alpha = random_query(rng, ops=ops)
            inst = RandomInstanceSpec(semiring_name=name, domain_size=2, seed=seed).instance(h)
            doms = DomainRegistry.from_declarations({}, inst)
            got = run(plan(h, alpha), inst, doms, sr)
            assert got == naive_eval(h, alpha, inst, doms, sr), (h, alpha)
        assert len(received) >= 200
        assert all(len(fold) == 0 for _, fold in received)
        assert sum(bags > 1 for bags, _ in received) >= 10  # outputs below the root


class TestGhdJoin:
    def test_single_bag_equals_generic_join(self, fig1, int_sr, chain_h):
        g = Ghd.single(("A", "B", "C"))
        assert aggro_ghd_join(chain_h, g, ordering(), fig1, int_sr) == generic_join(
            chain_h, fig1, int_sr
        )

    def test_parity_cycle_empty_output(self, int_sr):
        h, rels = parity_cycle_instance(6, 3)
        bags = [("A1", "A2", "A3"), ("A1", "A3", "A4"), ("A1", "A4", "A5"), ("A1", "A5", "A6")]
        out = aggro_ghd_join(h, chain(bags), ordering(), rels, int_sr)
        assert not out

    def test_worked_rational_instance(self, fig2, chain_h):
        sr = get_semiring("qplus")
        g = chain([("A", "B"), ("B", "C")])
        out = aggro_ghd_join(chain_h, g, ordering(), fig2, sr)
        assert out == join([fig2["R"], fig2["S"]], sr)


class TestAggroGhdJoin:
    def test_worked_end_to_end(self, fig1, int_sr, chain_h):
        # the compatible equivalent of aggregating C then B (same operator)
        g = chain([("A", "B"), ("B", "C")])
        beta = ordering(("B", "sum"), ("C", "sum"))
        out = aggro_ghd_join(chain_h, g, beta, fig1, int_sr)
        assert out == AnnotatedRelation(("A",), {(1,): 26})

    def test_incompatible_ghd_rejected(self, fig1, int_sr, chain_h):
        g = chain([("B", "C"), ("A", "B")])  # C's top above A's, C aggregated
        alpha = ordering(("C", "sum"), ("B", "sum"))
        with pytest.raises(QueryError):
            aggro_ghd_join(chain_h, g, alpha, fig1, int_sr)

    def test_non_ghd_rejected_on_both_paths(self, int_sr):
        # B lies in bags 1 and 3 but not in bags 0 and 2 between them, so the
        # tree is no GHD, though compatible with both orderings below
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("A", "D")), ("T", ("D", "B", "C"))])
        g = Ghd(
            root=0,
            parent={0: None, 1: 0, 2: 0, 3: 2},
            chi={0: frozenset("A"), 1: frozenset("AB"), 2: frozenset("AD"), 3: frozenset("DBC")},
        )
        inst = RandomInstanceSpec(seed=3).instance(h)
        assert not is_ghd(h, g)
        message_passing = ordering(("B", "sum"), ("D", "sum"), ("C", "sum"))  # output A at the root
        materializing = ordering(("D", "sum"), ("C", "sum"))  # output B below the root
        for beta in (message_passing, materializing):
            assert is_compatible(g, beta)
            with pytest.raises(QueryError):
                aggro_ghd_join(h, g, beta, inst, int_sr)

    def test_random_compatible_ghds_match_naive(self, int_sr):
        rng = random.Random(41)
        from ajar.oracle import exhaustive_valid_ghds
        from ajar.ordering import compute_prec, test_equivalence
        from ajar.ghd import is_compatible

        done = 0
        while done < 15:
            n = rng.randint(2, 4)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            h = Hypergraph.build(edges)
            k = rng.randint(0, n)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(["sum"])) for a in rng.sample(attrs, k))
            )
            inst = RandomInstanceSpec(seed=100 + done).instance(h)
            want = naive_eval(h, alpha, inst, None, int_sr)
            candidates = [
                g for g in exhaustive_valid_ghds(h, alpha) if is_compatible(g, alpha)
            ]
            if not candidates:
                continue
            for g in candidates[:: max(1, len(candidates) // 5)]:
                got = aggro_ghd_join(h, g, alpha, inst, int_sr)
                assert got == want
            done += 1

    def test_annotation_once_prime_degrees(self, int_sr, chain_h):
        # multiply each relation's annotations by a fresh prime; each output
        # tuple's annotation must have prime degree exactly one per relation
        r = AnnotatedRelation(("A", "B"), {(1, 1): 2, (1, 2): 2})
        s = AnnotatedRelation(("B", "C"), {(1, 1): 3, (2, 1): 3})
        g = chain([("A", "B"), ("B", "C")])
        out = aggro_ghd_join(chain_h, g, ordering(), {"R": r, "S": s}, int_sr)
        for row, lam in out.tuples.items():
            for prime in (2, 3):
                degree = 0
                value = lam
                while value % prime == 0:
                    value //= prime
                    degree += 1
                assert degree == 1

    def test_stats_counters_populate(self, fig1, int_sr, chain_h):
        stats = ExecStats()
        g = chain([("A", "B"), ("B", "C")])
        aggro_ghd_join(chain_h, g, ordering(("B", "sum"), ("C", "sum")), fig1, int_sr, None, stats)
        payload = stats.to_dict()
        assert payload["bag_output_tuples"]
        assert payload["annotation_multiplications"] > 0
        assert payload["intermediate_tuples"] > 0

    def test_shared_stats_sum_bag_counts(self, fig1, int_sr, chain_h):
        g = chain([("A", "B"), ("B", "C")])
        beta = ordering(("B", "sum"), ("C", "sum"))
        once = ExecStats()
        aggro_ghd_join(chain_h, g, beta, fig1, int_sr, None, once)
        twice = ExecStats()
        for _ in range(2):
            aggro_ghd_join(chain_h, g, beta, fig1, int_sr, None, twice)
        assert twice.bag_input_tuples == {k: 2 * v for k, v in once.bag_input_tuples.items()}
        assert twice.bag_output_tuples == {k: 2 * v for k, v in once.bag_output_tuples.items()}
        assert twice.intermediate_tuples == 2 * once.intermediate_tuples

    def test_message_passing_annotation_once(self):
        # each relation's tuples carry one distinct prime; under max, every
        # output annotation of the 3-path is a max of equal path products,
        # so it equals 2*3*5 exactly when each relation is multiplied once
        sr = get_semiring("qplus")
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))])
        g = chain([("A", "C", "D"), ("A", "B", "C")])  # outputs A, D at the root
        beta = ordering(("C", "max"), ("B", "max"))
        primes = {"R": 2, "S": 3, "T": 5}
        for seed in range(5):
            inst = RandomInstanceSpec(semiring_name="qplus", density=0.7, seed=seed).instance(h)
            rels = {
                name: AnnotatedRelation(rel.schema, {row: primes[name] for row in rel.tuples})
                for name, rel in inst.items()
            }
            stats = ExecStats()
            out = aggro_ghd_join(h, g, beta, rels, sr, None, stats)
            assert out and stats.semijoin_removed == 0
            assert set(out.tuples.values()) == {30}
            assert out == naive_eval(h, beta, rels, None, sr)

    def test_message_passing_matches_materializing(self, monkeypatch):
        # run() on message-passing plans against the bag-materializing
        # pipeline and the oracle; plans with an output attribute below the
        # root also join an output region of several bags in aggro_yannakakis
        configs = [
            ("int", ["sum"]),
            ("qplus", ["max", "sum"]),
            ("minplus", ["min"]),
            ("bool01", ["max", PRODUCT, PRODUCT]),
        ]
        materialized = []
        calls = []
        original = execution.aggro_yannakakis

        def spy(g, *args, **kwargs):
            if len(g.chi) > 1:
                calls.append(1)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(execution, "aggro_yannakakis", spy)
        rng = random.Random(83)
        for trial in range(120):
            name, ops = configs[trial % len(configs)]
            sr = get_semiring(name)
            n = rng.randint(2, 5)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 1)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
            h = Hypergraph.build(edges)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(ops)) for a in rng.sample(attrs, rng.randint(0, n)))
            )
            inst = RandomInstanceSpec(
                semiring_name=name, domain_size=rng.choice([2, 3]),
                density=rng.choice([0.6, 0.9]), seed=8000 + trial,
            ).instance(h)
            doms = DomainRegistry.from_declarations({}, inst)
            p = plan(h, alpha)
            calls.clear()
            got = run(p, inst, doms, sr)
            materialized.append(bool(calls))
            with monkeypatch.context() as m:
                m.setattr(execution, "aggro_ghd_join", materializing_join)
                m.setattr(planner, "aggro_ghd_join", materializing_join)
                reference = run(p, inst, doms, sr)
            context = (name, alpha.items, [(e.name, sorted(e.attrs)) for e in h.edges])
            assert got == reference, context
            assert got == naive_eval(h, alpha, inst, doms, sr), context
        print(materialized.count(False), materialized.count(True))
        assert materialized.count(False) >= 20 and materialized.count(True) >= 10

    def test_aggregated_parity_cycle_is_output_sensitive(self, int_sr):
        # criterion 8's instance with every attribute aggregated: the root
        # holds no output, so messages carry it, and their total size grows
        # no faster than the relations themselves
        alpha = AggregationOrdering(tuple((f"A{i}", "sum") for i in range(1, 7)))
        points = []
        for big_n in (16, 64, 256):
            h, rels = parity_cycle_instance(6, math.isqrt(big_n))
            p = plan(h, alpha)
            stats = ExecStats()
            assert not run(p, rels, None, int_sr, stats)
            baseline = ExecStats()
            materializing_join(h, p.ghd, p.beta, rels, int_sr, None, baseline)
            assert stats.intermediate_tuples < baseline.intermediate_tuples
            points.append((big_n, stats.intermediate_tuples))
        assert slope(points) <= 2.0 + 0.1, points

    def test_output_region_matches_naive_and_materializing(self):
        # plans with an output attribute below the root: the output region's
        # results are semijoin-reduced and joined, everything below them
        # folds into messages
        configs = [("int", ["sum"]), ("qplus", ["max", "sum"]), ("minplus", ["min"])]
        rng = random.Random(97)
        done = trial = 0
        while done < 40:
            trial += 1
            name, ops = configs[trial % len(configs)]
            sr = get_semiring(name)
            n = rng.randint(3, 6)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 2)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(2, min(3, n))))))
            h = Hypergraph.build(edges)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(ops)) for a in rng.sample(attrs, rng.randint(1, n - 1)))
            )
            p = plan(h, alpha)
            if h.vertices - alpha.attrs() <= p.ghd.chi[p.ghd.root]:
                continue
            inst = RandomInstanceSpec(
                semiring_name=name, density=0.7, seed=9000 + trial
            ).instance(h)
            stats, baseline = ExecStats(), ExecStats()
            got = run(p, inst, None, sr, stats)
            reference = materializing_join(h, p.ghd, p.beta, inst, sr, None, baseline)
            context = (name, alpha.items, [(e.name, sorted(e.attrs)) for e in h.edges])
            assert got == naive_eval(h, alpha, inst, None, sr) == reference, context
            assert stats.intermediate_tuples <= baseline.intermediate_tuples, context
            done += 1

    def test_cycle_below_output_path_folds_into_a_message(self, int_sr):
        # outputs A1-A3 on a path, a 4-cycle through A3 aggregated: the
        # cycle's bags send a message to the region instead of being built
        h = Hypergraph.build([
            ("P1", ("A1", "A2")), ("P2", ("A2", "A3")),
            ("C1", ("A3", "X")), ("C2", ("X", "Y")), ("C3", ("Y", "Z")), ("C4", ("Z", "A3")),
        ])
        alpha = ordering(("X", "sum"), ("Y", "sum"), ("Z", "sum"))
        inst = RandomInstanceSpec(domain_size=5, density=0.5, seed=11).instance(h)
        p = plan(h, alpha)
        assert not {"A1", "A2", "A3"} <= p.ghd.chi[p.ghd.root]
        stats, baseline = ExecStats(), ExecStats()
        got = run(p, inst, None, int_sr, stats)
        assert got == naive_eval(h, alpha, inst, None, int_sr)
        assert got == materializing_join(h, p.ghd, p.beta, inst, int_sr, None, baseline)
        assert stats.intermediate_tuples < baseline.intermediate_tuples

    @staticmethod
    def bag_atoms_spy(monkeypatch):
        """Record each bag join's atoms, keyed by the bag's attributes, as
        (name, sorted attributes) pairs."""
        atoms = {}
        original = execution.generic_join

        def spy(h, *args, **kwargs):
            atoms[frozenset(h.vertices)] = {(e.name, tuple(sorted(e.attrs))) for e in h.edges}
            return original(h, *args, **kwargs)

        monkeypatch.setattr(execution, "generic_join", spy)
        return atoms

    def test_message_implied_filters_dropped(self, int_sr, monkeypatch):
        # the path4 plan shape: bag 1 keeps pi1 of E4, homed above it, but
        # not of E1 or E2, whose message from bag 2 already filters them;
        # bag 0 takes E4 and its message only
        h = Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i + 1}")) for i in range(1, 5)])
        alpha = ordering(("A2", "sum"), ("A3", "sum"), ("A4", "sum"))
        p = plan(h, alpha)
        assert p.ghd.chi == {
            0: {"A1", "A4", "A5"}, 1: {"A1", "A3", "A4"}, 2: {"A1", "A2", "A3"},
        }
        atoms = self.bag_atoms_spy(monkeypatch)
        inst = RandomInstanceSpec(domain_size=4, density=0.6, seed=5).instance(h)
        stats = ExecStats()
        assert run(p, inst, None, int_sr, stats) == naive_eval(h, alpha, inst, None, int_sr)
        chi = p.ghd.chi
        assert atoms[chi[2]] == {("E1", ("A1", "A2")), ("E2", ("A2", "A3")), ("E3", ("A3",))}
        assert atoms[chi[1]] == {("E3", ("A3", "A4")), ("<bag2>", ("A1", "A3")), ("E4", ("A4",))}
        assert atoms[chi[0]] == {("E4", ("A4", "A5")), ("<bag1>", ("A1", "A4"))}
        message, filter_e4 = stats.bag_output_tuples["bag2"], len(inst["E4"].distinct("A4"))
        assert stats.bag_input_tuples["bag1"] == len(inst["E3"]) + message + filter_e4

    def test_region_child_keeps_filters(self, int_sr, monkeypatch):
        # outputs A, B, C reach bag 1, so bag 1 sends no message: the root
        # keeps pi1 of S, homed at bag 1, while bag 1 keeps pi1 of R, homed
        # above it, and drops pi1 of T, homed at bag 2, whose message is on C
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))])
        g = chain([("A", "B"), ("B", "C"), ("C", "D")])
        alpha = ordering(("D", "sum"))
        atoms = self.bag_atoms_spy(monkeypatch)
        for seed in range(4):
            inst = RandomInstanceSpec(domain_size=4, density=0.5, seed=seed).instance(h)
            got = aggro_ghd_join(h, g, alpha, inst, int_sr)
            assert got == naive_eval(h, alpha, inst, None, int_sr)
            assert atoms[g.chi[0]] == {("R", ("A", "B")), ("S", ("B",))}
            assert atoms[g.chi[1]] == {("S", ("B", "C")), ("R", ("B",)), ("<bag2>", ("C",))}

    def test_every_multiplication_counted(self):
        # ExecStats counts each call of the semiring's multiply: in the bag
        # joins, in relations.join and the folds of the output region, and
        # in run()'s product pre-pass and scalar joins
        calls = []

        def counting(name):
            base = get_semiring(name)

            def multiply(a, b):
                calls.append(1)
                return base.multiply(a, b)

            return base, base._replace(multiply=multiply)

        path = Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i + 1}")) for i in range(1, 6)])
        collapsed = Hypergraph.build([("R", ("A", "B")), ("S", ("C",))])
        cases = [
            ("int", path, ordering(("A4", "sum"), ("A5", "sum"), ("A6", "sum"))),
            ("bool01", collapsed, ordering(("B", "max"), ("C", PRODUCT))),
        ]
        for name, h, alpha in cases:
            base, sr = counting(name)
            p = plan(h, alpha)
            if h is path:  # outputs A1-A3 reach below the root
                assert not {"A1", "A2", "A3"} <= p.ghd.chi[p.ghd.root]
            else:  # S folds to a scalar in the pre-pass
                assert p.prepass == [("S", "C")]
            for seed in range(4):
                inst = RandomInstanceSpec(
                    semiring_name=name, domain_size=4, density=0.7, seed=seed
                ).instance(h)
                doms = DomainRegistry.from_declarations({}, inst)
                calls.clear()
                stats = ExecStats()
                got = run(p, inst, doms, sr, stats)
                assert got == naive_eval(h, alpha, inst, doms, base)
                assert calls and stats.multiplications == len(calls), (name, seed)


class TestExecuteAghd:
    """Product plans, GHDs over copies of their product attributes, through
    plan and run."""

    def test_trivial_partition_matches_naive(self, chain_h):
        sr = get_semiring("bool01")
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        inst = RandomInstanceSpec(semiring_name="bool01", domain_size=2, density=0.8, seed=3).instance(chain_h)
        doms = DomainRegistry.from_declarations({}, inst)
        p = plan(chain_h, alpha)
        assert p.copies
        got = run(p, inst, doms, sr)
        assert got == naive_eval(chain_h, alpha, inst, doms, sr)

    def test_non_idempotent_rejected(self, chain_h, int_sr, fig1):
        alpha = ordering(("B", PRODUCT), ("A", "sum"), ("C", "sum"))
        p = plan(chain_h, alpha)
        assert p.copies
        doms = DomainRegistry.from_declarations({}, fig1)
        with pytest.raises(QueryError, match="idempotent"):
            run(p, fig1, doms, int_sr)

    def test_random_product_instances(self, chain_h):
        sr = get_semiring("bool01")
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        p = plan(chain_h, alpha)
        for seed in range(30):
            inst = RandomInstanceSpec(
                semiring_name="bool01", domain_size=2, density=0.7, seed=seed
            ).instance(chain_h)
            doms = DomainRegistry.from_declarations({}, inst)
            got = run(p, inst, doms, sr)
            assert got == naive_eval(chain_h, alpha, inst, doms, sr)
