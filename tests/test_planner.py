import math
import random
from fractions import Fraction

import pytest

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    DomainRegistry,
    Hypergraph,
    INF,
    PRODUCT,
    QueryError,
    get_semiring,
    naive_eval,
    plan,
    run,
    transitive_closure,
)
from ajar.ghd import cost_edges_for, is_compatible, is_ghd, is_valid, optimal_ghd
from ajar.lp import fractional_cover_value
from ajar.oracle import RandomInstanceSpec, floyd_warshall
from ajar.ordering import compute_prec
from ajar.ordering import test_equivalence as is_equivalent
from conftest import ordering, random_query


class TestPlan:
    def test_worked_two_bag_plan(self, chain_h):
        p = plan(chain_h, ordering(("B", "sum"), ("C", "sum")))
        assert p.width == 1
        bags = sorted(sorted(b) for b in p.ghd.chi.values())
        # the output part's bag {A} folds into its only child {A,B}
        assert bags == [["A", "B"], ["B", "C"]]

    def test_no_output_triangle_has_no_empty_root(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))])
        p = plan(h, ordering(("A", "sum"), ("B", "sum"), ("C", "sum")))
        assert p.ghd.chi == {p.ghd.root: frozenset("ABC")}
        assert p.ghd.parent == {p.ghd.root: None}
        assert p.width == Fraction(3, 2)
        assert p.part_widths == [0, Fraction(3, 2)]  # the output part is empty

    def test_no_output_parts_hang_below_the_first(self):
        # two components and no output: the second part's root hangs below
        # the first's instead of both below an empty bag; each part's {A}
        # and {C} bag folds into its only child first
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("C", "D"))])
        p = plan(h, ordering(("A", "sum"), ("B", "max"), ("C", "sum"), ("D", "max")))
        g = p.ghd
        (cd,) = [t for t in g.chi if t != g.root]
        assert g.chi == {g.root: frozenset("AB"), cd: frozenset("CD")}
        assert g.parent == {g.root: None, cd: g.root}
        assert p.part_widths == [0, 1, 1, 1, 1]
        sr = get_semiring("qplus")
        inst = RandomInstanceSpec(semiring_name="qplus", seed=4).instance(h)
        assert run(p, inst, None, sr) == naive_eval(h, p.alpha, inst, None, sr)

    def test_closure_squaring_plan_is_one_bag(self):
        # the output part's {X,Y} folds into its only child: one bag join
        h = Hypergraph.build([("L1", ("X", "M")), ("L2", ("M", "Y"))])
        p = plan(h, ordering(("M", "min")))
        assert p.ghd.chi == {p.ghd.root: frozenset("XMY")}
        assert p.ghd.parent == {p.ghd.root: None}
        assert p.width == 2 and p.part_widths == [2, 2]

    def test_path4_plan_has_three_bags(self):
        # the output root {A1,A5} folds into the bag below it
        h = Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i + 1}")) for i in range(1, 5)])
        p = plan(h, ordering(("A2", "sum"), ("A3", "sum"), ("A4", "sum")))
        g = p.ghd
        assert sorted(sorted(b) for b in g.chi.values()) == [
            ["A1", "A2", "A3"], ["A1", "A3", "A4"], ["A1", "A4", "A5"]
        ]
        assert g.chi[g.root] == frozenset({"A1", "A4", "A5"})
        assert p.width == 2 and p.part_widths == [2, 2]

    def test_star_five_parts_width_one(self):
        star = Hypergraph.build([(f"E{i}", ("A", f"B{i}")) for i in range(1, 5)])
        alpha = ordering(*[(f"B{i}", "sum") for i in range(1, 5)])
        p = plan(star, alpha)
        assert p.width == 1
        assert len(p.part_hypergraphs) == 5

    def test_parity_cycle_width_two(self):
        cyc = Hypergraph.build(
            [(f"E{i}", (f"A{i}", f"A{i % 6 + 1}")) for i in range(1, 7)]
        )
        p = plan(cyc, ordering())
        assert p.width == 2

    def test_beta_always_equivalent(self):
        rng = random.Random(51)
        for trial in range(40):
            n = rng.randint(2, 5)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 2)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
            h = Hypergraph.build(edges)
            k = rng.randint(0, n)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(["sum", "max", "min"])) for a in rng.sample(attrs, k))
            )
            p = plan(h, alpha)
            assert is_equivalent(h, p.alpha, p.beta) or not p.alpha.items
            assert is_compatible(p.ghd, p.beta)

    def test_attribute_cap(self):
        h = Hypergraph.build([("R", tuple(f"X{i}" for i in range(13)))])
        with pytest.raises(QueryError):
            plan(h, ordering())

    def test_unknown_ordering_attribute_rejected(self, chain_h):
        with pytest.raises(QueryError):
            plan(chain_h, ordering(("Z", "sum")))

    def test_plan_json_export(self, chain_h):
        p = plan(chain_h, ordering(("B", "sum"), ("C", "sum")))
        payload = p.to_dict()
        assert payload["width"] == 1
        assert payload["mode"] == "unit"
        assert len(payload["nodes"]) == 2
        assert payload["ordering"] == [["B", "sum"], ["C", "sum"]]

    def test_plan_deterministic(self):
        h = Hypergraph.build(
            [("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D")), ("U", ("A", "C"))]
        )
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))
        first = plan(h, alpha).to_dict()
        for _ in range(3):
            assert plan(h, alpha).to_dict() == first

    def test_product_plan_exports_partition(self, chain_h):
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        p = plan(chain_h, alpha)
        assert p.copies == {"B#1": "B", "B#2": "B"}
        payload = p.to_dict()
        assert "product_partition" in payload
        assert is_equivalent(chain_h, p.alpha, p.beta)

    def test_data_mode_prefers_small_relations(self, chain_h):
        p = plan(chain_h, ordering(), sizes={"R": 4, "S": 4096})
        assert p.width_report.mode == "data"
        assert p.width <= 2.0

    def test_sizes_alone_price_by_the_sizes(self, chain_h):
        # bags {A,B} and {B,C}, the wider priced at log_4100 4096, below 1
        p = plan(chain_h, ordering(), sizes={"R": 4, "S": 4096})
        assert p.width_report.mode == "data"
        assert p.to_dict()["mode"] == "data"
        assert p.width == pytest.approx(math.log(4096) / math.log(4100))

    def test_a_fully_collapsed_product_query_keeps_its_number_type(self, chain_h):
        # the pre-pass aggregates every edge away, so no cost is left to
        # choose the arithmetic: sizes still give float widths
        alpha = ordering(("A", PRODUCT), ("B", PRODUCT), ("C", PRODUCT))
        unit = plan(chain_h, alpha)
        data = plan(chain_h, alpha, sizes={"R": 10, "S": 10}).to_dict()
        assert not unit.hypergraph.edges
        assert type(unit.width) is Fraction
        assert data["mode"] == "data"
        widths = [data["width"], *data["part_widths"], *(n["width"] for n in data["nodes"])]
        assert [type(w) for w in widths] == [float] * len(widths)

    def test_a_missing_size_names_its_edge(self, chain_h):
        with pytest.raises(QueryError, match="'S'"):
            plan(chain_h, ordering(), sizes={"R": 10})

    @pytest.mark.parametrize("size", [-5, 0, True, False, 2.5, 10.0, "10", None])
    def test_a_size_that_is_not_a_positive_int_names_its_edge(self, chain_h, size):
        with pytest.raises(QueryError, match="'R'"):
            plan(chain_h, ordering(), sizes={"R": size, "S": 10})

    @pytest.mark.parametrize("mode", ["unit", "data"])
    def test_part_widths_are_each_parts_own_width(self, mode):
        # part i's width is the max cover value over the bags of part i's own
        # optimal GHD, priced against the query's relations
        rng = random.Random(53)
        for trial in range(40):
            n = rng.randint(2, 6)
            attrs = [f"X{i}" for i in range(n)]
            edges = [
                (f"E{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n)))))
                for j in range(rng.randint(1, 5))
            ]
            h = Hypergraph.build(edges)
            verts = sorted(h.vertices)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(["sum", "max", "min"]))
                      for a in rng.sample(verts, rng.randint(0, len(verts))))
            )
            sizes = {e.name: rng.randint(1, 1000) for e in h.edges} if mode == "data" else None
            p = plan(h, alpha, sizes=sizes)
            cost = cost_edges_for(h, sizes)
            assert len(p.part_widths) == len(p.part_hypergraphs)
            for part_h, got in zip(p.part_hypergraphs, p.part_widths):
                g = optimal_ghd(part_h, cost_edges=cost)
                want = max(
                    fractional_cover_value(bag, cost)
                    for bag in g.chi.values()
                )
                assert got == want, (trial, alpha.items, edges)

    def test_circulant_plan_settles_most_bags_without_the_lp(self, monkeypatch):
        # C9(1,2) with every attribute summed, names and atom order drawn as
        # the benchmark's seed-1 query draws them: its elimination DP meets
        # 283 distinct bags, all over binary edges, which it prices by a
        # matching without the LP, so planning solves at most 150 cover LPs
        from ajar import ghd

        rng = random.Random("plan_circulant:1")
        labels = rng.sample(range(100, 1000), 9)
        atoms = [(i, (i + step) % 9) for i in range(9) for step in (1, 2)]
        rng.shuffle(atoms)
        h = Hypergraph.build(
            [(f"R{k}", (f"V{labels[a]}", f"V{labels[b]}")) for k, (a, b) in enumerate(atoms)]
        )
        rng.shuffle(labels)
        calls = []
        original = ghd.fractional_cover_value

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ghd, "fractional_cover_value", spy)
        p = plan(h, ordering(*[(f"V{label}", "sum") for label in labels]))
        assert p.width == Fraction(5, 2)
        assert len(calls) <= 150, len(calls)

    @pytest.mark.parametrize("n,seed", [(9, "plan_circulant:1"), (12, "circulant:12")])
    def test_circulant_elimination_dp_solves_no_lp(self, monkeypatch, n, seed):
        # every bag of C_n(1,2) meets its edges in at most two attributes at
        # unit cost, so the DP prices it by a matching: no simplex runs in
        # optimal_ghd, and plan() solves only width()'s LPs; C9 is the
        # benchmark's seed-1 query, C12 sits at the cap
        from ajar import ghd

        rng = random.Random(seed)
        labels = rng.sample(range(100, 1000), n)
        atoms = [(i, (i + step) % n) for i in range(n) for step in (1, 2)]
        rng.shuffle(atoms)
        h = Hypergraph.build(
            [(f"R{k}", (f"V{labels[a]}", f"V{labels[b]}")) for k, (a, b) in enumerate(atoms)]
        )
        rng.shuffle(labels)
        calls = []
        original = ghd.fractional_cover_value

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ghd, "fractional_cover_value", spy)
        g = optimal_ghd(h)
        assert calls == []
        assert ghd.width(g, h).width == Fraction(5, 2)
        calls.clear()
        p = plan(h, ordering(*[(f"V{label}", "sum") for label in labels]))
        assert p.width == Fraction(5, 2)
        assert len(calls) <= 12, len(calls)

    def test_data_costs_scaling_to_ones_are_priced_by_the_matching(self, monkeypatch):
        # costs 1.0 or 0.5 on every edge scale to all ones, so the matching
        # prices every bag of the 5-cycle, no LP runs, and the tree is the
        # unpruned search's
        from ajar import ghd
        from reference_ghd import unpruned_optimal_ghd

        priced, solves = [], []
        make, solve = ghd.graph_cover_pricer, ghd.fractional_cover_value

        def counting_pricer(edges):
            price = make(edges)

            def spy(bag):
                value = price(bag)
                priced.append(value)
                return value

            return spy

        def counting_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(ghd, "graph_cover_pricer", counting_pricer)
        monkeypatch.setattr(ghd, "fractional_cover_value", counting_solve)
        h = Hypergraph.build([(f"R{i}", (f"A{i}", f"A{(i + 1) % 5}")) for i in range(5)])
        for cost in (1.0, 0.5):
            priced.clear()
            cost_edges = [(e.attrs, cost) for e in h.edges]
            g = optimal_ghd(h, cost_edges=cost_edges)
            want = unpruned_optimal_ghd(h, cost_edges=cost_edges)
            assert (g.root, g.parent, g.chi) == (want.root, want.parent, want.chi)
            assert priced and None not in priced and not solves


class TestContraction:
    def test_contracted_plans_stay_valid_and_exact(self):
        # contraction merges stitched bags across parts; every plan must
        # stay a valid GHD compatible with its ordering and give the naive
        # answer
        sr = get_semiring("qplus")
        rng = random.Random(83)
        for trial in range(300):
            h, alpha = random_query(rng, ops=("sum", "max"), max_edges=4)
            p = plan(h, alpha)
            where = (trial, alpha.items, h.edges)
            assert is_ghd(h, p.ghd), where
            assert is_compatible(p.ghd, p.beta), where
            assert is_valid(compute_prec(h, p.alpha), p.ghd), where
            inst = RandomInstanceSpec(
                semiring_name="qplus", domain_size=2, density=0.7, seed=9000 + trial
            ).instance(h)
            assert run(p, inst, None, sr) == naive_eval(h, alpha, inst, None, sr), where


class TestRun:
    def test_worked_total(self, fig1, int_sr, chain_h):
        p = plan(chain_h, ordering(("C", "sum"), ("B", "sum")))
        out = run(p, fig1, None, int_sr)
        assert out == AnnotatedRelation(("A",), {(1,): 26})

    def test_empty_relation_empties_result(self, fig1, int_sr, chain_h):
        rels = {"R": fig1["R"], "S": AnnotatedRelation.empty(("B", "C"))}
        p = plan(chain_h, ordering(("C", "sum"), ("B", "sum")))
        assert not run(p, rels, None, int_sr)

    def test_schema_mismatch_rejected(self, fig1, int_sr, chain_h):
        p = plan(chain_h, ordering())
        bad = {"R": fig1["R"], "S": fig1["R"]}
        with pytest.raises(QueryError):
            run(p, bad, None, int_sr)

    def test_extra_relations_are_ignored(self, fig1, int_sr, chain_h):
        # a relation the plan does not use is neither joined nor an error
        p = plan(chain_h, ordering(("C", "sum"), ("B", "sum")))
        extra = dict(fig1, X=AnnotatedRelation(("Z",), {(1,): 5}))
        assert run(p, extra, None, int_sr) == run(p, fig1, None, int_sr)

    def test_matches_naive_on_randoms(self):
        rng = random.Random(61)
        for trial in range(60):
            name = ["int", "minplus", "bool01"][trial % 3]
            sr = get_semiring(name)
            n = rng.randint(2, 5)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 1)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
            h = Hypergraph.build(edges)
            ops = sorted(sr.additive_ops)
            k = rng.randint(0, n)
            items = []
            for a in rng.sample(attrs, k):
                if name == "bool01" and rng.random() < 0.4:
                    items.append((a, PRODUCT))
                else:
                    items.append((a, rng.choice(ops)))
            alpha = AggregationOrdering(tuple(items))
            inst = RandomInstanceSpec(
                semiring_name=name, domain_size=rng.choice([2, 3]),
                density=rng.choice([0.6, 0.9]), seed=7000 + trial,
            ).instance(h)
            doms = DomainRegistry.from_declarations({}, inst)
            want = naive_eval(h, alpha, inst, doms, sr)
            got = run(plan(h, alpha), inst, doms, sr)
            assert got == want, (name, alpha.items, [(e.name, sorted(e.attrs)) for e in h.edges])


    def test_missing_relation_names_its_atom(self, fig1, int_sr, chain_h):
        p = plan(chain_h, ordering(("C", "sum"), ("B", "sum")))
        with pytest.raises(QueryError, match="'S'"):
            run(p, {"R": fig1["R"]}, None, int_sr)

    def test_missing_prepass_relation_names_its_atom(self, chain_h):
        # both atoms collapse in the pre-pass, so no live atom reads S
        sr = get_semiring("bool01")
        p = plan(chain_h, ordering(("B", PRODUCT)))
        assert [e for e, _ in p.prepass] == ["R", "S"]
        r = AnnotatedRelation(("A", "B"), {(0, 0): 1, (0, 1): 1})
        doms = DomainRegistry.from_declarations({"B": [0, 1]}, {"R": r})
        with pytest.raises(QueryError, match="'S'"):
            run(p, {"R": r}, doms, sr)


class TestProductPlanPins:
    """The exact plans of product queries, and their answers checked against
    the naive evaluation."""

    CASES = {
        "one-copy": (
            [("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A",))],
            [("A", PRODUCT), ("B", "max")],
            {
                "width": 1,
                "mode": "unit",
                "nodes": [
                    {"id": 1, "parent": None, "bag": ["A#1"], "width": 1},
                    {"id": 2, "parent": 1, "bag": ["A#1", "B"], "width": 1},
                ],
                "ordering": [["A", "prod"], ["B", "max"]],
                "part_widths": [0, 1, 1],
                "prepass": [["T", "A"]],
                "product_partition": {"A": [["R", "S"]]},
            },
        ),
        # demos/05's p2
        "chain": (
            [("R", ("A", "B")), ("S", ("B", "C"))],
            [("B", PRODUCT), ("A", "max"), ("C", "max")],
            {
                "width": 1,
                "mode": "unit",
                "nodes": [
                    {"id": 0, "parent": None, "bag": [], "width": 0},
                    {"id": 1, "parent": 0, "bag": ["B#1"], "width": 1},
                    {"id": 2, "parent": 1, "bag": ["A", "B#1"], "width": 1},
                    {"id": 3, "parent": 0, "bag": ["B#2"], "width": 1},
                    {"id": 4, "parent": 3, "bag": ["B#2", "C"], "width": 1},
                ],
                "ordering": [["B", "prod"], ["A", "max"], ["C", "max"]],
                "part_widths": [0, 1, 1, 1, 1],
                "prepass": [],
                "product_partition": {"B": [["R"], ["S"]]},
            },
        ),
        # demos/05's p: both atoms end with the product, so only the pre-pass runs it
        "trailing": (
            [("R", ("A", "B")), ("S", ("B", "C"))],
            [("B", PRODUCT)],
            {
                "width": 1,
                "mode": "unit",
                "nodes": [
                    {"id": 0, "parent": None, "bag": ["A"], "width": 1},
                    {"id": 1, "parent": 0, "bag": ["C"], "width": 1},
                ],
                "ordering": [],
                "part_widths": [1],
                "prepass": [["R", "B"], ["S", "B"]],
            },
        ),
        # X3 falls in two regions, one below each of the root's children
        "two-copies": (
            [("E0", ("X1",)), ("E1", ("X0", "X3", "X4")), ("E2", ("X2", "X3", "X5"))],
            [("X5", PRODUCT), ("X3", PRODUCT), ("X4", "max"), ("X0", "max"),
             ("X1", PRODUCT), ("X2", "max")],
            {
                "width": 1,
                "mode": "unit",
                "nodes": [
                    {"id": 0, "parent": None, "bag": [], "width": 0},
                    {"id": 1, "parent": 0, "bag": ["X3#1"], "width": 1},
                    {"id": 2, "parent": 1, "bag": ["X0", "X3#1", "X4"], "width": 1},
                    {"id": 3, "parent": 0, "bag": ["X5#1"], "width": 1},
                    {"id": 4, "parent": 3, "bag": ["X3#2", "X5#1"], "width": 1},
                    {"id": 5, "parent": 4, "bag": ["X2", "X3#2", "X5#1"], "width": 1},
                ],
                "ordering": [["X5", "prod"], ["X3", "prod"], ["X4", "max"],
                             ["X0", "max"], ["X2", "max"]],
                "part_widths": [0, 1, 1, 1, 1, 1],
                "prepass": [["E0", "X1"]],
                "product_partition": {"X3": [["E1"], ["E2"]], "X5": [["E2"]]},
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_plan_and_answers(self, name):
        edges, items, want = self.CASES[name]
        h = Hypergraph.build(edges)
        alpha = AggregationOrdering(tuple(items))
        p = plan(h, alpha)
        assert p.to_dict() == want
        sr = get_semiring("bool01")
        for seed in range(20):
            inst = RandomInstanceSpec(
                semiring_name="bool01", domain_size=2, density=0.8, seed=seed
            ).instance(h)
            doms = DomainRegistry.from_declarations({}, inst)
            assert run(p, inst, doms, sr) == naive_eval(h, alpha, inst, doms, sr), seed


class TestTransitiveClosure:
    def _with_self_loops(self, edges, nodes):
        rows = {(v, v): 0 for v in nodes}
        rows.update(edges)
        return AnnotatedRelation(("S", "D"), rows, zero=INF)

    def test_two_edge_path(self):
        mp = get_semiring("minplus")
        rel = self._with_self_loops({(1, 2): 1, (2, 3): 2}, [1, 2, 3])
        closed = transitive_closure(rel, mp)
        assert closed.tuples[(1, 3)] == 3

    def test_already_closed_confirms_in_one_round(self):
        mp = get_semiring("minplus")
        rel = self._with_self_loops({(1, 2): 1}, [1, 2])
        assert transitive_closure(rel, mp, max_iters=1) == rel

    def test_matches_floyd_warshall_on_randoms(self):
        mp = get_semiring("minplus")
        rng = random.Random(71)
        for trial in range(15):
            n = rng.randint(2, 8)
            nodes = list(range(n))
            edges = {}
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.choice(nodes), rng.choice(nodes)
                if u != v:
                    edges[(u, v)] = rng.randint(0, 9)
            rel = self._with_self_loops(edges, nodes)
            closed = transitive_closure(rel, mp)
            assert dict(closed.tuples) == floyd_warshall(rel)

    def test_round_budget(self):
        # the doubling fixpoint settles within ceil(log2 V) + 1 evaluations
        mp = get_semiring("minplus")
        n = 8
        rel = self._with_self_loops({(i, i + 1): 1 for i in range(n - 1)}, range(n))
        budget = math.ceil(math.log2(n)) + 1
        closed = transitive_closure(rel, mp, max_iters=budget)
        assert closed.tuples[(0, n - 1)] == n - 1

    def test_no_fixpoint_errors(self):
        sr = get_semiring("int")
        rel = AnnotatedRelation(("S", "D"), {(1, 1): 2})
        with pytest.raises(QueryError):
            transitive_closure(rel, sr, max_iters=3)

    def test_closure_idempotent(self):
        mp = get_semiring("minplus")
        rng = random.Random(77)
        for _ in range(5):
            n = rng.randint(2, 6)
            rows = {(v, v): 0 for v in range(n)}
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    rows.setdefault((u, v), rng.randint(1, 9))
            rel = AnnotatedRelation(("S", "D"), rows, zero=INF)
            once = transitive_closure(rel, mp)
            assert transitive_closure(once, mp) == once

    def test_non_binary_rejected(self):
        mp = get_semiring("minplus")
        with pytest.raises(QueryError):
            transitive_closure(AnnotatedRelation(("A",), {(1,): 1}), mp)

    def test_matches_floyd_warshall_with_unreachable_pairs(self):
        mp = get_semiring("minplus")
        rng = random.Random(73)
        unreachable = 0
        for trial in range(40):
            n = rng.randint(2, 12)
            nodes = list(range(n))
            edges = {}
            for _ in range(rng.randint(0, n + 2)):
                u, v = rng.sample(nodes, 2)
                edges[(u, v)] = rng.randint(0, 20)
            rel = self._with_self_loops(edges, nodes)
            closed = transitive_closure(rel, mp)
            assert dict(closed.tuples) == floyd_warshall(rel), trial
            unreachable += n * n - len(closed)
        assert unreachable > 0

    def test_plans_once_and_runs_once_per_round(self, monkeypatch):
        from ajar import planner

        calls = []
        for name in ("plan", "run"):
            original = getattr(planner, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(planner, name, spy)
        n = 8
        mp = get_semiring("minplus")
        rel = self._with_self_loops({(i, i + 1): 1 for i in range(n - 1)}, range(n))
        transitive_closure(rel, mp)
        # walks of up to 7 steps: 1, 2, 4, 8 steps covered, then confirmed
        assert calls == ["plan"] + ["run"] * 4

    def test_negative_cycle_names_its_node(self):
        mp = get_semiring("minplus")
        rel = self._with_self_loops({(0, 1): 5, (1, 2): 2, (2, 1): -3, (2, 3): 1}, range(4))
        with pytest.raises(QueryError, match="node 1 lies on an improving cycle"):
            transitive_closure(rel, mp)
