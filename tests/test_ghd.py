import itertools
import math
import random
from fractions import Fraction

import pytest

from ajar import (
    AggregationOrdering,
    Ghd,
    Hypergraph,
    InternalError,
    PRODUCT,
    QueryError,
    characteristic_hypergraphs,
    compute_prec,
    connected_components,
    is_compatible,
    is_ghd,
    is_valid,
    linear_extensions,
    optimal_ghd,
    split_products,
    stitch,
    top_map,
    width,
)
from ajar import ghd as ghd_module
from ajar.ghd import (
    GHD_VERTEX_CAP,
    _front_set,
    characteristic_tree,
    cost_edges_for,
    stitch_tree,
)
from ajar.lp import fractional_cover_value
from ajar.oracle import exhaustive_valid_ghds
from ajar.ordering import test_equivalence as is_equivalent
from conftest import chain, ordering, random_query
from normalization import is_subtree_connected, is_top_unique, normalize_decomposable
from reference_ghd import unpruned_optimal_ghd


@pytest.fixture
def cycle6():
    return Hypergraph.build(
        [(f"E{i}", (f"A{i}", f"A{i % 6 + 1}")) for i in range(1, 7)]
    )


@pytest.fixture
def triangle():
    return Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))])


class TestIsGhd:
    def test_single_full_bag(self, chain_h):
        assert is_ghd(chain_h, Ghd.single(("A", "B", "C")))

    def test_two_bag_chain(self, chain_h):
        assert is_ghd(chain_h, chain([("A", "B"), ("B", "C")]))

    def test_uncovered_edge(self, chain_h):
        assert not is_ghd(chain_h, chain([("A", "B"), ("C",)]))

    def test_running_intersection_violation(self, chain_h):
        g = chain([("A", "B"), ("A",), ("A", "B", "C")])
        g.chi[1] = frozenset("A")  # B skips a level: A,B / A / A,B,C breaks B
        g2 = chain([("B",), ("A",), ("B", "C")])
        assert not is_ghd(chain_h, g2)


class TestTopMap:
    def test_single_bag_all_root(self, chain_h):
        tops = top_map(Ghd.single(("A", "B", "C")))
        assert set(tops.values()) == {0}

    def test_chain_tops(self):
        g = chain([("A", "B"), ("B", "C")])
        tops = top_map(g)
        assert tops == {"A": 0, "B": 0, "C": 1}

    def test_attr_in_every_bag_tops_at_root(self, cycle6):
        bags = [("A1", "A2", "A3"), ("A1", "A3", "A4"), ("A1", "A4", "A5"), ("A1", "A5", "A6")]
        g = chain(bags)
        assert top_map(g)["A1"] == 0


class TestIsCompatible:
    def test_output_root_then_aggregations(self, chain_h):
        g = chain([("A", "B"), ("B", "C")])
        beta = ordering(("B", "sum"), ("C", "sum"))
        assert is_compatible(g, beta)

    def test_rerooted_chain_breaks_compatibility(self, chain_h):
        g = chain([("B", "C"), ("A", "B")])  # rooted at {B,C}
        beta = ordering(("B", "sum"), ("C", "sum"))
        assert not is_compatible(g, beta)

    def test_single_bag_vacuous(self, chain_h):
        assert is_compatible(Ghd.single(("A", "B", "C")), ordering())

    def test_ordering_must_match_top_order(self, chain_h):
        g = chain([("A", "B"), ("B", "C")])
        assert is_compatible(g, ordering(("B", "sum"), ("C", "max")))
        assert not is_compatible(g, ordering(("C", "max"), ("B", "sum")))


class TestIsValid:
    def test_worked_two_bag_plan(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        prec = compute_prec(chain_h, alpha)
        assert is_valid(prec, chain([("A", "B"), ("B", "C")]))

    def test_single_bag_always_valid(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))
        prec = compute_prec(h, alpha)
        assert is_valid(prec, Ghd.single(("A", "B", "C", "D")))

    def test_inverted_chain_violates_precedence(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))
        prec = compute_prec(h, alpha)
        g = chain([("C", "D"), ("B", "D"), ("A", "B")])
        assert not is_valid(prec, g)  # D's top sits above A's

    def test_valid_exactly_when_compatible_with_an_equivalent_ordering(self):
        # every distinct-bag GHD of each body, valid or not for its ordering
        rng = random.Random(7)
        outcomes = set()
        for _ in range(20):
            h, alpha = random_query(rng, max_attrs=4)
            prec = compute_prec(h, alpha)
            betas = list(linear_extensions(prec, alpha))
            for g in exhaustive_valid_ghds(h, ordering()):
                valid = is_valid(prec, g)
                assert valid == any(is_compatible(g, beta) for beta in betas), (h, alpha, g)
                outcomes.add(valid)
        assert outcomes == {True, False}


class TestWidth:
    def test_two_bag_chain_width_one(self, chain_h):
        report = width(chain([("A", "B"), ("B", "C")]), chain_h)
        assert report.width == 1

    def test_cycle_plan_width_two(self, cycle6):
        bags = [("A1", "A2", "A3"), ("A1", "A3", "A4"), ("A1", "A4", "A5"), ("A1", "A5", "A6")]
        report = width(chain(bags), cycle6)
        assert report.width == 2

    def test_triangle_single_bag(self, triangle):
        report = width(Ghd.single(("A", "B", "C")), triangle)
        assert report.width == Fraction(3, 2)

    def test_output_addition_contrast(self, chain_h):
        # folding the output attribute into one bag doubles the width
        report = width(Ghd.single(("A", "B", "C")), chain_h)
        assert report.width == 2

    def test_monotone_in_bag_growth(self, triangle):
        rng = random.Random(2)
        for _ in range(20):
            small = frozenset(rng.sample(["A", "B", "C"], rng.randint(1, 2)))
            grown = small | {rng.choice(["A", "B", "C"])}
            w_small = width(Ghd.single(small), triangle).width
            w_grown = width(Ghd.single(grown), triangle).width
            assert w_small <= w_grown

    def test_data_mode_uses_sizes(self, chain_h):
        unit = width(Ghd.single(("A", "B", "C")), chain_h).width
        data = width(
            Ghd.single(("A", "B", "C")), chain_h, sizes={"R": 100, "S": 10}
        ).width
        assert unit == 2
        assert 0 < data < 2

    def test_sizes_alone_price_by_the_sizes(self, chain_h):
        # log_110 100 + log_110 10 = 3 log 10 / log 110
        report = width(Ghd.single(("A", "B", "C")), chain_h, {"R": 100, "S": 10})
        assert report.mode == "data"
        assert report.width == pytest.approx(3 * math.log(10) / math.log(110))

    def test_data_width_does_not_depend_on_the_atom_order(self):
        # a float simplex rounded this bag differently in the two orders
        atoms = [
            ("E0", ("A2", "A3", "A4")),
            ("E1", ("A1", "A2", "A5")),
            ("E2", ("A1", "A3", "A4")),
            ("E3", ("A1", "A2", "A4")),
            ("E4", ("A0", "A4")),
            ("E5", ("A1", "A4", "A5")),
            ("E6", ("A3",)),
        ]
        sizes = dict(zip((name for name, _ in atoms), (100, 100, 1000, 1000, 10**6, 100, 10**4)))
        forward, backward = (Hypergraph.build(order) for order in (atoms, atoms[::-1]))
        whole = Ghd.single(forward.vertices)
        assert width(whole, forward, sizes).width == width(whole, backward, sizes).width

    def test_data_covers_do_not_depend_on_the_edge_order(self):
        for seed in range(3000):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            attrs = [f"A{i}" for i in range(n)]
            h = Hypergraph.build(
                [
                    (f"E{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n)))))
                    for j in range(rng.randint(1, 7))
                ]
            )
            sizes = {e.name: rng.choice((10**2, 10**3, 10**4, 10**6)) for e in h.edges}
            cost = cost_edges_for(h, sizes)
            forward = fractional_cover_value(h.vertices, cost)
            assert forward == fractional_cover_value(h.vertices, cost[::-1]), seed

    @pytest.mark.parametrize("bag", [("A", "Z"), ("A", "B", "Z"), ("Z",)])
    @pytest.mark.parametrize("mode", ["unit", "data"])
    def test_bag_attribute_in_no_edge_raises(self, chain_h, bag, mode):
        # the matching covers A and B but cannot price Z away
        sizes = {"R": 10, "S": 10} if mode == "data" else None
        with pytest.raises(InternalError):
            width(Ghd.single(bag), chain_h, sizes=sizes)

    def test_unit_mode_prices_by_matching_and_agrees_with_the_lp(self, monkeypatch):
        # every bag's unit width equals its exact LP value; with edges of at
        # most two attributes no bag reaches the LP
        solves = []
        real = ghd_module.fractional_cover_value

        def spy(bag, cost_edges):
            solves.append(bag)
            return real(bag, cost_edges)

        monkeypatch.setattr(ghd_module, "fractional_cover_value", spy)
        rng = random.Random(21)
        checked = lp_trials = 0
        for trial in range(300):
            n = rng.randint(1, 7)
            attrs = [f"X{i}" for i in range(n)]
            arity = 2 if trial % 2 else 3
            edges = [
                (f"E{j}", tuple(rng.sample(attrs, rng.randint(1, min(arity, n)))))
                for j in range(rng.randint(1, 7))
            ]
            h = Hypergraph.build(edges)
            verts = sorted(h.vertices)
            bags = [frozenset(rng.sample(verts, rng.randint(0, len(verts)))) for _ in range(3)]
            solves.clear()
            report = width(chain(bags), h)
            cost = cost_edges_for(h, None)
            for t, bag in enumerate(bags):
                assert report.per_bag[t] == real(bag, cost), (edges, bag)
                checked += 1
            if arity == 2:
                assert solves == []
            lp_trials += bool(solves)
        assert checked == 900
        assert lp_trials >= 20  # ternary meets still reach the LP


class TestCharacteristicHypergraphs:
    def test_star_yields_n_plus_one(self):
        star = Hypergraph.build([(f"E{i}", ("A", f"B{i}")) for i in range(1, 5)])
        alpha = ordering(*[(f"B{i}", "sum") for i in range(1, 5)])
        parts = characteristic_hypergraphs(star, alpha)
        assert len(parts) == 5
        assert all(len(p.vertices) <= 2 for p in parts)

    def test_worked_two_bag_parts(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        parts = characteristic_hypergraphs(chain_h, alpha)
        assert [sorted(p.vertices) for p in parts] == [["A"], ["A", "B", "C"]]

    def test_front_set_is_the_prec_minimal_set(self):
        # the commute check lets exactly the attributes with no PREC
        # predecessor in their component reach its front
        rng = random.Random(8)
        for _ in range(1000):
            h, alpha = random_query(rng)
            prec = compute_prec(h, alpha)
            for comp in connected_components(h, h.vertices - alpha.attrs()):
                preds = prec.predecessors_in(comp)
                expected = {v for v in comp if not preds[v]}
                assert _front_set(h, alpha.restrict(comp)) == expected, (h, alpha, comp)

    def test_empty_ordering_returns_whole_hypergraph(self, chain_h):
        parts = characteristic_hypergraphs(chain_h, ordering())
        assert len(parts) == 1
        assert parts[0].vertices == chain_h.vertices
        assert {e.name for e in parts[0].edges} == {"R", "S"}


class TestStitch:
    def test_worked_two_bag_stitch(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        parts = characteristic_hypergraphs(chain_h, alpha)
        ghds = [optimal_ghd(p, cost_edges=[(e.attrs, 1) for e in chain_h.edges]) for p in parts]
        stitched = stitch(chain_h, alpha, ghds)
        assert is_ghd(chain_h, stitched)
        assert width(stitched, chain_h).width == 1
        bags = sorted(sorted(b) for b in stitched.chi.values())
        assert bags == [["A"], ["A", "B"], ["B", "C"]]

    def test_empty_ordering_single_part_identity(self, chain_h):
        parts = characteristic_hypergraphs(chain_h, ordering())
        g = optimal_ghd(parts[0])
        stitched = stitch(chain_h, ordering(), [g])
        assert stitched.canonical_code() == g.canonical_code()

    def test_star_stitch_is_valid_width_one(self):
        star = Hypergraph.build([(f"E{i}", ("A", f"B{i}")) for i in range(1, 5)])
        alpha = ordering(*[(f"B{i}", "sum") for i in range(1, 5)])
        parts = characteristic_hypergraphs(star, alpha)
        cost = [(e.attrs, 1) for e in star.edges]
        ghds = [optimal_ghd(p, cost_edges=cost) for p in parts]
        stitched = stitch(star, alpha, ghds)
        assert is_ghd(star, stitched)
        assert is_valid(compute_prec(star, alpha), stitched)
        assert width(stitched, star).width == 1

    def test_width_identity_exact(self, chain_h, cycle6, triangle):
        # the stitched width equals the max over part widths, bit-exactly
        cases = [
            (chain_h, ordering(("B", "sum"), ("C", "sum"))),
            (chain_h, ordering(("A", "sum"), ("B", "max"), ("C", "max"))),
            (cycle6, ordering(("A2", "sum"), ("A4", "sum"))),
            (triangle, ordering(("A", "sum"), ("B", "sum"), ("C", "sum"))),
        ]
        for h, alpha in cases:
            tree = characteristic_tree(h, alpha)
            parts = tree.flatten()
            cost = [(e.attrs, 1) for e in h.edges]
            ghds = [optimal_ghd(p.hypergraph, cost_edges=cost) for p in parts]
            stitched = stitch_tree(tree, ghds)
            total = width(stitched, h).width
            per_part = [
                max(width(Ghd.single(bag), h).width for bag in g.chi.values())
                for g in ghds
            ]
            assert total == max(per_part)

    def test_wrong_part_count_rejected(self, chain_h):
        with pytest.raises(QueryError):
            stitch(chain_h, ordering(("B", "sum"), ("C", "sum")), [Ghd.single(("A",))])


class TestOptimalGhd:
    def test_triangle_single_bag(self, triangle):
        g = optimal_ghd(triangle)
        assert sorted(sorted(b) for b in g.chi.values()) == [["A", "B", "C"]]
        assert width(g, triangle).width == Fraction(3, 2)

    def test_chain_width_one(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))])
        g = optimal_ghd(h)
        assert is_ghd(h, g)
        assert width(g, h).width == 1

    def test_single_edge(self):
        h = Hypergraph.build([("R", ("A", "B"))])
        g = optimal_ghd(h)
        assert list(g.chi.values()) == [frozenset({"A", "B"})]

    def test_cap_enforced(self):
        h = Hypergraph.build([("R", tuple(f"X{i}" for i in range(GHD_VERTEX_CAP + 1)))])
        with pytest.raises(QueryError):
            optimal_ghd(h)

    def test_matches_exhaustive_on_small_queries(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 4)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            for j in range(rng.randint(0, 2)):
                edges.append((f"G{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n))))))
            h = Hypergraph.build(edges)
            g = optimal_ghd(h)
            best = min(
                width(cand, h).width
                for cand in exhaustive_valid_ghds(h, ordering())
            )
            assert width(g, h).width == best

    @pytest.mark.parametrize("mode", ["unit", "data"])
    def test_width_is_min_over_elimination_orders(self, mode):
        rng = random.Random(23 if mode == "unit" else 29)
        for _ in range(25):
            n = rng.randint(1, 6)
            attrs = [f"X{i}" for i in range(n)]
            edges = [
                (f"E{i}", rng.sample(attrs, rng.randint(1, min(3, n))))
                for i in range(rng.randint(1, 7))
            ]
            edges += [(f"U{a}", (a,)) for a in attrs if all(a not in e for _, e in edges)]
            h = Hypergraph.build(edges)
            sizes = {name: rng.randint(1, 500) for name, _ in edges}
            sizes = sizes if mode == "data" else None
            cost = cost_edges_for(h, sizes)
            costs = {}

            def bag_cost(bag):
                if bag not in costs:
                    costs[bag] = fractional_cover_value(bag, cost)
                return costs[bag]

            best = None
            for order in itertools.permutations(attrs):
                # eliminate along the order in the primal graph, with fill-in
                neighbours = {a: set() for a in attrs}
                for _, e in edges:
                    for a in e:
                        neighbours[a] |= set(e) - {a}
                worst = None
                for v in order:
                    bag = frozenset(neighbours[v] | {v})
                    worst = bag_cost(bag) if worst is None else max(worst, bag_cost(bag))
                    for u in neighbours[v]:
                        neighbours[u] |= neighbours[v] - {u}
                        neighbours[u].discard(v)
                    del neighbours[v]
                best = worst if best is None else min(best, worst)
            g = optimal_ghd(h, cost_edges=cost)
            assert is_ghd(h, g)
            assert width(g, h, sizes).width == best


class TestOptimalGhdPlanIdentity:
    @pytest.mark.parametrize("mode", ["unit", "data"])
    def test_same_ghd_as_the_unpruned_search(self, mode):
        # bags, tree shape and root, not only the width, as the planner
        # executes this very tree; half the cases price bags against edges
        # reaching past the hypergraph, as a part's cost edges do, and
        # repeated sizes (1 costs nothing) make data-mode costs tie
        rng = random.Random(f"plan-identity:{mode}")
        for case in range(120):
            n = 1 + case % 9
            attrs = [f"X{i}" for i in range(n)]
            edges = [
                (f"E{j}", tuple(rng.sample(attrs, rng.randint(1, min(4, n)))))
                for j in range(rng.randint(1, 2 * n))
            ]
            edges += [(f"U{a}", (a,)) for a in attrs if all(a not in e for _, e in edges)]
            h = Hypergraph.build(edges)
            wider = edges
            if case % 2:
                wider = [
                    (name, e + tuple(f"Y{k}" for k in range(rng.randint(0, 2))))
                    for name, e in edges
                ]
            sizes = {name: rng.choice((1, 2, 10, rng.randint(1, 300))) for name, _ in edges}
            cost = cost_edges_for(Hypergraph.build(wider), sizes if mode == "data" else None)
            got = optimal_ghd(h, cost_edges=cost)
            want = unpruned_optimal_ghd(h, cost_edges=cost)
            assert (got.root, got.parent, got.chi) == (want.root, want.parent, want.chi), (
                mode,
                case,
                edges,
            )

    def test_the_unit_sweep_mixes_matching_and_bracket_prices(self, monkeypatch):
        # unit mode doubles every cost: matching prices are ints, bracket
        # bounds Fractions, so the sweep compares the two only in the DPs
        # that meet bags of both kinds
        from ajar import ghd

        priced = []  # per optimal_ghd call: [bags priced by the matching, by the bracket]
        make = ghd.graph_cover_pricer

        def counting_pricer(edges):
            counts = [0, 0]
            priced.append(counts)
            price = make(edges)

            def spy(bag):
                value = price(bag)
                counts[value is None] += 1
                return value

            return spy

        monkeypatch.setattr(ghd, "graph_cover_pricer", counting_pricer)
        self.test_same_ghd_as_the_unpruned_search("unit")
        assert len(priced) == 120
        assert sum(1 for matched, bracketed in priced if matched and bracketed) >= 60


class TestNormalizeDecomposable:
    def test_already_decomposable_unchanged(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        prec = compute_prec(chain_h, alpha)
        g = chain([("A",), ("A", "B"), ("B", "C")])
        out = normalize_decomposable(chain_h, alpha, prec, g)
        assert out.canonical_code() == g.canonical_code()

    def test_worked_two_bag_split(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        prec = compute_prec(chain_h, alpha)
        g = chain([("A", "B"), ("B", "C")])
        out = normalize_decomposable(chain_h, alpha, prec, g)
        assert out.canonical_code() == chain([("A",), ("A", "B"), ("B", "C")]).canonical_code()

    def test_invalid_input_rejected(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        prec = compute_prec(chain_h, alpha)
        with pytest.raises(QueryError):
            normalize_decomposable(chain_h, alpha, prec, chain([("B", "C"), ("A", "B")]))

    def test_random_valid_ghds_normalize(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            n = rng.randint(2, 4)
            attrs = [f"X{i}" for i in range(n)]
            shuffled = rng.sample(attrs, n)
            edges = [(f"E{i}", (shuffled[i], shuffled[i + 1])) for i in range(n - 1)]
            h = Hypergraph.build(edges)
            k = rng.randint(1, n)
            alpha = AggregationOrdering(
                tuple((a, rng.choice(["sum", "max"])) for a in rng.sample(attrs, k))
            )
            prec = compute_prec(h, alpha)
            candidates = [g for g in exhaustive_valid_ghds(h, alpha)]
            if not candidates:
                continue
            g = candidates[rng.randrange(len(candidates))]
            out = normalize_decomposable(h, alpha, prec, g)
            done += 1
            assert is_ghd(h, out)
            assert is_valid(prec, out)
            assert is_top_unique(out)
            assert is_subtree_connected(h, out)
            old_bags = list(g.chi.values())
            for bag in out.chi.values():
                assert any(bag <= old for old in old_bags)


def _star(bags):
    """An empty root with one child per bag."""
    parent = {0: None, **{i: 0 for i in range(1, len(bags) + 1)}}
    chi = {0: frozenset(), **{i: frozenset(b) for i, b in enumerate(bags, 1)}}
    return Ghd(root=0, parent=parent, chi=chi)


class TestProductPartition:
    """split_products: the copies, one per tree region, that a tree gives
    each product attribute, and the body's edges renamed to them."""

    def test_no_products_identity(self, chain_h):
        g = Ghd.single(("A", "B", "C"))
        tree, body, copies = split_products(chain_h, ordering(("B", "sum")), g)
        assert tree is g and body is chain_h and copies == {}

    def test_single_block_keeps_attribute(self, chain_h):
        alpha = ordering(("B", PRODUCT), ("A", "max"))
        tree, body, copies = split_products(chain_h, alpha, Ghd.single(("A", "B", "C")))
        assert copies == {"B#1": "B"}
        assert tree.chi == {0: frozenset({"A", "B#1", "C"})}
        assert sorted(sorted(e.attrs) for e in body.edges) == [["A", "B#1"], ["B#1", "C"]]

    def test_split_shared_attribute(self, chain_h):
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        tree, body, copies = split_products(chain_h, alpha, _star([("A", "B"), ("B", "C")]))
        assert copies == {"B#1": "B", "B#2": "B"}
        assert tree.chi == {0: frozenset(), 1: frozenset({"A", "B#1"}), 2: frozenset({"B#2", "C"})}
        assert {e.name: sorted(e.attrs) for e in body.edges} == {
            "R": ["A", "B#1"],
            "S": ["B#2", "C"],
        }
        assert is_ghd(body, tree)

    def test_copies_listed_in_region_order(self):
        # eleven regions: B#10 and B#11 follow B#9, not B#1
        h = Hypergraph.build([(f"E{i}", ("B", f"X{i}")) for i in range(1, 12)])
        alpha = ordering(("B", PRODUCT), *[(f"X{i}", "max") for i in range(1, 12)])
        tree, body, copies = split_products(h, alpha, _star([("B", f"X{i}") for i in range(1, 12)]))
        assert list(copies) == [f"B#{k}" for k in range(1, 12)]
        assert {e.name: e.attrs for e in body.edges}["E10"] == {"B#10", "X10"}

    def test_edgeless_region_rejected(self, chain_h):
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        with pytest.raises(InternalError, match="'B'"):
            split_products(chain_h, alpha, _star([("A", "B"), ("B", "C"), ("B",)]))

    def test_split_stitched_tree_is_a_ghd_of_the_body(self, chain_h):
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        tree = characteristic_tree(chain_h, alpha)
        parts = tree.flatten()
        cost = [(e.attrs, 1) for e in chain_h.edges]
        ghds = [optimal_ghd(p.hypergraph, cost_edges=cost) for p in parts]
        split, body, copies = split_products(chain_h, alpha, stitch_tree(tree, ghds))
        assert copies == {"B#1": "B", "B#2": "B"}
        assert is_ghd(body, split)
