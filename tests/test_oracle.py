import operator
import random
from fractions import Fraction

import pytest

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    DomainRegistry,
    Hypergraph,
    PRODUCT,
    QueryError,
    get_semiring,
    naive_eval,
    plan,
    register_semiring,
    semantic_equiv,
    width,
)
from ajar.oracle import (
    RandomInstanceSpec,
    completeness_counterexample,
    exhaustive_valid_ghds,
    floyd_warshall,
    min_valid_width,
)
from ajar.semirings import _REGISTRY
from conftest import chain, ordering, random_query


class TestNaiveEval:
    def test_worked_total(self, fig1, int_sr, chain_h):
        out = naive_eval(chain_h, ordering(("C", "sum"), ("B", "sum")), fig1, None, int_sr)
        assert out == AnnotatedRelation(("A",), {(1,): 26})

    def test_empty_ordering_full_join(self, fig2, chain_h):
        sr = get_semiring("qplus")
        out = naive_eval(chain_h, ordering(), fig2, None, sr)
        assert len(out) == 4

    def test_quantified_product_example(self, chain_h):
        sr = get_semiring("bool01")
        r = AnnotatedRelation(("A", "B"), {(0, 0): 1, (0, 1): 1})
        s = AnnotatedRelation(("B", "C"), {(0, 1): 1, (1, 1): 1})
        doms = DomainRegistry.from_declarations({"B": [0, 1]}, {"R": r, "S": s})
        out = naive_eval(chain_h, ordering(("B", PRODUCT)), {"R": r, "S": s}, doms, sr)
        assert out == AnnotatedRelation(("A", "C"), {(0, 1): 1})

    def test_order_faithful(self, chain_h):
        # permuting blocked operators changes the result on the two-tuple family
        sr = get_semiring("qplus")
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"))
        beta = ordering(("B", "max"), ("A", "sum"), ("C", "max"))
        instance, domains = completeness_counterexample(chain_h, alpha, beta, sr)
        lhs = naive_eval(chain_h, alpha, instance, domains, sr)
        rhs = naive_eval(chain_h, beta, instance, domains, sr)
        assert lhs != rhs


class TestSemanticEquiv:
    def test_identical_orderings(self, chain_h, int_sr):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        assert semantic_equiv(chain_h, alpha, alpha, 10, 0, int_sr).equivalent_likely

    def test_same_operator_swap(self, chain_h, int_sr):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        beta = ordering(("C", "sum"), ("B", "sum"))
        assert semantic_equiv(chain_h, alpha, beta, 20, 0, int_sr).equivalent_likely

    def test_counterexample_found_for_blocked_swap(self, chain_h):
        sr = get_semiring("qplus")
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"))
        beta = ordering(("B", "max"), ("A", "sum"), ("C", "max"))
        instance, domains = completeness_counterexample(chain_h, alpha, beta, sr)
        # seed the sampler path: evaluating both on the constructed instance disagrees
        assert naive_eval(chain_h, alpha, instance, domains, sr) != naive_eval(
            chain_h, beta, instance, domains, sr
        )

    def test_mismatched_inputs_rejected(self, chain_h, int_sr):
        with pytest.raises(QueryError):
            semantic_equiv(chain_h, ordering(("B", "sum")), ordering(("C", "sum")), 5, 0, int_sr)


class TestRandomInstances:
    def test_deterministic_from_seed(self, chain_h):
        a = RandomInstanceSpec(seed=9).instance(chain_h)
        b = RandomInstanceSpec(seed=9).instance(chain_h)
        assert a == b

    def test_annotations_canonicalized(self, chain_h):
        inst = RandomInstanceSpec(seed=1, density=1.0).instance(chain_h)
        for rel in inst.values():
            assert all(lam != 0 for lam in rel.tuples.values())

    def test_renamed_boolean_semiring_draws_booleans(self, chain_h):
        flags = _renamed("bool01", "flags")
        inst = RandomInstanceSpec(semiring_name="flags", seed=1).instance(chain_h)
        values = {lam for rel in inst.values() for lam in rel.tuples.values()}
        assert values and values <= {0, 1}
        assert all(flags.parse_annotation(flags.format_annotation(v)) == v for v in values)
        assert inst == RandomInstanceSpec(semiring_name="bool01", seed=1).instance(chain_h)

    def test_renamed_rational_semiring_draws_fractions(self, chain_h):
        _renamed("qplus", "qsum", additive_ops={"sum": operator.add})
        inst = RandomInstanceSpec(semiring_name="qsum", seed=4).instance(chain_h)
        values = [lam for rel in inst.values() for lam in rel.tuples.values()]
        assert values and all(type(v) is Fraction for v in values)
        assert inst == RandomInstanceSpec(semiring_name="qplus", seed=4).instance(chain_h)

    def test_integer_semirings_share_instances(self, chain_h):
        _renamed("int", "int-fn", additive_ops={"sum": lambda a, b: a + b})
        for seed in range(5):
            assert (RandomInstanceSpec(semiring_name="int-fn", seed=seed).instance(chain_h)
                    == RandomInstanceSpec(semiring_name="int", seed=seed).instance(chain_h))


def _renamed(base, name, **changes):
    """A built-in semiring registered under another name, once per session."""
    if name not in _REGISTRY:
        register_semiring(get_semiring(base)._replace(name=name, **changes))
    return get_semiring(name)


class TestExhaustiveValidGhds:
    def test_single_edge_includes_single_bag(self):
        h = Hypergraph.build([("R", ("A", "B"))])
        stream = list(exhaustive_valid_ghds(h, ordering()))
        assert any(list(g.chi.values()) == [frozenset({"A", "B"})] for g in stream)

    def test_worked_plan_included_and_min_width_one(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        target = chain([("A", "B"), ("B", "C")]).canonical_code()
        codes = {g.canonical_code() for g in exhaustive_valid_ghds(chain_h, alpha)}
        assert target in codes
        assert min_valid_width(chain_h, alpha) == 1

    def test_min_width_matches_planner_on_blocked_example(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))
        assert min_valid_width(h, alpha) == plan(h, alpha).width

    def test_cap_rejected(self):
        h = Hypergraph.build([("R", tuple(f"X{i}" for i in range(6)))])
        with pytest.raises(QueryError):
            list(exhaustive_valid_ghds(h, ordering()))

    def test_all_yields_distinct(self, chain_h):
        alpha = ordering(("B", "sum"), ("C", "sum"))
        stream = list(exhaustive_valid_ghds(chain_h, alpha))
        codes = {g.canonical_code() for g in stream}
        assert len(codes) == len(stream)

    def test_bag_filter_skips_bags(self, chain_h):
        small = list(exhaustive_valid_ghds(chain_h, ordering(), bag_filter=lambda b: len(b) < 3))
        assert small
        assert all(len(bag) < 3 for g in small for bag in g.chi.values())
        everything = list(exhaustive_valid_ghds(chain_h, ordering()))
        assert len(small) == sum(all(len(b) < 3 for b in g.chi.values()) for g in everything)

    @pytest.mark.parametrize("mode", ["unit", "data"])
    def test_plan_width_is_the_exhaustive_minimum(self, mode):
        # the planner's width is the minimum over every valid GHD, and the
        # maximum over its parts, also after stitched bags are contracted
        rng = random.Random(89 if mode == "unit" else 97)
        for trial in range(60):
            h, alpha = random_query(rng)
            sizes = {e.name: rng.randint(1, 1000) for e in h.edges} if mode == "data" else None
            p = plan(h, alpha, sizes=sizes)
            where = (trial, alpha.items, h.edges, sizes)
            assert p.width == min_valid_width(h, alpha, sizes), where
            assert p.width == max(p.part_widths), where


class TestFloydWarshall:
    def test_two_edge_path(self):
        rel = AnnotatedRelation(("S", "D"), {(1, 2): 1, (2, 3): 2})
        dist = floyd_warshall(rel)
        assert dist[(1, 3)] == 3

    def test_chooses_shorter_route(self):
        rel = AnnotatedRelation(("S", "D"), {(1, 2): 1, (2, 3): 1, (1, 3): 5})
        assert floyd_warshall(rel)[(1, 3)] == 2
