import collections.abc
import random

import pytest

from ajar import (
    AnnotatedRelation,
    DomainRegistry,
    QueryError,
    aggregate,
    get_semiring,
    join,
    product_aggregate,
    semijoin,
)


def random_relation(rng, schema, domain=3, density=0.7, lo=-3, hi=4):
    rows = {}
    for row in _tuples(len(schema), domain):
        if rng.random() < density:
            rows[row] = rng.randint(lo, hi)
    return AnnotatedRelation(schema, rows, zero=0)


def _tuples(arity, domain):
    if arity == 0:
        yield ()
        return
    for rest in _tuples(arity - 1, domain):
        for v in range(domain):
            yield rest + (v,)


class TestCanonicalForm:
    def test_zero_annotations_dropped(self):
        rel = AnnotatedRelation(("A",), {(1,): 0, (2,): 5}, zero=0)
        assert rel.tuples == {(2,): 5}

    def test_duplicate_tuples_rejected(self):
        with pytest.raises(QueryError):
            AnnotatedRelation(("A",), [((1,), 2), ((1,), 3)])

    def test_empty_schema_single_tuple(self):
        rel = AnnotatedRelation((), {(): 7})
        assert len(rel) == 1
        with pytest.raises(QueryError):
            AnnotatedRelation((), {(1,): 7})

    def test_equality_ignores_column_order(self):
        left = AnnotatedRelation(("A", "B"), {(1, 2): 5})
        right = AnnotatedRelation(("B", "A"), {(2, 1): 5})
        assert left == right
        assert left != AnnotatedRelation(("A", "B"), {(2, 1): 5})


    def test_not_hashable(self):
        # mutable tuple map: no hash, and not registered as Hashable either
        rel = AnnotatedRelation(("A",), {(1,): 2})
        with pytest.raises(TypeError):
            hash(rel)
        assert not isinstance(rel, collections.abc.Hashable)

class TestJoin:
    def test_worked_integer_instance(self, fig1, int_sr):
        out = join([fig1["R"], fig1["S"]], int_sr)
        assert out.schema == ("A", "B", "C")
        assert out.tuples == {(1, 3, 3): 18, (1, 1, 1): 8}

    def test_worked_rational_instance(self, fig2):
        out = join([fig2["R"], fig2["S"]], get_semiring("qplus"))
        assert out == AnnotatedRelation(
            ("A", "B", "C"), {(1, 1, 1): 3, (1, 1, 2): 4, (2, 1, 1): 6, (2, 1, 2): 8}
        )

    def test_join_with_empty_is_empty(self, fig1, int_sr):
        out = join([fig1["R"], AnnotatedRelation.empty(("B", "C"))], int_sr)
        assert not out

    def test_associative_commutative_on_randoms(self, int_sr):
        rng = random.Random(5)
        for _ in range(25):
            r = random_relation(rng, ("A", "B"))
            s = random_relation(rng, ("B", "C"))
            t = random_relation(rng, ("C", "D"))
            all_at_once = join([r, s, t], int_sr)
            assert join([join([r, s], int_sr), t], int_sr) == all_at_once
            assert join([t, s, r], int_sr) == all_at_once


class TestAggregate:
    def test_sum_over_c(self, fig2):
        out = aggregate(fig2["S"], "C", "sum", get_semiring("qplus"))
        assert out == AnnotatedRelation(("B",), {(1,): 7})

    def test_example_1_1_total(self, fig1, int_sr):
        joined = join([fig1["R"], fig1["S"]], int_sr)
        out = aggregate(aggregate(joined, "C", "sum", int_sr), "B", "sum", int_sr)
        assert out.tuples == {(1,): 26}

    def test_single_value_groups_keep_annotations(self, int_sr):
        rel = AnnotatedRelation(("A", "B"), {(1, 1): 4, (2, 2): 5})
        out = aggregate(rel, "B", "sum", int_sr)
        assert out == AnnotatedRelation(("A",), {(1,): 4, (2,): 5})

    def test_unknown_attribute_or_operator(self, fig1, int_sr):
        with pytest.raises(QueryError):
            aggregate(fig1["R"], "Z", "sum", int_sr)
        with pytest.raises(QueryError):
            aggregate(fig1["R"], "B", "max", int_sr)

    def test_cancellation_canonicalizes(self, int_sr):
        rel = AnnotatedRelation(("A", "B"), {(1, 1): 3, (1, 2): -3})
        assert not aggregate(rel, "B", "sum", int_sr)


class TestCommutingConditions:
    def test_same_operator_always_commutes(self, int_sr):
        rng = random.Random(11)
        for _ in range(20):
            rel = random_relation(rng, ("A", "B", "C"))
            ab = aggregate(aggregate(rel, "A", "sum", int_sr), "B", "sum", int_sr)
            ba = aggregate(aggregate(rel, "B", "sum", int_sr), "A", "sum", int_sr)
            assert ab == ba

    def test_separable_attributes_commute_across_operators(self):
        sr = get_semiring("qplus")
        rng = random.Random(12)
        for _ in range(20):
            r1 = random_relation(rng, ("B", "C"), lo=0, hi=5)  # no A
            r2 = random_relation(rng, ("A", "C"), lo=0, hi=5)  # no B
            rel = join([r1, r2], sr)
            ab = aggregate(aggregate(rel, "A", "sum", sr), "B", "max", sr)
            ba = aggregate(aggregate(rel, "B", "max", sr), "A", "sum", sr)
            assert ab == ba

    def test_distributive_push_down(self, int_sr):
        rng = random.Random(13)
        for _ in range(20):
            r = random_relation(rng, ("A", "B"))
            s = random_relation(rng, ("B", "C"))
            lhs = aggregate(join([r, s], int_sr), "C", "sum", int_sr)
            rhs = join([r, aggregate(s, "C", "sum", int_sr)], int_sr)
            assert lhs == rhs


class TestProductAggregate:
    @pytest.fixture
    def qcq_instance(self):
        # two-relation instance over ({0,1}, max, *) with full B-domain declared
        r = AnnotatedRelation(("A", "B"), {(0, 0): 1, (0, 1): 1})
        s = AnnotatedRelation(("B", "C"), {(0, 1): 1, (1, 1): 1})
        doms = DomainRegistry.from_declarations({"B": [0, 1]}, {"R": r, "S": s})
        return r, s, doms

    def test_quantified_example(self, qcq_instance):
        sr = get_semiring("bool01")
        r, s, doms = qcq_instance
        joined = join([r, s], sr)
        out = product_aggregate(joined, "B", doms, sr)
        assert out == AnnotatedRelation(("A", "C"), {(0, 1): 1})

    def test_incomplete_group_dropped(self):
        sr = get_semiring("bool01")
        rel = AnnotatedRelation(("A", "B"), {(0, 0): 1})
        doms = DomainRegistry.from_declarations({"B": [0, 1]}, {"R": rel})
        assert not product_aggregate(rel, "B", doms, sr)

    def test_push_down_equality(self, qcq_instance):
        # product aggregation distributes onto each relation before the join
        sr = get_semiring("bool01")
        r, s, doms = qcq_instance
        direct = product_aggregate(join([r, s], sr), "B", doms, sr)
        pushed = join(
            [product_aggregate(r, "B", doms, sr), product_aggregate(s, "B", doms, sr)],
            sr,
        )
        assert direct == pushed

    def test_non_idempotent_refused(self, int_sr):
        rel = AnnotatedRelation(("A", "B"), {(0, 0): 1})
        doms = DomainRegistry.from_declarations({"B": [0]}, {"R": rel})
        with pytest.raises(QueryError):
            product_aggregate(rel, "B", doms, int_sr)

    def test_undeclared_domain_refused(self):
        sr = get_semiring("bool01")
        rel = AnnotatedRelation(("A", "B"), {(0, 0): 1})
        with pytest.raises(QueryError):
            product_aggregate(rel, "B", DomainRegistry(values={}), sr)


class TestSemijoin:
    def test_self_semijoin_is_identity(self, fig1):
        assert semijoin(fig1["R"], fig1["R"]) == fig1["R"]

    def test_worked_instance(self, fig1):
        # B-values 3 and 1 match S; B-value 2 dangles
        out = semijoin(fig1["R"], fig1["S"])
        assert out == AnnotatedRelation(("A", "B"), {(1, 3): 3, (1, 1): 2})

    def test_against_empty(self, fig1):
        assert not semijoin(fig1["R"], AnnotatedRelation.empty(("B",)))

    def test_disjoint_schemas(self, fig1):
        nonempty = AnnotatedRelation(("Z",), {(9,): 1})
        assert semijoin(fig1["R"], nonempty) == fig1["R"]


class TestDomainRegistry:
    def test_active_domain_collects_values(self, fig1):
        doms = DomainRegistry.from_declarations({}, fig1)
        assert doms.domain("B") == frozenset({1, 2, 3})
        assert doms.domain("C") == frozenset({1, 3})

    def test_value_outside_declared_domain(self, fig1):
        with pytest.raises(QueryError):
            DomainRegistry.from_declarations({"B": [1, 2]}, fig1)
