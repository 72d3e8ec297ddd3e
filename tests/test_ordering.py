import itertools
import math
import random

import pytest

from ajar import (
    AggregationOrdering,
    ExtensionOverflow,
    Hypergraph,
    PRODUCT,
    QueryError,
    compute_prec,
    get_semiring,
    linear_extensions,
)
from ajar.ordering import test_equivalence as is_equivalent
from ajar.oracle import (
    completeness_counterexample,
    naive_eval,
    semantic_equiv,
)
from ajar.ordering import explain_equivalence
from conftest import ordering


@pytest.fixture
def two_path():
    return Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))])


class TestRestrict:
    def test_subsequence(self):
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "sum"))
        assert alpha.restrict({"A", "C"}).items == (("A", "sum"), ("C", "sum"))

    def test_empty_set(self):
        alpha = ordering(("A", "sum"))
        assert alpha.restrict(set()).items == ()

    def test_superset_is_identity(self):
        alpha = ordering(("A", "sum"), ("B", "max"))
        assert alpha.restrict({"A", "B", "Z"}) == alpha

    def test_repeated_attribute_is_named(self):
        with pytest.raises(QueryError, match=r"^attribute 'B' repeated in ordering$"):
            ordering(("A", "sum"), ("B", "sum"), ("B", "max"))


class TestEquivalence:
    def test_separable_operators_commute(self, two_path):
        alpha = ordering(("A", "sum"), ("C", "max"))
        beta = ordering(("C", "max"), ("A", "sum"))
        assert is_equivalent(two_path, alpha, beta)

    def test_independent_after_shared_head(self, two_path):
        alpha = ordering(("B", "min"), ("A", "max"), ("C", "sum"))
        beta = ordering(("B", "min"), ("C", "sum"), ("A", "max"))
        assert is_equivalent(two_path, alpha, beta)

    def test_blocked_swap_rejected(self, two_path):
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"))
        beta = ordering(("B", "max"), ("A", "sum"), ("C", "max"))
        assert not is_equivalent(two_path, alpha, beta)
        violation = explain_equivalence(two_path, alpha, beta)
        assert violation.rule == "blocked-path"
        assert {violation.earlier, violation.later} == {"A", "B"}

    def test_mismatched_attribute_sets_rejected(self, two_path):
        alpha = ordering(("A", "sum"))
        beta = ordering(("B", "sum"))
        assert not is_equivalent(two_path, alpha, beta)

    def test_mismatched_operators_rejected(self, two_path):
        alpha = ordering(("A", "sum"))
        beta = ordering(("A", "max"))
        assert not is_equivalent(two_path, alpha, beta)

    def test_identical_orderings(self, two_path):
        alpha = ordering(("A", "sum"), ("B", "sum"))
        assert is_equivalent(two_path, alpha, alpha)


class TestEquivalenceProduct:
    def test_empty_orderings(self, two_path):
        assert is_equivalent(two_path, ordering(), ordering())

    def test_identical(self, two_path):
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        assert is_equivalent(two_path, alpha, alpha)

    def test_product_head_cannot_move_past_blocking_semiring_attr(self, two_path):
        # swapping a product with a connected max is rejected, and the
        # constructed two-tuple instance realizes the disagreement
        sr = get_semiring("bool01")
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        beta = ordering(("A", "max"), ("B", PRODUCT), ("C", "max"))
        structural = is_equivalent(two_path, alpha, beta)
        assert not structural
        instance, domains = completeness_counterexample(two_path, alpha, beta, sr)
        lhs = naive_eval(two_path, alpha, instance, domains, sr)
        rhs = naive_eval(two_path, beta, instance, domains, sr)
        assert lhs != rhs

    def test_products_commute_with_fully_separated_attrs(self):
        # B and C live in different edges; the product splits per component
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("C", "D"))])
        sr = get_semiring("bool01")
        alpha = ordering(("B", PRODUCT), ("C", "max"))
        beta = ordering(("C", "max"), ("B", PRODUCT))
        assert is_equivalent(h, alpha, beta)
        verdict = semantic_equiv(h, alpha, beta, 30, 42, sr)
        assert verdict.equivalent_likely

    def test_exhaustive_semantic_verification_on_tiny_queries(self):
        # every {0,1} instance of each tiny query: the structural verdict
        # must equal instance-by-instance semantic equality, exactly
        from ajar import AnnotatedRelation, DomainRegistry

        sr = get_semiring("bool01")

        def all_instances(h):
            edge_tuples = []
            for e in h.edges:
                attrs = sorted(e.attrs)
                cells = list(itertools.product((0, 1), repeat=len(attrs)))
                edge_tuples.append((e.name, attrs, cells))
            counts = [1 << len(cells) for _, _, cells in edge_tuples]
            total = 1
            for c in counts:
                total *= c
            for idx in range(total):
                inst, rem = {}, idx
                for (name, attrs, cells), c in zip(edge_tuples, counts):
                    mask = rem % c
                    rem //= c
                    rows = {cells[i]: 1 for i in range(len(cells)) if mask & (1 << i)}
                    inst[name] = AnnotatedRelation(attrs, rows)
                yield inst

        cases = [
            Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))]),
            Hypergraph.build([("R", ("A", "B")), ("S", ("A", "C"))]),
        ]
        checked = 0
        for h in cases:
            attrs = sorted(h.vertices)
            doms = DomainRegistry(values={a: frozenset({0, 1}) for a in attrs})
            for agg in itertools.combinations(attrs, 2):
                for ops in itertools.product(("max", PRODUCT), repeat=2):
                    alpha = AggregationOrdering(tuple(zip(agg, ops)))
                    beta = AggregationOrdering(tuple(reversed(alpha.items)))
                    structural = is_equivalent(h, alpha, beta)
                    semantic = all(
                        naive_eval(h, alpha, inst, doms, sr)
                        == naive_eval(h, beta, inst, doms, sr)
                        for inst in all_instances(h)
                    )
                    assert structural == semantic, (alpha.items, beta.items)
                    checked += 1
        assert checked == 24

    def test_oracle_agreement_on_permutations(self, two_path):
        sr = get_semiring("bool01")
        alpha = ordering(("B", PRODUCT), ("A", "max"), ("C", "max"))
        for perm in itertools.permutations(alpha.items):
            beta = AggregationOrdering(perm)
            structural = is_equivalent(two_path, alpha, beta)
            if structural:
                verdict = semantic_equiv(two_path, alpha, beta, 40, 900, sr)
                assert verdict.equivalent_likely
            else:
                instance, domains = completeness_counterexample(two_path, alpha, beta, sr)
                lhs = naive_eval(two_path, alpha, instance, domains, sr)
                rhs = naive_eval(two_path, beta, instance, domains, sr)
                assert lhs != rhs


class TestComputePrec:
    def test_head_before_rest(self, two_path):
        prec = compute_prec(two_path, ordering(("A", "sum"), ("B", "max"), ("C", "max")))
        assert set(prec.prec) == {("A", "B"), ("A", "C")}

    def test_only_shared_edge_pair(self, two_path):
        prec = compute_prec(two_path, ordering(("B", "max"), ("A", "sum"), ("C", "max")))
        assert set(prec.prec) == {("B", "A")}

    def test_two_round_interaction(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"), ("D", "sum"))
        prec = compute_prec(h, alpha)
        assert set(prec.prec) == {("A", "B"), ("A", "C"), ("A", "D"), ("B", "D"), ("C", "D")}

    def test_outputs_precede_aggregated(self, two_path):
        prec = compute_prec(two_path, ordering(("B", "sum"), ("C", "sum")))
        assert prec.outputs == {"A"}
        assert prec.before("A", "B") and prec.before("A", "C")
        assert not prec.before("B", "C")

    def test_strict_partial_order(self):
        rng = random.Random(8)
        for _ in range(40):
            h, alpha = _random_query(rng, 4, ["sum", "max", "min"])
            prec = compute_prec(h, alpha)
            pairs = set(prec.prec)
            for a, b in pairs:
                assert (b, a) not in pairs
                assert a != b
                assert alpha.position(a) < alpha.position(b)
            for (a, b), (c, d) in itertools.product(pairs, pairs):
                if b == c:
                    assert (a, d) in pairs  # transitive

    def test_products_rejected(self, two_path):
        with pytest.raises(Exception):
            compute_prec(two_path, ordering(("B", PRODUCT)))

    def test_same_operator_pairs_forced_only_through_other_operators(self):
        # a same-operator precedence can only arise transitively through an
        # attribute with a different operator, never between separable attrs
        rng = random.Random(29)
        for _ in range(60):
            h, alpha = _random_query(rng, 4, ["sum", "max"])
            prec = compute_prec(h, alpha)
            ops = alpha.operators()
            for a, b in prec.prec:
                if ops[a] != ops[b]:
                    continue
                assert any(
                    (a, c) in prec.prec and (c, b) in prec.prec and ops[c] != ops[a]
                    for c in alpha.attr_list()
                ), (a, b, sorted(prec.prec))


class TestLinearExtensions:
    def test_incomplete_prior_characterization_vector(self):
        # one constraint only, three extensions, original included
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("A", "C"))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "sum"))
        prec = compute_prec(h, alpha)
        assert set(prec.prec) == {("A", "B")}
        exts = {b.attr_list() for b in linear_extensions(prec, alpha)}
        assert exts == {("A", "B", "C"), ("A", "C", "B"), ("C", "A", "B")}

    def test_total_order_single_extension(self, two_path):
        # alternating operators chain the constraints into a total order
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "sum"))
        prec = compute_prec(two_path, alpha)
        assert set(prec.prec) == {("A", "B"), ("B", "C"), ("A", "C")}
        exts = list(linear_extensions(prec, alpha))
        assert exts == [alpha]

    def test_empty_prec_all_permutations(self):
        h = Hypergraph.build([("R", ("A",)), ("S", ("B",)), ("T", ("C",))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "min"))
        prec = compute_prec(h, alpha)
        assert not prec.prec
        assert sum(1 for _ in linear_extensions(prec, alpha)) == 6

    def test_overflow_signal(self):
        h = Hypergraph.build([("R", ("A",)), ("S", ("B",)), ("T", ("C",))])
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "min"))
        prec = compute_prec(h, alpha)
        with pytest.raises(ExtensionOverflow):
            list(linear_extensions(prec, alpha, cap=3))

    def test_every_extension_accepted_by_test(self, two_path):
        alpha = ordering(("A", "sum"), ("B", "max"), ("C", "max"))
        prec = compute_prec(two_path, alpha)
        for beta in linear_extensions(prec, alpha):
            assert is_equivalent(two_path, alpha, beta)


def _random_query(rng, max_attrs, ops):
    n = rng.randint(2, max_attrs)
    attrs = [f"X{i}" for i in range(n)]
    edges = []
    shuffled = rng.sample(attrs, n)
    for i in range(n - 1):
        edges.append((f"E{i}", (shuffled[i], shuffled[i + 1])))
    for j in range(rng.randint(0, 2)):
        arity = rng.randint(1, min(3, n))
        edges.append((f"G{j}", tuple(rng.sample(attrs, arity))))
    h = Hypergraph.build(edges)
    k = rng.randint(1, n)
    agg = rng.sample(attrs, k)
    alpha = AggregationOrdering(tuple((a, rng.choice(ops)) for a in agg))
    return h, alpha


def _sweep_query(rng):
    """2 to 8 attributes under random atoms of arity 1 to 3; 1 to 6 of them
    aggregated by sum, max or min, the others outputs."""
    n = rng.randint(2, 8)
    attrs = [f"X{i}" for i in range(n)]
    h = Hypergraph.build([("E0", attrs[:1])])
    while len(h.vertices) < 2:
        h = Hypergraph.build([
            (f"E{j}", rng.sample(attrs, rng.randint(1, min(3, n))))
            for j in range(rng.randint(1, n + 1))
        ])
    agg = rng.sample(sorted(h.vertices), rng.randint(1, min(6, len(h.vertices))))
    return h, AggregationOrdering(tuple((a, rng.choice(("sum", "max", "min"))) for a in agg))


def _accepted(h, alpha):
    """The permutations of alpha that the equivalence test accepts."""
    return {
        perm
        for perm in itertools.permutations(alpha.items)
        if is_equivalent(h, alpha, AggregationOrdering(perm))
    }


class TestCharacterizationCrossCheck:
    def test_accepted_set_equals_extension_set(self):
        rng = random.Random(21)
        for _ in range(60):
            h, alpha = _random_query(rng, 4, ["sum", "max", "min"])
            prec = compute_prec(h, alpha)
            extensions = {b.items for b in linear_extensions(prec, alpha)}
            assert _accepted(h, alpha) == extensions

    def test_sweep_with_outputs(self):
        # wider queries than the cross-check above: 2-8 attributes, up to 6
        # of them aggregated, the rest outputs
        rng = random.Random(2029)
        partial = 0
        for _ in range(400):
            h, alpha = _sweep_query(rng)
            extensions = {b.items for b in linear_extensions(compute_prec(h, alpha), alpha)}
            accepted = _accepted(h, alpha)
            assert accepted == extensions, (h, alpha)
            partial += 1 < len(accepted) < math.factorial(len(alpha))
        assert partial >= 60  # answers neither one ordering nor every one

    def test_semantic_soundness(self):
        sr = get_semiring("qplus")
        rng = random.Random(22)
        done = 0
        while done < 12:
            h, alpha = _random_query(rng, 3, ["sum", "max"])
            equivalents = [
                AggregationOrdering(p)
                for p in itertools.permutations(alpha.items)
                if is_equivalent(h, alpha, AggregationOrdering(p))
            ]
            for beta in equivalents[:3]:
                verdict = semantic_equiv(h, alpha, beta, trials=25, seed=500 + done, semiring=sr)
                assert verdict.equivalent_likely
                done += 1

    def test_semantic_completeness_witness(self):
        sr = get_semiring("qplus")
        rng = random.Random(23)
        found = 0
        while found < 12:
            h, alpha = _random_query(rng, 4, ["sum", "max"])
            for perm in itertools.permutations(alpha.items):
                beta = AggregationOrdering(perm)
                if is_equivalent(h, alpha, beta):
                    continue
                built = completeness_counterexample(h, alpha, beta, sr)
                assert built is not None
                instance, domains = built
                lhs = naive_eval(h, alpha, instance, domains, sr)
                rhs = naive_eval(h, beta, instance, domains, sr)
                assert lhs != rhs
                found += 1
                break
