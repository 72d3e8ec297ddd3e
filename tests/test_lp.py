import itertools
import math
import random
from fractions import Fraction

import pytest

from ajar.errors import InternalError
from ajar.lp import _unimplied, cover_bracket, fractional_cover_value, graph_cover_pricer


def bag(*attrs):
    return frozenset(attrs)


def edges(*pairs):
    return [(frozenset(attrs), cost) for attrs, cost in pairs]


class TestUnitMode:
    def test_triangle_bag_is_three_halves(self):
        cost = edges((("A", "B"), 1), (("B", "C"), 1), (("C", "A"), 1))
        value = fractional_cover_value(bag("A", "B", "C"), cost)
        assert value == Fraction(3, 2)
        assert isinstance(value, Fraction)

    def test_single_edge_covers_bag(self):
        cost = edges((("A", "B"), 1))
        assert fractional_cover_value(bag("A", "B"), cost) == 1

    def test_two_disjoint_attrs_cost_two(self):
        cost = edges((("A", "B"), 1), (("C", "D"), 1))
        assert fractional_cover_value(bag("A", "C"), cost) == 2

    def test_empty_bag_costs_nothing(self):
        assert fractional_cover_value(bag(), []) == 0

    def test_uncovered_attribute_is_internal_error(self):
        cost = edges((("A",), 1))
        with pytest.raises(InternalError):
            fractional_cover_value(bag("A", "Z"), cost)

    def test_four_cycle_bag(self):
        # cover {A,B,C} on the 4-cycle: opposite edges give exactly 2
        cost = edges((("A", "B"), 1), (("B", "C"), 1), (("C", "D"), 1), (("D", "A"), 1))
        assert fractional_cover_value(bag("A", "B", "C"), cost) == 2


def test_every_cost_solves_exactly():
    # a float cost is an exact binary fraction, so it solves exactly too
    abc = bag("A", "B", "C")
    unit = edges((("A", "B"), 1), (("B", "C"), 1), (("C", "A"), 1))
    mixed = unit[:2] + edges((("C", "A"), 1.0))
    halves = edges((("A", "B"), 0.5), (("B", "C"), Fraction(1, 2)), (("C", "A"), 0.5))
    for cost, want in ((unit, Fraction(3, 2)), (mixed, Fraction(3, 2)), (halves, Fraction(3, 4))):
        value = fractional_cover_value(abc, cost)
        assert type(value) is Fraction and value == want
    # 0.1 is not 1/10 but the binary fraction nearest it, kept exactly
    assert fractional_cover_value(bag("A", "B"), edges((("A", "B"), 0.1))) == Fraction(0.1)
    assert type(fractional_cover_value(bag(), mixed)) is Fraction


class TestDataMode:
    def test_log_costs_scale_width(self):
        # one big relation, one tiny: covering via the tiny one is cheaper
        cost = [(frozenset(("A", "B")), 1.0), (frozenset(("A", "B")), 0.25)]
        value = fractional_cover_value(bag("A", "B"), cost)
        assert value == pytest.approx(0.25)

    def test_triangle_float(self):
        cost = [(frozenset(p), 1.0) for p in (("A", "B"), ("B", "C"), ("C", "A"))]
        value = fractional_cover_value(bag("A", "B", "C"), cost)
        assert value == pytest.approx(1.5, abs=1e-9)

    def test_zero_cost_edge_is_free(self):
        cost = [(frozenset(("A", "B")), 0.0), (frozenset(("B", "C")), 1.0)]
        value = fractional_cover_value(bag("A", "B", "C"), cost)
        assert value == pytest.approx(1.0)


def test_matches_brute_force_grid_search():
    # coarse grid over x assignments bounds the LP optimum from above,
    # and LP feasibility from below via weak duality on sampled duals
    cost = edges((("A", "B"), 1), (("B", "C"), 1), (("A", "C"), 1), (("A",), 1))
    target = bag("A", "B", "C")
    value = fractional_cover_value(target, cost)
    steps = [Fraction(k, 4) for k in range(0, 9)]
    best = None
    for x1 in steps:
        for x2 in steps:
            for x3 in steps:
                for x4 in steps:
                    xs = (x1, x2, x3, x4)
                    covered = {
                        "A": x1 + x3 + x4,
                        "B": x1 + x2,
                        "C": x2 + x3,
                    }
                    if all(covered[a] >= 1 for a in target):
                        total = sum(xs)
                        if best is None or total < best:
                            best = total
    assert value == best


def _solve(matrix, rhs):
    """Unique solution of a square Fraction system, or None when singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def _cover_by_vertex_enumeration(target, cost):
    """Minimize Σ c_F x_F subject to Σ_{F ∋ a} x_F >= 1, x >= 0, over vertices.

    A vertex makes len(cost) constraints tight.  Fixing the set T of tight
    cover rows and the support S (the variables whose x >= 0 is not tight)
    forces |S| = |T|; each square subsystem is solved and checked.
    """
    attrs = sorted(target)
    coeff = [[Fraction(int(a in e)) for e, _ in cost] for a in attrs]
    best = None
    for size in range(1, len(attrs) + 1):
        for tight in itertools.combinations(range(len(attrs)), size):
            for support in itertools.combinations(range(len(cost)), size):
                x_s = _solve([[coeff[i][j] for j in support] for i in tight], [Fraction(1)] * size)
                if x_s is None or any(v < 0 for v in x_s):
                    continue
                x = [Fraction(0)] * len(cost)
                for j, v in zip(support, x_s):
                    x[j] = v
                if all(sum(c * v for c, v in zip(row, x)) >= 1 for row in coeff):
                    value = sum(Fraction(c) * v for (_, c), v in zip(cost, x))
                    best = value if best is None else min(best, value)
    return best


def test_random_cover_lps_match_vertex_enumeration():
    rng = random.Random(41)
    for trial in range(150):
        k = rng.randint(1, 5)
        names = [chr(ord("A") + i) for i in range(k)]
        unit = trial % 2 == 0
        cost = [
            (frozenset(rng.sample(names, rng.randint(1, k))), 1 if unit else rng.randint(1, 9))
            for _ in range(rng.randint(1, 7))
        ]
        covered = set().union(*(e for e, _ in cost))
        target = frozenset(rng.sample(sorted(covered), rng.randint(1, len(covered))))
        exact = fractional_cover_value(target, cost)
        assert isinstance(exact, Fraction)
        assert exact == _cover_by_vertex_enumeration(target, cost)
        approx = fractional_cover_value(target, [(e, float(c)) for e, c in cost])
        assert abs(approx - exact) <= 1e-9


def test_cover_bracket_holds_the_lp_value():
    # lo <= LP <= hi on random bags and edges, with int costs and with
    # Fraction costs, the bounds exact numbers either way
    rng = random.Random(43)
    for trial in range(400):
        k = rng.randint(1, 7)
        names = [chr(ord("A") + i) for i in range(k)]
        unit = trial % 2 == 0
        cost = [
            (frozenset(rng.sample(names, rng.randint(1, min(4, k)))), 1 if unit else rng.randint(0, 9))
            for _ in range(rng.randint(1, 9))
        ]
        covered = sorted(set().union(*(e for e, _ in cost)))
        target = frozenset(rng.sample(covered, rng.randint(1, len(covered))))
        bit = {a: 1 << i for i, a in enumerate(names)}
        masks = [(sum(bit[a] for a in e), c) for e, c in cost]
        target_mask = sum(bit[a] for a in target)
        value = fractional_cover_value(target, cost)
        exact_lo, hi = cover_bracket(target_mask, masks)
        assert isinstance(exact_lo, Fraction) and isinstance(hi, int), (cost, target)
        assert exact_lo <= value <= hi, (cost, target, exact_lo, value, hi)
        sevenths = fractional_cover_value(target, [(e, Fraction(c, 7)) for e, c in cost])
        lo, hi_sevenths = cover_bracket(target_mask, [(m, Fraction(c, 7)) for m, c in masks])
        assert lo <= sevenths <= hi_sevenths, (cost, target, lo, sevenths, hi_sevenths)
        assert (lo, hi_sevenths, sevenths) == (exact_lo / 7, Fraction(hi, 7), value / 7)


def test_cover_bracket_is_tight_on_single_edges_and_the_triangle():
    # a bag inside one edge costs that edge; the triangle's packing is 3/2
    # but a greedy integral cover takes two edges
    ab, bc, ca = 0b011, 0b110, 0b101
    assert cover_bracket(ab, [(ab, 1), (bc, 1)]) == (1, 1)
    assert cover_bracket(0b111, [(ab, 1), (bc, 1), (ca, 1)]) == (Fraction(3, 2), 2)


def test_cover_bracket_of_an_empty_bag_is_zero():
    # as fractional_cover_value prices an empty bag, with no edge to read
    assert cover_bracket(0, [(0b01, 1)]) == (0, 0)
    assert cover_bracket(0, []) == (0, 0)
    assert cover_bracket(0, [(0b01, Fraction(1, 2))]) == (0, 0)


def test_cover_bracket_uncovered_attribute_is_internal_error():
    with pytest.raises(InternalError):
        cover_bracket(0b11, [(0b01, 1)])
    with pytest.raises(InternalError):
        cover_bracket(0b10, [(0b01, 1.0)])


def test_unimplied_keeps_the_rows_no_other_row_implies():
    # row j implies row k when its set holds k's at no larger cost; of two
    # identical rows the first stays; the survivors keep their order
    def implied(k, rows):
        attrs, cost = rows[k]
        return any(
            j != k and attrs <= other and other_cost <= cost
            and (j < k or other != attrs or other_cost != cost)
            for j, (other, other_cost) in enumerate(rows)
        )

    rng = random.Random(47)
    for trial in range(300):
        names = "ABCD"[: rng.randint(1, 4)]
        rows = [
            (frozenset(rng.sample(names, rng.randint(1, len(names)))), rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 10))
        ]
        if trial % 2:
            rows = [(e, c / 3) for e, c in rows]
        want = [row for k, row in enumerate(rows) if not implied(k, rows)]
        assert _unimplied(rows) == want, rows


def _masks(pairs):
    # edges as bitmasks over A=bit 0, B=bit 1, ...
    return [(sum(1 << (ord(a) - ord("A")) for a in attrs), cost) for attrs, cost in pairs]


def _doubled_cover(bag, pairs):
    return graph_cover_pricer(_masks(pairs))(bag)


class TestGraphCoverValue:
    # the pricer returns twice the exact cover value, as an int
    @pytest.mark.parametrize(
        "pairs,value",
        [
            ((("AB", 1), ("BC", 1), ("CA", 1)), Fraction(3, 2)),  # triangle
            ((("AB", 1), ("BC", 1)), 2),  # 3-vertex path
            ((("AB", 1), ("BC", 1), ("CD", 1), ("DE", 1), ("EA", 1)), Fraction(5, 2)),  # C5
            ((("AB", 1), ("AC", 1), ("AD", 1)), 3),  # star K1,3
            ((("A", 1),), 1),  # single vertex
        ],
    )
    def test_named_graphs(self, pairs, value):
        masks = _masks(pairs)
        whole = 0
        for m, _ in masks:
            whole |= m
        got = graph_cover_pricer(masks)(whole)
        assert got == 2 * value and type(got) is int
        whole_bag = bag(*"ABCDE"[: whole.bit_length()])
        assert got == 2 * fractional_cover_value(whole_bag, edges(*pairs))

    def test_an_odd_cycle_is_not_priced_by_an_integral_matching(self):
        # a triangle plus D, covered by a singleton: the graph matches one
        # edge (2·4 − 2 = 6), its double cover all three left copies
        # (2·4 − 3); a pendant F on C5 makes C5 + F integral (2·6 − 6)
        assert _doubled_cover(0b1111, (("AB", 1), ("BC", 1), ("CA", 1), ("D", 1))) == 5
        c5_f = (("AB", 1), ("BC", 1), ("CD", 1), ("DE", 1), ("EA", 1), ("AF", 1))
        price = graph_cover_pricer(_masks(c5_f))
        assert price(0b111111) == 6
        assert price(0b011111) == 5

    def test_edges_are_read_through_their_restriction_to_the_bag(self):
        # a ternary edge meeting the bag in two attributes is one graph edge
        price = graph_cover_pricer(_masks((("ABD", 1), ("BC", 1), ("CA", 1))))
        assert price(0b0111) == 3
        assert price(0) == 0

    def test_an_edge_leaving_the_bag_covers_its_attribute_in_it(self):
        # D lies only in CD, whose C is outside the bag {A,B,D}: AB plus CD
        pairs = (("AB", 1), ("BC", 1), ("CD", 1))
        assert _doubled_cover(0b1011, pairs) == 4
        assert fractional_cover_value(bag("A", "B", "D"), edges(*pairs)) == 2
        assert _doubled_cover(0b0101, pairs) == 4

    def test_a_ternary_edge_meeting_the_bag_in_two_adds_that_pair(self):
        # without the pair AB, {A,B,C} would be the path A–C–B, at 2·2
        pairs = (("ABD", 1), ("BC", 1), ("CA", 1))
        assert _doubled_cover(0b0111, pairs) == 3
        assert fractional_cover_value(bag("A", "B", "C"), edges(*pairs)) == Fraction(3, 2)

    def test_a_ternary_edge_meeting_the_bag_in_three_gives_none(self):
        assert _doubled_cover(0b0111, (("ABCD", 1), ("AB", 1), ("CD", 1))) is None
        assert _doubled_cover(0b1011, (("ABCD", 1), ("AB", 1), ("CD", 1))) is None
        assert _doubled_cover(0b0011, (("ABCD", 1), ("AB", 1), ("CD", 1))) == 2

    def test_none_off_its_class(self):
        # an edge meeting the bag in three attributes, or one costing other
        # than 1, leaves the bag to the simplex
        assert _doubled_cover(0b111, (("ABC", 1),)) is None
        assert _doubled_cover(0b111, (("AB", 1), ("BC", 1), ("ABC", 1))) is None
        assert _doubled_cover(0b111, (("AB", 2), ("BC", 1), ("CA", 1))) is None
        assert _doubled_cover(0b111, (("AB", 0.5), ("BC", 1), ("CA", 1))) is None
        assert _doubled_cover(0b11, (("AB", 1), ("BC", 2))) is None

    def test_uncovered_bag_is_left_to_the_simplex(self):
        assert _doubled_cover(0b11, (("A", 1),)) is None

    def test_matches_the_simplex_on_random_bags(self):
        # bags over at most 10 attributes whose edges meet them in one or two
        # attributes (a third may lie outside), some attributes covered only
        # by singletons; one more edge meeting the bag in three attributes,
        # or at a cost other than 1, then leaves it to the simplex
        rng = random.Random(47)
        lonely_seen = 0
        for _ in range(2000):
            k = rng.randint(1, 10)
            names = [chr(ord("A") + i) for i in range(k)]
            target = rng.sample(names, rng.randint(1, k))
            lonely = set(rng.sample(target, rng.randint(0, min(2, len(target)))))
            paired = [a for a in names if a not in lonely]
            cost = []
            for _ in range(rng.randint(0, 2 * k)):
                if len(paired) < 2:
                    break
                e = set(rng.sample(paired, 2))
                outside = [a for a in names if a not in target and a not in e]
                if outside and rng.random() < 0.2:
                    e.add(rng.choice(outside))
                cost.append((frozenset(e), 1))
            covered = set().union(*(e for e, _ in cost))
            cost += [(frozenset((a,)), 1) for a in target if a not in covered or rng.random() < 0.1]
            lonely_seen += any(all(a not in e or len(e) == 1 for e, _ in cost) for a in target)
            bit = {a: 1 << i for i, a in enumerate(names)}
            masks = [(sum(bit[a] for a in e), c) for e, c in cost]
            target_mask = sum(bit[a] for a in target)
            got = graph_cover_pricer(masks)(target_mask)
            want = fractional_cover_value(frozenset(target), cost)
            assert got == 2 * want and type(got) is int, (cost, target)
            meet = rng.sample(target, min(3, len(target)))
            off = (sum(bit[a] for a in meet), 1 if len(meet) == 3 else 2)
            assert graph_cover_pricer(masks + [off])(target_mask) is None, (cost, target, meet)
        assert lonely_seen > 500
