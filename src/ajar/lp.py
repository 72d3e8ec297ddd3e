"""Small dense simplex for fractional edge covers.

The cover LP (minimize Σ x_F·c_F with every bag attribute covered) is solved
through its packing dual, which starts feasible from the all-slack basis.
Costs are rationals (ints, Fractions, or floats, each an exact binary
fraction); ``integer_costs`` scales them by their common denominator, and
the simplex pivots fraction-free (Bareiss/Edmonds): the tableau stays in
integers over one common denominator, every division is exact, and the
optimum comes back as a Fraction, so widths compare bit-exactly whatever
the order of the edges.  Bland's rule prevents cycling.  ``cover_bracket``
bounds the optimum from both sides without pivoting, and
``graph_cover_pricer`` gives it exactly, doubled to an int, for edges of
cost 1 meeting the bag in at most two attributes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

from .errors import InternalError

MAX_PIVOTS = 10_000


def integer_costs(costs: Iterable) -> tuple[list[int], int]:
    """The costs times their least common denominator, as ints, and that
    denominator."""
    costs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in costs]
    den = math.lcm(*(c.denominator for c in costs))
    return [c.numerator * (den // c.denominator) for c in costs], den


def maximize(
    objective: Sequence[int], rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Fraction:
    """Maximize objective·y subject to rows·y <= rhs, y >= 0, over integer
    data with rhs >= 0; the true tableau is tab / d.

    Pivoting on p = tab[r][c] leaves row r as it is and maps every other row
    to (row·p − row[c]·tab[r]) / d, then sets d = p.  Each entry is a minor
    of the input, so the division is exact (Bareiss's identity), and the
    signs and ratios that steer the pivots are those of the rational simplex.
    """
    n = len(objective)
    m = len(rows)
    tab = [
        [index(rows[i][j]) for j in range(n)]
        + [1 if k == i else 0 for k in range(m)]
        + [index(rhs[i])]
        for i in range(m)
    ]
    obj = [-index(objective[j]) for j in range(n)] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    d = 1

    for _ in range(MAX_PIVOTS):
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            return Fraction(obj[-1], d)
        # Bland's leaving row: least ratio rhs/coeff, ties to the least basis
        # index; ratios compare by cross-multiplying (both coeffs positive)
        pivot_row = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                lhs = tab[i][-1] * tab[pivot_row][entering]
                rhs_best = tab[pivot_row][-1] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            raise InternalError("unbounded cover LP: bag attribute in no edge")
        prow = tab[pivot_row]
        p = prow[entering]
        for i, row in enumerate(tab):
            if i == pivot_row:
                continue
            if f := row[entering]:
                tab[i] = [(v * p - f * q) // d for v, q in zip(row, prow)]
            elif p != d:  # only the common denominator changes
                tab[i] = [v * p // d for v in row]
        f = obj[entering]
        obj = [(v * p - f * q) // d for v, q in zip(obj, prow)]
        d = p
        basis[pivot_row] = entering
    raise InternalError("simplex failed to converge")


def _unimplied(rows: Sequence[tuple[frozenset[str], object]]) -> list:
    """The packing rows no other row implies, in their input order.

    Row j implies row k when its attributes include k's and its cost is no
    larger; of two identical rows the first is kept.  So of the rows with
    one attribute set only the first of least cost can stay, and it stays
    unless a strictly larger set costs no more.
    """
    cheapest: dict[frozenset[str], int] = {}  # attribute set -> kept row
    for k, (attrs, cost) in enumerate(rows):
        j = cheapest.get(attrs)
        if j is None or cost < rows[j][1]:
            cheapest[attrs] = k
    kept = [
        k for attrs, k in cheapest.items()
        if not any(attrs < other and rows[j][1] <= rows[k][1] for other, j in cheapest.items())
    ]
    kept.sort()
    return [rows[k] for k in kept]


def cover_bracket(bag: int, edges: Sequence[tuple[int, object]]):
    """(lo, hi) with lo <= fractional_cover_value(bag) <= hi, without the simplex.

    The bag and the edges' attribute sets are bitmasks over one numbering of
    the attributes.  lo is the uniform packing: each bag attribute gets
    min_e c_e / |e ∩ bag|, which fills no edge's packing row past its cost, so
    it is dual-feasible.  hi is a greedy integral cover, each step taking the
    edge that covers the most uncovered attributes per unit of cost; being
    primal-feasible, it costs at least the optimum.  Costs are ints or
    Fractions, so both bounds are exact and lo == hi settles the value.
    """
    if not bag:
        return Fraction(0), 0
    meets = [(e & bag, c) for e, c in edges if e & bag]
    hi, left = 0, bag
    while left:
        pick, pick_new, pick_cost = 0, 0, 0
        for e, c in meets:
            new = (e & left).bit_count()
            if new * pick_cost > pick_new * c or (new and not pick_new):
                pick, pick_new, pick_cost = e, new, c
        if not pick:
            raise InternalError("a bag attribute lies in no edge")
        hi += pick_cost
        left &= ~pick
    # the least c_e / |e ∩ bag|, compared by cross-multiplying
    c_min, k_min = meets[0][1], meets[0][0].bit_count()
    for e, c in meets:
        k = e.bit_count()
        if c * k_min < c_min * k:
            c_min, k_min = c, k
    return Fraction(c_min * bag.bit_count(), k_min), hi


def graph_cover_pricer(edges: Sequence[tuple[int, object]]):
    """A function giving a bag twice its exact cover value, as an int, when
    every edge meeting it costs 1 and meets it in one or two attributes that
    cover it, else None: 2|B| − M by the fractional Gallai identity, M a
    maximum matching of the bipartite double cover of the graph the edges
    draw on B (an attribute only singletons cover stays unmatched)."""
    nbr: dict[int, int] = {}  # attribute bit -> other ends of its unit binary edges
    small = 0  # the attributes of unit edges of one or two attributes
    other = []  # the edges each bag rescans
    for e, c in edges:
        if c == 1 and e.bit_count() <= 2:
            small |= e
            _link(nbr, e)
        else:
            other.append((e, c))

    def doubled_value(bag: int) -> int | None:
        adj = {u: near for u, ends in nbr.items() if u & bag and (near := ends & bag)}
        covered = small
        for e, c in other:
            if m := e & bag:
                if c != 1 or m.bit_count() > 2:
                    return None
                covered |= m
                _link(adj, m)
        if bag & ~covered:
            return None
        mate: dict[int, int] = {}  # right copy -> the left copy matched to it
        taken = 0  # the matched right copies, tried last

        def augment(u: int) -> bool:
            nonlocal seen, taken
            while free := adj[u] & ~seen:
                seen |= (v := (f := free & ~taken) & -f or free & -free)
                if v not in mate or augment(mate[v]):
                    mate[v] = u
                    taken |= v
                    return True
            return False

        for u in adj:
            seen = 0
            augment(u)
        return 2 * bag.bit_count() - len(mate)

    return doubled_value


def _link(graph: dict[int, int], m: int) -> None:
    """Make the two attributes of m neighbours in graph; one gets none."""
    if (u := m & -m) != m:
        graph[u] = graph.get(u, 0) | m ^ u
        graph[m ^ u] = graph.get(m ^ u, 0) | u


def fractional_cover_value(
    bag: frozenset[str], cost_edges: Sequence[tuple[frozenset[str], object]]
) -> Fraction:
    """Optimal value of the fractional edge cover LP for one bag, exactly
    (0 for an empty bag).

    cost_edges pairs each edge's attribute set with its rational cost (1
    without sizes, log_IN of the relation size with them).  An edge whose
    restriction to the bag lies inside another's at no smaller cost is
    dropped first: its packing row can never bind, so the optimum is the same.
    """
    attrs = sorted(bag)
    useful = [(e & bag, c) for e, c in cost_edges if e & bag]
    covered = set().union(*(e for e, _ in useful)) if useful else set()
    if covered != bag:
        raise InternalError(f"attributes {bag - covered} not covered by any edge")
    useful = _unimplied(useful)
    rhs, den = integer_costs(c for _, c in useful)
    rows = [[1 if a in e else 0 for a in attrs] for e, _ in useful]
    return maximize([1] * len(attrs), rows, rhs) / den
