"""Brute-force reference semantics and exhaustive searches.

Everything here is deliberately naive; it exists so the engine can be checked
against independent evaluations on small instances.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from .errors import QueryError
from .ghd import Ghd, cost_edges_for
from .hypergraph import Hypergraph
from .lp import fractional_cover_value
from .ordering import AggregationOrdering, compute_prec, explain_equivalence
from .relations import (
    AnnotatedRelation,
    DomainRegistry,
    aggregate,
    join,
    product_aggregate,
)
from .semirings import INF, PRODUCT, SemiringSpec, get_semiring


def naive_eval(
    h: Hypergraph,
    alpha: AggregationOrdering,
    relations: Mapping[str, AnnotatedRelation],
    domains: Optional[DomainRegistry],
    semiring: SemiringSpec,
) -> AnnotatedRelation:
    """Materialize the full join, then aggregate strictly in alpha order."""
    rel = join([relations[e.name] for e in h.edges], semiring)
    for attr, op in reversed(alpha.items):
        if op == PRODUCT:
            if domains is None:
                raise QueryError("product aggregation needs attribute domains")
            rel = product_aggregate(rel, attr, domains, semiring)
        else:
            rel = aggregate(rel, attr, op, semiring)
    return rel


# One annotation draw per semiring domain; zeros are drawn too, then
# canonicalized away.  A domain not named here parses as an integer.
_ANNOTATION_DRAWS: dict[str, Callable[[random.Random], object]] = {
    "integer": lambda rng: rng.randint(0, 5),
    "extended-integer-with-infinity": lambda rng: rng.randint(0, 9),
    "boolean-01": lambda rng: rng.randint(0, 1),
    "nonneg-real": lambda rng: Fraction(rng.randint(0, 6), rng.randint(1, 3)),
}


class RandomInstanceSpec(NamedTuple):
    """Deterministic random-instance generator for one semiring, drawing
    annotations from the semiring's domain."""

    semiring_name: str = "int"
    domain_size: int = 3
    density: float = 0.6
    seed: int = 0

    def instance(self, h: Hypergraph) -> dict[str, AnnotatedRelation]:
        rng = random.Random(self.seed)
        semiring = get_semiring(self.semiring_name)
        draw = _ANNOTATION_DRAWS.get(semiring.domain, _ANNOTATION_DRAWS["integer"])
        out: dict[str, AnnotatedRelation] = {}
        for e in sorted(h.edges, key=lambda e: e.name):
            attrs = sorted(e.attrs)
            rows = {}
            for row in itertools.product(range(self.domain_size), repeat=len(attrs)):
                if rng.random() < self.density:
                    rows[row] = draw(rng)
            out[e.name] = AnnotatedRelation(attrs, rows, zero=semiring.zero)
        return out


class EquivVerdict(NamedTuple):
    equivalent_likely: bool
    counterexample: Optional[dict[str, AnnotatedRelation]] = None


def semantic_equiv(
    h: Hypergraph,
    alpha: AggregationOrdering,
    beta: AggregationOrdering,
    trials: int,
    seed: int,
    semiring: SemiringSpec,
) -> EquivVerdict:
    """Randomized refutation: evaluate both orders on random instances."""
    if alpha.attrs() != beta.attrs() or alpha.operators() != beta.operators():
        raise QueryError("orderings must share attributes and operators")
    for trial in range(trials):
        spec = RandomInstanceSpec(semiring_name=semiring.name, seed=seed + trial)
        instance = spec.instance(h)
        domains = DomainRegistry.from_declarations({}, instance)
        lhs = naive_eval(h, alpha, instance, domains, semiring)
        rhs = naive_eval(h, beta, instance, domains, semiring)
        if lhs != rhs:
            return EquivVerdict(False, instance)
    return EquivVerdict(True)


def completeness_counterexample(
    h: Hypergraph,
    alpha: AggregationOrdering,
    beta: AggregationOrdering,
    semiring: SemiringSpec,
) -> Optional[tuple[dict[str, AnnotatedRelation], DomainRegistry]]:
    """Two-tuple instance on which rejected orderings disagree.

    Builds the path construction from the first violated constraint: every
    attribute on the blocking path ranges over {0, 1}, everything else is
    pinned to 0, and a single designated relation carries annotations x, y
    chosen so the two operators give different folds.
    """
    violation = explain_equivalence(h, alpha, beta)
    if violation is None or not violation.path:
        return None
    x, y = _clashing_values(
        semiring, alpha.operator(violation.earlier), alpha.operator(violation.later)
    )
    on_path = set(violation.path)
    designated = next(e for e in h.edges if e.attrs & on_path)
    instance: dict[str, AnnotatedRelation] = {}
    declarations: dict[str, object] = {
        a: ([0, 1] if a in on_path else [0]) for a in h.vertices
    }
    for e in h.edges:
        attrs = sorted(e.attrs)
        if e.attrs & on_path:
            row0 = tuple(0 for _ in attrs)
            row1 = tuple(1 if a in on_path else 0 for a in attrs)
            if e.name == designated.name:
                rows = {row0: x, row1: y}
            else:
                rows = {row0: semiring.one, row1: semiring.one}
        else:
            rows = {tuple(0 for _ in attrs): semiring.one}
        instance[e.name] = AnnotatedRelation(attrs, rows, zero=semiring.zero)
    domains = DomainRegistry.from_declarations(declarations)
    return instance, domains


def _clashing_values(semiring: SemiringSpec, op_a: str, op_b: str):
    """x, y with x ⊕ y != x ⊕' y (x = y = 1 for product-vs-semiring clashes)."""
    if PRODUCT in (op_a, op_b):
        if semiring.multiply_idempotent:
            return semiring.one, semiring.one
        other = op_b if op_a == PRODUCT else op_a
        add = semiring.additive(other)
        for x, y in _candidate_pairs(semiring):
            if add(x, y) != semiring.multiply(x, y):
                return x, y
        raise QueryError("no clashing pair found for product-vs-semiring operators")
    add_a = semiring.additive(op_a)
    add_b = semiring.additive(op_b)
    for x, y in _candidate_pairs(semiring):
        if add_a(x, y) != add_b(x, y):
            return x, y
    raise QueryError(f"operators {op_a!r} and {op_b!r} agree on all sampled pairs")


def _candidate_pairs(semiring: SemiringSpec):
    if semiring.domain == "nonneg-real":
        base = [Fraction(1), Fraction(2), Fraction(3), Fraction(0)]
    elif semiring.domain == "extended-integer-with-infinity":
        base = [0, 1, 2, INF]
    elif semiring.domain == "boolean-01":
        base = [0, 1]
    else:
        base = [1, 2, 0, 3]
    off_diagonal = [
        (x, y) for i, x in enumerate(base) for j, y in enumerate(base) if i != j
    ]
    return off_diagonal + [(x, x) for x in base]


def exhaustive_valid_ghds(
    h: Hypergraph,
    alpha: AggregationOrdering,
    bag_filter: Optional[Callable[[frozenset[str]], bool]] = None,
) -> Iterator[Ghd]:
    """All valid GHDs with distinct bags and at most |V| nodes, up to
    isomorphism.

    Duplicate-bag GHDs contract onto distinct-bag ones of equal width and
    validity, so minima over this stream are minima over all valid GHDs.
    Grows rooted trees by leaf attachment; running intersection restricts a
    new bag's already-seen attributes to the attachment bag, and validity
    violations can never be repaired by adding leaves, so both prune.
    Bags are distinct, so a state is exactly its root plus (bag, parent-bag)
    pairs; no tree canonicalization is needed for dedup.

    With bag_filter, a bag is placed only while bag_filter(bag) holds; it is
    asked again at every placement, so its answer may change as the stream
    is consumed.
    """
    n = len(h.vertices)
    if n > 5:
        raise QueryError("exhaustive GHD search is capped at 5 attributes")
    if alpha.has_products():
        raise QueryError("exhaustive validity search is product-free")
    prec = compute_prec(h, alpha)
    verts = sorted(h.vertices)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    # blocked[i]: attrs that may not sit on the ancestor path above a new vert i
    blocked = [0] * n
    for i, x in enumerate(verts):
        for y in verts:
            if x != y and prec.before(x, y):
                blocked[i] |= bit[y]
    all_bags = sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))
    edge_masks = []
    for e in h.edges:
        mask = 0
        for a in e.attrs:
            mask |= bit[a]
        edge_masks.append(mask)
    full_cover = (1 << len(edge_masks)) - 1

    def to_bag(mask: int) -> frozenset[str]:
        return frozenset(v for v in verts if mask & bit[v])

    def admits(mask: int) -> bool:
        return bag_filter is None or bag_filter(to_bag(mask))

    def covered_by(bag: int) -> int:
        """Bitmask of the edges inside bag."""
        covered = 0
        for idx, emask in enumerate(edge_masks):
            if not emask & ~bag:
                covered |= 1 << idx
        return covered

    seen_states: set[frozenset] = set()

    # nodes: list of (bag_mask, parent_index); topped[i]: attrs topped at node i
    def grow(
        nodes: list[tuple[int, Optional[int]]],
        present: int,
        topped: list[int],
        covered: int,
        state: frozenset,
    ) -> Iterator[Ghd]:
        if covered == full_cover:
            yield Ghd(
                root=0,
                parent={i: p for i, (_, p) in enumerate(nodes)},
                chi={i: to_bag(bag) for i, (bag, _) in enumerate(nodes)},
            )
        if len(nodes) == n:
            return
        used = {bag for bag, _ in nodes}
        for bag in all_bags:
            if bag in used or not admits(bag):
                continue
            returning = bag & present
            fresh = bag & ~present
            fresh_blocked = 0
            scan = fresh
            while scan:
                low = scan & -scan
                fresh_blocked |= blocked[low.bit_length() - 1]
                scan ^= low
            for target in range(len(nodes)):
                target_bag = nodes[target][0]
                if returning & ~target_bag:
                    continue
                key = state | {(bag, target_bag)}
                if key in seen_states:
                    continue
                seen_states.add(key)
                # validity: the ancestor path may not top a blocked attribute
                ok = True
                walk: Optional[int] = target
                while walk is not None:
                    if topped[walk] & fresh_blocked:
                        ok = False
                        break
                    walk = nodes[walk][1]
                if not ok:
                    continue
                yield from grow(
                    nodes + [(bag, target)],
                    present | bag,
                    topped + [fresh],
                    covered | covered_by(bag),
                    key,
                )

    for bag in all_bags:
        state = frozenset([(bag, -1)])
        if state in seen_states or not admits(bag):
            continue
        seen_states.add(state)
        yield from grow([(bag, None)], bag, [bag], covered_by(bag), state)


def min_valid_width(
    h: Hypergraph,
    alpha: AggregationOrdering,
    sizes: Optional[dict[str, int]] = None,
) -> object:
    """Minimum width over the exhaustive valid-GHD stream.

    Width is a maximum over bags and the best so far only falls, so a bag
    costing at least the best can never be in a narrower GHD: the stream
    skips it, and the minimum stays exact."""
    cost = cost_edges_for(h, sizes)
    cache: dict[frozenset, object] = {}

    def bag_cost(bag: frozenset):
        if bag not in cache:
            cache[bag] = fractional_cover_value(bag, cost)
        return cache[bag]

    best = None

    def cheap(bag: frozenset) -> bool:
        return best is None or bag_cost(bag) < best

    for g in exhaustive_valid_ghds(h, alpha, bag_filter=cheap):
        w = max(bag_cost(bag) for bag in g.chi.values())
        if best is None or w < best:
            best = w
    if best is None:
        raise QueryError("no valid GHD found")
    return best


def floyd_warshall(rel: AnnotatedRelation) -> dict[tuple, object]:
    """All-pairs shortest paths over a min-plus edge relation."""
    nodes = sorted({v for row in rel.tuples for v in row}, key=repr)
    dist: dict[tuple, object] = {}
    for row, weight in rel.tuples.items():
        key = (row[0], row[1])
        dist[key] = min(dist.get(key, weight), weight)
    for k in nodes:
        for i in nodes:
            ik = dist.get((i, k))
            if ik is None:
                continue
            for j in nodes:
                kj = dist.get((k, j))
                if kj is None:
                    continue
                new = ik + kj
                old = dist.get((i, j))
                if old is None or new < old:
                    dist[(i, j)] = new
    return dist
