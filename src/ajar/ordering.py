"""Aggregation orderings, equivalence testing, and the precedence fixed point.

Two orderings are equivalent when they produce the same output on every
instance.  The recursive test splits on connected components after dropping
output attributes and product attributes (each component keeps the product
attributes its edges hold) and otherwise checks whether the head of one
ordering can commute to the front of the other.  The ordering says which of
its attributes are products, so the product variant needs no separate switch;
product aggregations assume an idempotent ⊗.  The fixed-point computation
turns the same structure into an explicit strict partial order, for
product-free orderings, whose linear extensions are exactly the equivalent
orderings.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import ExtensionOverflow, InternalError, QueryError
from .hypergraph import Hypergraph, connected_components, find_path
from .semirings import PRODUCT


class AggregationOrdering:
    """Sequence of (attribute, operator-name) pairs, outermost first.

    Attributes not listed are output attributes.  The operator name is either
    an additive operator of the semiring in play or the product marker.
    Immutable; it hashes as the tuple ``(items,)``.
    """

    __slots__ = ("items",)
    items: tuple[tuple[str, str], ...]

    def __init__(self, items: tuple[tuple[str, str], ...]):
        seen = set()
        for attr, _ in items:
            if attr in seen:
                raise QueryError(f"attribute {attr!r} repeated in ordering")
            seen.add(attr)
        object.__setattr__(self, "items", items)

    @classmethod
    def of(cls, *items: tuple[str, str]) -> "AggregationOrdering":
        return cls(tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"AggregationOrdering(items={self.items!r})"

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def attrs(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.items)

    def attr_list(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.items)

    def operator(self, attr: str) -> str:
        for a, op in self.items:
            if a == attr:
                return op
        raise QueryError(f"attribute {attr!r} not in ordering")

    def operators(self) -> dict[str, str]:
        return dict(self.items)

    def product_attrs(self) -> frozenset[str]:
        return frozenset(a for a, op in self.items if op == PRODUCT)

    def has_products(self) -> bool:
        return any(op == PRODUCT for _, op in self.items)

    def restrict(self, attrs: Iterable[str]) -> "AggregationOrdering":
        """Subsequence over the given attributes, order and operators kept."""
        attrs = set(attrs)
        return AggregationOrdering(tuple(it for it in self.items if it[0] in attrs))

    def without(self, attrs: Iterable[str]) -> "AggregationOrdering":
        attrs = set(attrs)
        return AggregationOrdering(tuple(it for it in self.items if it[0] not in attrs))

    def position(self, attr: str) -> int:
        for i, (a, _) in enumerate(self.items):
            if a == attr:
                return i
        raise QueryError(f"attribute {attr!r} not in ordering")


class Violation(NamedTuple):
    """First constraint that rejected an equivalence candidate."""

    earlier: str  # attribute that must stay earlier in the candidate
    later: str  # head attribute that tried to commute past it
    rule: str
    path: tuple[str, ...] = ()
    detail: str = ""  # what a mismatch names, in place of earlier and later

    def __str__(self):
        if self.detail:
            return f"{self.rule}: {self.detail}"
        return (
            f"{self.rule}: {self.earlier!r} cannot commute past {self.later!r}"
            + (f" (path {' - '.join(self.path)})" if self.path else "")
        )


def _precheck(alpha: AggregationOrdering, beta: AggregationOrdering) -> Optional[Violation]:
    """The attributes only one ordering aggregates, else the first attribute
    of alpha that beta aggregates by another operator, else None."""
    sides = [
        f"only the {side} ordering aggregates {', '.join(map(repr, sorted(attrs)))}"
        for side, attrs in (("first", alpha.attrs() - beta.attrs()),
                            ("second", beta.attrs() - alpha.attrs()))
        if attrs
    ]
    if sides:
        return Violation("", "", "attribute-sets-differ", detail="; ".join(sides))
    ops = beta.operators()
    for attr, op in alpha.items:
        if ops[attr] != op:
            return Violation("", "", "operators-differ",
                             detail=f"{attr!r} is {op} in the first ordering, {ops[attr]} in the second")
    return None


def commute_block(
    h: Hypergraph, items: tuple[tuple[str, str], ...], j: int
) -> Optional[tuple[str, ...]]:
    """The path that keeps items[j] from commuting to the front, or None.

    items[j] passes an earlier items[i] with its own operator freely; past
    one with another operator it may not go while a path joins the two
    through items[i:], product attributes other than the two left out.
    """
    attr_j, op_j = items[j]
    for i, (attr_i, op_i) in enumerate(items[:j]):
        if op_i == op_j:
            continue
        allowed = {a for a, op in items[i:] if op != PRODUCT} | {attr_i, attr_j}
        path = find_path(h, attr_i, attr_j, allowed)
        if path is not None:
            return path
    return None


def _test_recursive(
    h: Hypergraph, alpha: AggregationOrdering, beta: AggregationOrdering
) -> Optional[Violation]:
    if len(alpha) == 0:
        return None
    removed = set(h.vertices - alpha.attrs())
    prod_attrs = alpha.product_attrs()
    comps = connected_components(h, removed | prod_attrs)
    if len(comps) > 1:
        for comp in comps:
            scope = set(comp)
            for e in h.edges:
                if e.attrs & comp:
                    scope |= e.attrs & prod_attrs
            bad = _test_recursive(h, alpha.restrict(scope), beta.restrict(scope))
            if bad is not None:
                return bad
        return None
    head_attr = alpha[0][0]
    path = commute_block(h, beta.items, beta.position(head_attr))
    if path is not None:
        return Violation(path[0], head_attr, "blocked-path", path)
    return _test_recursive(h, alpha.without([head_attr]), beta.without([head_attr]))


def explain_equivalence(
    h: Hypergraph, alpha: AggregationOrdering, beta: AggregationOrdering
) -> Optional[Violation]:
    """None if equivalent, else the first violated constraint."""
    bad = _precheck(alpha, beta)
    if bad is not None:
        return bad
    return _test_recursive(h, alpha, beta)


def test_equivalence(
    h: Hypergraph, alpha: AggregationOrdering, beta: AggregationOrdering
) -> bool:
    """The equivalence test, sound and complete on product-free orderings.
    Product aggregations take part as in the paper's product variant, which
    assumes an idempotent ⊗, the only kind the engine runs products over."""
    return explain_equivalence(h, alpha, beta) is None


class PrecedenceRelation(NamedTuple):
    """PREC pairs and DNC pairs over the aggregated attributes.

    Output attributes are carried separately: under the extended order every
    output attribute precedes every non-output attribute.
    """

    prec: frozenset[tuple[str, str]]
    dnc: frozenset[frozenset[str]]
    outputs: frozenset[str]
    aggregated: frozenset[str]

    def before(self, a: str, b: str) -> bool:
        """Extended order: outputs first, then PREC."""
        if a in self.outputs and b in self.aggregated:
            return True
        return (a, b) in self.prec

    def predecessors_in(self, attrs: Iterable[str]) -> dict[str, set[str]]:
        attrs = set(attrs)
        preds: dict[str, set[str]] = {a: set() for a in attrs}
        for x, y in self.prec:
            if x in attrs and y in attrs:
                preds[y].add(x)
        return preds


def compute_prec(h: Hypergraph, alpha: AggregationOrdering) -> PrecedenceRelation:
    """Least fixed point of the DNC/PREC rules for a product-free ordering."""
    if alpha.has_products():
        raise QueryError("precedence relation is defined for product-free orderings")
    outputs = sorted(h.vertices - alpha.attrs())
    # Extended ordering: outputs first with a null operator, then alpha.
    extended: list[tuple[str, Optional[str]]] = [(a, None) for a in outputs]
    extended += [(a, op) for a, op in alpha.items]
    pos = {a: i for i, (a, _) in enumerate(extended)}
    op_of = dict(extended)
    share_edge = {
        frozenset((x, y))
        for e in h.edges
        for x in e.attrs
        for y in e.attrs
        if x != y
    }

    dnc: set[frozenset[str]] = set()
    prec: set[tuple[str, str]] = set()

    def note(a: str, b: str) -> bool:
        pair = frozenset((a, b))
        if pair in dnc:
            return False
        dnc.add(pair)
        first, second = (a, b) if pos[a] < pos[b] else (b, a)
        prec.add((first, second))
        return True

    attrs = [a for a, _ in extended]
    for x in attrs:
        for y in attrs:
            if pos[x] >= pos[y] or op_of[x] == op_of[y]:
                continue
            if frozenset((x, y)) in share_edge or op_of[x] is None or op_of[y] is None:
                note(x, y)

    successors: dict[str, set[str]] = {a: set() for a in attrs}
    for x, y in prec:
        successors[x].add(y)

    bound = 2 * len(extended) ** 2 + 1
    rounds = 0
    changed = True
    while changed:
        rounds += 1
        if rounds > bound:
            raise InternalError("precedence fixed point exceeded its iteration bound")
        changed = False
        fresh: list[tuple[str, str]] = []
        for a in attrs:
            for b in attrs:
                if a == b or frozenset((a, b)) in dnc:
                    continue
                # extension: PREC(x, c) with y, c sharing an edge, {x, y} = {a, b}
                if op_of[a] != op_of[b] and any(
                    frozenset((y, c)) in share_edge
                    for x, y in ((a, b), (b, a))
                    for c in successors[x]
                    if c != y
                ):
                    fresh.append((a, b))
                    continue
                # transitivity through any c
                if any(b in successors[c] for c in successors[a]) or any(
                    a in successors[c] for c in successors[b]
                ):
                    fresh.append((a, b))
        for a, b in fresh:
            if note(a, b):
                first, second = (a, b) if pos[a] < pos[b] else (b, a)
                successors[first].add(second)
                changed = True

    agg = alpha.attrs()
    return PrecedenceRelation(
        prec=frozenset((x, y) for x, y in prec if x in agg and y in agg),
        dnc=frozenset(p for p in dnc if p <= agg),
        outputs=frozenset(outputs),
        aggregated=agg,
    )


def linear_extensions(
    prec: PrecedenceRelation,
    alpha: AggregationOrdering,
    cap: int = 10_000,
) -> Iterator[AggregationOrdering]:
    """All orderings over V(alpha) extending prec, lazily, operators copied.

    Raises ExtensionOverflow after yielding cap extensions if more remain.
    """
    items = list(alpha.items)
    preds = prec.predecessors_in(a for a, _ in items)
    yielded = 0

    def backtrack(chosen: list[tuple[str, str]], remaining: list[tuple[str, str]]):
        nonlocal yielded
        if not remaining:
            yielded += 1
            if yielded > cap:
                raise ExtensionOverflow(cap)
            yield AggregationOrdering(tuple(chosen))
            return
        placed = {a for a, _ in chosen}
        for idx, item in enumerate(remaining):
            if preds[item[0]] <= placed:
                chosen.append(item)
                yield from backtrack(chosen, remaining[:idx] + remaining[idx + 1 :])
                chosen.pop()

    return backtrack([], items)
