"""End-to-end planning: characteristic hypergraphs to a minimum-width valid
plan, its execution, and transitive closure as a planned query run once per
round."""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Optional

from .errors import InternalError, QueryError
from .execution import ExecStats, aggro_ghd_join, counted_semiring
from .ghd import (
    Ghd,
    WidthReport,
    characteristic_tree,
    contract_redundant,
    cost_edges_for,
    is_compatible,
    is_valid,
    optimal_ghd,
    split_products,
    stitch_tree,
    top_map,
    tops_above,
    width,
)
from .hypergraph import Hypergraph
from .ordering import AggregationOrdering, compute_prec, test_equivalence
from .relations import (
    AnnotatedRelation,
    DomainRegistry,
    join,
    product_aggregate,
)
from .semirings import PRODUCT, SemiringSpec


class Plan:
    """A stitched GHD with a compatible equivalent ordering.  The product
    attributes left after the pre-pass are split into copies
    (``split_products``); alpha and beta keep the query's attributes."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        alpha: AggregationOrdering,
        ghd: Ghd,
        beta: AggregationOrdering,
        width_report: WidthReport,
        part_hypergraphs: list[Hypergraph],
        part_widths: list[Fraction],
        prepass: list[tuple[str, str]],
        copies: dict[str, str],
    ):
        self.hypergraph = hypergraph  # post-prepass query body, over the copies
        self.alpha = alpha  # post-prepass ordering
        self.ghd = ghd  # over the copies
        self.beta = beta  # compatible ordering, original attribute names
        self.width_report = width_report
        self.part_hypergraphs = part_hypergraphs
        self.part_widths = part_widths
        self.prepass = prepass  # (edge, attr)
        self.copies = copies  # copy -> attribute

    @property
    def width(self):
        return self.width_report.width

    def to_dict(self) -> dict:
        # data-mode widths print as floats, unit-mode ones as exact numbers
        number = float if self.width_report.mode == "data" else _as_jsonable
        nodes = [
            {
                "id": t,
                "parent": self.ghd.parent[t],
                "bag": sorted(self.ghd.chi[t]),
                "width": number(self.width_report.per_bag[t]),
            }
            for t in self.ghd.nodes()
        ]
        out = {
            "width": number(self.width),
            "mode": self.width_report.mode,
            "nodes": nodes,
            "ordering": [[a, op] for a, op in self.beta.items],
            "part_widths": [number(w) for w in self.part_widths],
            "prepass": [[e, a] for e, a in self.prepass],
        }
        if self.copies:
            # per attribute, the atoms holding each of its copies, in region order
            partition: dict[str, list[list[str]]] = {}
            for copy, attr in self.copies.items():
                holders = sorted(e.name for e in self.hypergraph.edges if copy in e.attrs)
                partition.setdefault(attr, []).append(holders)
            out["product_partition"] = partition
        return out


def _as_jsonable(value: Fraction) -> int | float:
    return float(value) if value.denominator != 1 else int(value)


def _trailing_product_prepass(
    h: Hypergraph, alpha: AggregationOrdering
) -> tuple[Hypergraph, AggregationOrdering, list[tuple[str, str]]]:
    """Push product aggregations that come last for a relation into it.

    A product aggregation that is innermost among a relation's aggregated
    attributes distributes onto that relation alone, so it runs before
    planning and the edge shrinks.
    """
    steps: list[tuple[str, str]] = []
    edges = {e.name: set(e.attrs) for e in h.edges}
    changed = True
    while changed:
        changed = False
        for name in sorted(edges):
            local = alpha.restrict(edges[name])
            if local and local[-1][1] == PRODUCT:
                attr = local[-1][0]
                steps.append((name, attr))
                edges[name].discard(attr)
                changed = True
    surviving = set().union(*edges.values()) if edges else set()
    alpha2 = alpha.restrict(surviving | (h.vertices - alpha.attrs()))
    new_edges = [(name, attrs) for name, attrs in sorted(edges.items()) if attrs]
    return Hypergraph.build(new_edges), alpha2, steps


def _compatible_ordering(
    tree: Ghd, alpha: AggregationOrdering, copies: Mapping[str, str]
) -> AggregationOrdering:
    """Topological order of TOP nodes, ties broken by alpha's order.  Each
    copy of a product attribute has its own TOP node and counts under its
    attribute's name."""
    above: set[tuple[str, str]] = set()
    for a, b in tops_above(tree):
        a, b = copies.get(a, a), copies.get(b, b)
        if a != b:
            above.add((a, b))
    pending = list(alpha.attr_list())
    ordered: list[tuple[str, str]] = []
    while pending:
        chosen = next(
            (a for a in pending if not any((b, a) in above for b in pending)), None
        )
        if chosen is None:
            raise InternalError("cyclic TOP-node order; decomposition is broken")
        pending.remove(chosen)
        ordered.append((chosen, alpha.operator(chosen)))
    return AggregationOrdering(tuple(ordered))


def _expand_copies(
    beta: AggregationOrdering, tree: Ghd, copies: Mapping[str, str]
) -> AggregationOrdering:
    """beta over the copies: each split attribute gives way to its copies,
    the shallowest TOP node first (ties by name)."""
    if not copies:
        return beta
    tops = top_map(tree)
    depth = tree.depths()
    ranked = sorted(copies, key=lambda c: (depth[tops[c]], c))
    items: list[tuple[str, str]] = []
    for attr, op in beta.items:
        mine = [c for c in ranked if copies[c] == attr] or [attr]
        items.extend((c, op) for c in mine)
    return AggregationOrdering(tuple(items))


def plan(
    h: Hypergraph,
    alpha: AggregationOrdering,
    sizes: Optional[dict[str, int]] = None,
) -> Plan:
    """Optimal GHD per characteristic hypergraph, stitched, its product
    attributes split into copies (``split_products``), contracted, with a
    derived compatible ordering.  Bags cost 1 per edge without sizes (unit
    mode), log_IN of each edge's size with them (data mode)."""
    for attr in alpha.attrs():
        if attr not in h.vertices:
            raise QueryError(f"ordering attribute {attr!r} not in the query body")
    prepass: list[tuple[str, str]] = []
    if alpha.has_products():
        h, alpha, prepass = _trailing_product_prepass(h, alpha)

    tree = characteristic_tree(h, alpha)
    parts = tree.flatten()
    # bags are priced against the real relations, never interface edges
    cost = cost_edges_for(h, sizes)
    part_ghds = [optimal_ghd(part.hypergraph, cost) for part in parts]
    stitched = stitch_tree(tree, part_ghds)
    split, body, copies = split_products(h, alpha, stitched)
    # every split bag priced once; each kept bag carries its entry
    split_report = width(split, body, sizes)
    part_widths = _regroup_part_widths(part_ghds, split_report)
    decomposition = _contract(split, bool(copies))
    by_bag = {split.chi[t]: w for t, w in split_report.per_bag.items()}
    own = {t: by_bag[bag] for t, bag in decomposition.chi.items()}
    report = WidthReport(split_report.mode, own)

    beta = _compatible_ordering(decomposition, alpha, copies)
    if not test_equivalence(h, alpha, beta):
        raise InternalError("derived ordering is not equivalent to the query's")
    if not is_compatible(decomposition, _expand_copies(beta, decomposition, copies)):
        raise InternalError("stitched decomposition incompatible with derived ordering")
    if not copies and not is_valid(compute_prec(h, alpha), decomposition):
        raise InternalError("stitched GHD is not valid")
    part_hypergraphs = [p.hypergraph for p in parts]
    return Plan(body, alpha, decomposition, beta, report, part_hypergraphs, part_widths, prepass, copies)


def _contract(g: Ghd, products: bool) -> Ghd:
    """Fold away stitched bags that repeat a neighbour's attributes.

    Product-free, a child inside its parent folds into it and a parent inside
    its only child folds into that child.  Merging adjacent nodes keeps edge
    cover, running intersection and the width, and only removes
    strict-ancestor pairs of TOP nodes, so validity and compatibility hold.
    An empty root left with several children (no outputs) passes the root to
    its first child; the others share no attribute with it and hang below.
    With products g is already split into copies, and sibling parts can hold
    copies of one product attribute; hanging one below another would order
    the TOP nodes of those copies, so with products only a lone child
    replaces an empty root and nothing else folds."""
    if not products:
        g = contract_redundant(g, lone_child_only=True)
    kids = g.children_map()[g.root]
    if g.chi[g.root] or not kids or (products and len(kids) > 1):
        return g
    root, *others = kids
    parent = {t: p for t, p in g.parent.items() if t != g.root}
    parent[root] = None
    parent.update((c, root) for c in others)
    return Ghd(root, parent, {t: bag for t, bag in g.chi.items() if t != g.root})


def _regroup_part_widths(part_ghds: list[Ghd], report: WidthReport) -> list[Fraction]:
    """Per-part widths read off the report of the stitched bags, before
    contraction, so no cover LP is solved twice.  Stitching numbers the bags
    part by part in part order."""
    widths, start = [], 0
    for g in part_ghds:
        end = start + len(g.chi)
        own = {t: w for t, w in report.per_bag.items() if start <= t < end}
        widths.append(WidthReport(report.mode, own).width)
        start = end
    return widths


def run(
    query_plan: Plan,
    relations: Mapping[str, AnnotatedRelation],
    domains: Optional[DomainRegistry],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Execute a plan; result equals the naive evaluation.  Each relation's
    product attributes are renamed to the copies its atom holds."""
    live = {e.name for e in query_plan.hypergraph.edges}
    collapsed = {edge for edge, _ in query_plan.prepass} - live
    for name in sorted(live | collapsed):
        if name not in relations:
            raise QueryError(f"no relation given for atom {name!r}")
    copies = query_plan.copies
    if domains is None and (query_plan.prepass or copies):
        raise QueryError("product aggregation needs attribute domains")
    counted = counted_semiring(semiring, stats)
    working = dict(relations)
    for edge_name, attr in query_plan.prepass:
        working[edge_name] = product_aggregate(working[edge_name], attr, domains, counted)
    for e in query_plan.hypergraph.edges:
        rel = working[e.name]
        to_copy = {copies.get(a, a): a for a in e.attrs}  # attribute -> its copy here
        if frozenset(rel.schema) != to_copy.keys():
            raise QueryError(
                f"relation {e.name!r} has schema {rel.schema}, expected {sorted(to_copy)}"
            )
        if copies:
            working[e.name] = rel.rename(to_copy)
    scalars: list[AnnotatedRelation] = []
    for name in sorted(collapsed):
        # relation fully collapsed by the pre-pass: joins in as a scalar
        if working[name].schema:
            raise InternalError(f"dropped edge {name!r} still has attributes")
        scalars.append(working[name])

    if copies:
        domains = domains.with_copies(copies)
    result = aggro_ghd_join(
        query_plan.hypergraph,
        query_plan.ghd,
        _expand_copies(query_plan.beta, query_plan.ghd, copies),
        working,
        semiring,
        domains,
        stats,
    )
    for scalar in scalars:
        result = join([result, scalar], counted)
    return result


def _off_diagonal(rel: AnnotatedRelation, nodes: set, one) -> Any:
    """The node an error names: the least (ints before strings) whose
    diagonal entry in rel is not one, or None."""
    bad = [v for v in nodes if rel.tuples.get((v, v)) != one]
    return min(bad, key=lambda v: (isinstance(v, str), v)) if bad else None


def transitive_closure(
    rel: AnnotatedRelation,
    semiring: SemiringSpec,
    max_iters: int = 32,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Closure by repeated squaring: plan Q(X,Y) = op[M] L(X,M), L(M,Y) once
    and run it on each round's result, starting from rel.

    op is the semiring's one additive operator; a semiring with several is a
    QueryError naming them.  Every node needs a self-loop annotated with the
    semiring's one, so rel already holds the identity and round n covers
    every walk of at most 2^n steps; a node without one is a QueryError.  A
    diagonal entry other than one is an improving cycle through that node
    (for min-plus: a negative cycle), so no fixpoint exists and that is a
    QueryError naming the node.
    Otherwise walks of at most |V| - 1 steps are all covered after
    ceil(log2 |V|) rounds and confirmed by one more, so the rounds stop at
    that budget (or max_iters, if smaller) with a QueryError.
    """
    if len(rel.schema) != 2:
        raise QueryError("transitive closure needs a binary relation")
    if len(semiring.additive_ops) != 1:
        raise QueryError(
            "transitive closure needs a semiring with one additive operator; "
            f"{semiring.name!r} has {', '.join(sorted(semiring.additive_ops))}"
        )
    (op,) = semiring.additive_ops
    nodes = {v for row in rel.tuples for v in row}
    v = _off_diagonal(rel, nodes, semiring.one)
    if v is not None:
        raise QueryError(
            f"node {v!r} needs a self-loop annotated {semiring.one!r} for transitive closure"
        )
    rounds = min(max_iters, (max(len(nodes), 2) - 1).bit_length() + 1)
    square = plan(
        Hypergraph.build([("L1", ("X", "M")), ("L2", ("M", "Y"))]),
        AggregationOrdering.of(("M", op)),
    )
    src, dst = rel.schema
    current = rel.rename({src: "X", dst: "Y"})
    for _ in range(rounds):
        halves = {"L1": current.rename({"Y": "M"}), "L2": current.rename({"X": "M"})}
        squared = run(square, halves, None, semiring, stats)
        v = _off_diagonal(squared, nodes, semiring.one)
        if v is not None:
            raise QueryError(
                f"no transitive-closure fixpoint within {rounds} doublings: "
                f"node {v!r} lies on an improving cycle"
            )
        if squared == current:
            return squared.reorder(("X", "Y")).rename({"X": src, "Y": dst})
        current = squared
    raise QueryError(f"no transitive-closure fixpoint within {rounds} doublings")
