"""End-to-end planning: characteristic hypergraphs to a minimum-width valid
plan, its execution, and transitive closure as a planned query run once per
round."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .errors import InternalError, QueryError
from .execution import ExecStats, aggro_ghd_join, counted_semiring, execute_aghd
from .ghd import (
    Aghd,
    Ghd,
    WidthReport,
    aghd_from_stitched,
    characteristic_tree,
    contract_redundant,
    cost_edges_for,
    is_compatible,
    is_valid,
    optimal_ghd,
    stitch_tree,
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


@dataclass
class Plan:
    """A stitched decomposition with a compatible equivalent ordering."""

    hypergraph: Hypergraph  # post-prepass query body
    alpha: AggregationOrdering  # post-prepass ordering
    ghd: Ghd | Aghd
    beta: AggregationOrdering  # compatible ordering, original attribute names
    width_report: WidthReport
    part_hypergraphs: list[Hypergraph]
    part_widths: list[Any]
    prepass: list[tuple[str, str]] = field(default_factory=list)  # (edge, attr)

    @property
    def width(self):
        return self.width_report.width

    def to_dict(self) -> dict:
        tree = self.ghd.tree if isinstance(self.ghd, Aghd) else self.ghd
        nodes = [
            {
                "id": t,
                "parent": tree.parent[t],
                "bag": sorted(tree.chi[t]),
                "width": _as_jsonable(self.width_report.per_bag[t]),
            }
            for t in tree.nodes()
        ]
        out = {
            "width": _as_jsonable(self.width),
            "mode": self.width_report.mode,
            "nodes": nodes,
            "ordering": [[a, op] for a, op in self.beta.items],
            "part_widths": [_as_jsonable(w) for w in self.part_widths],
            "prepass": [[e, a] for e, a in self.prepass],
        }
        if isinstance(self.ghd, Aghd):
            out["product_partition"] = {
                attr: [sorted(block) for block in blocks]
                for attr, blocks in self.ghd.partition.blocks.items()
            }
        return out


def _as_jsonable(value):
    from fractions import Fraction

    if isinstance(value, Fraction):
        return float(value) if value.denominator != 1 else int(value)
    return value


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
    tree: Ghd | Aghd, alpha: AggregationOrdering
) -> AggregationOrdering:
    """Topological order of TOP nodes, ties broken by alpha's order."""
    above = tops_above(tree)
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


def plan(
    h: Hypergraph,
    alpha: AggregationOrdering,
    sizes: Optional[dict[str, int]] = None,
    mode: str = "unit",
) -> Plan:
    """Optimal GHD per characteristic hypergraph, stitched, with a derived
    compatible ordering."""
    for attr in alpha.attrs():
        if attr not in h.vertices:
            raise QueryError(f"ordering attribute {attr!r} not in the query body")
    prepass: list[tuple[str, str]] = []
    if alpha.has_products():
        h, alpha, prepass = _trailing_product_prepass(h, alpha)
    products = alpha.has_products()

    tree = characteristic_tree(h, alpha)
    parts = tree.flatten()
    # bags are priced against the real relations, never interface edges
    cost = cost_edges_for(h, sizes, mode)
    part_ghds = [
        optimal_ghd(part.hypergraph, sizes=None, mode=mode, cost_edges=cost)
        for part in parts
    ]
    stitched = stitch_tree(tree, part_ghds)
    decomposition: Ghd | Aghd = _contract(stitched, products)
    if products:
        decomposition = aghd_from_stitched(h, alpha, decomposition)
    beta = _compatible_ordering(decomposition, alpha)
    if not test_equivalence(h, alpha, beta):
        raise InternalError("derived ordering is not equivalent to the query's")
    if not is_compatible(decomposition, beta):
        raise InternalError("stitched decomposition incompatible with derived ordering")
    if not products and not is_valid(compute_prec(h, alpha), decomposition):
        raise InternalError("stitched GHD is not valid")
    if products:
        report = width(decomposition.tree, decomposition.hypergraph_p, sizes, mode)
        part_widths = _regroup_part_widths(part_ghds, report)
    else:
        # every stitched bag priced once; each kept bag carries its entry
        stitched_report = width(stitched, h, sizes, mode)
        part_widths = _regroup_part_widths(part_ghds, stitched_report)
        by_bag = {stitched.chi[t]: w for t, w in stitched_report.per_bag.items()}
        report = WidthReport.collect(
            mode, {t: by_bag[bag] for t, bag in decomposition.chi.items()}
        )
    return Plan(h, alpha, decomposition, beta, report, [p.hypergraph for p in parts], part_widths, prepass)


def _contract(g: Ghd, products: bool) -> Ghd:
    """Fold away stitched bags that repeat a neighbour's attributes.

    Product-free, a child inside its parent folds into it and a parent inside
    its only child folds into that child.  Merging adjacent nodes keeps edge
    cover, running intersection and the width, and only removes
    strict-ancestor pairs of TOP nodes, so validity and compatibility hold.
    An empty root left with several children (no outputs) passes the root to
    its first child; the others share no attribute with it and hang below.
    Product parts can share a product attribute, and hanging one below
    another would order the TOP nodes of its copies, so with products only a
    lone child replaces an empty root and nothing else folds."""
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


def _regroup_part_widths(part_ghds: list[Ghd], report: WidthReport) -> list[Any]:
    """Per-part widths read off the stitched bags' report, so no cover LP is
    solved twice.  Stitching numbers the bags part by part in part order; an
    empty root dropped from a product plan leaves its part width zero."""
    widths, start = [], 0
    for g in part_ghds:
        end = start + len(g.chi)
        own = {t: w for t, w in report.per_bag.items() if start <= t < end}
        widths.append(WidthReport.collect(report.mode, own).width)
        start = end
    return widths


def run(
    query_plan: Plan,
    relations: Mapping[str, AnnotatedRelation],
    domains: Optional[DomainRegistry],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Execute a plan; result equals the naive evaluation."""
    counted = counted_semiring(semiring, stats)
    working = dict(relations)
    scalars: list[AnnotatedRelation] = []
    for edge_name, attr in query_plan.prepass:
        if domains is None:
            raise QueryError("product aggregation needs attribute domains")
        working[edge_name] = product_aggregate(
            working[edge_name], attr, domains, counted
        )
    for e in query_plan.hypergraph.edges:
        rel = working[e.name]
        if frozenset(rel.schema) != e.attrs:
            raise QueryError(
                f"relation {e.name!r} has schema {rel.schema}, expected {sorted(e.attrs)}"
            )
    live = {e.name for e in query_plan.hypergraph.edges}
    for name in sorted({edge for edge, _ in query_plan.prepass} - live):
        # relation fully collapsed by the pre-pass: joins in as a scalar
        if working[name].schema:
            raise InternalError(f"dropped edge {name!r} still has attributes")
        scalars.append(working[name])

    if isinstance(query_plan.ghd, Aghd):
        if domains is None:
            raise QueryError("product aggregation needs attribute domains")
        result = execute_aghd(
            query_plan.hypergraph,
            query_plan.ghd,
            query_plan.beta,
            working,
            domains,
            semiring,
            stats,
        )
    else:
        result = aggro_ghd_join(
            query_plan.hypergraph,
            query_plan.ghd,
            query_plan.beta,
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
