"""End-to-end planning: characteristic hypergraphs to a minimum-width valid
plan, execution dispatch, and the transitive-closure extension."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .errors import InternalError, QueryError
from .execution import ExecStats, aggro_ghd_join, execute_aghd
from .ghd import (
    Aghd,
    Ghd,
    WidthReport,
    aghd_from_stitched,
    characteristic_tree,
    cost_edges_for,
    is_compatible,
    is_valid,
    optimal_ghd,
    stitch_tree,
    top_sets,
    width,
)
from .hypergraph import Hypergraph
from .ordering import (
    AggregationOrdering,
    compute_prec,
    test_equivalence,
    test_equivalence_product,
)
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
    g, tops = top_sets(tree)
    pending = list(alpha.attr_list())
    ordered: list[tuple[str, str]] = []
    while pending:
        chosen = None
        for a in pending:  # alpha order is the tie-break
            blocked = any(
                b != a
                and any(
                    g.is_strict_ancestor(tb, ta) for tb in tops[b] for ta in tops[a]
                )
                for b in pending
            )
            if not blocked:
                chosen = a
                break
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
    cap: int = 12,
) -> Plan:
    """Optimal GHD per characteristic hypergraph, stitched, with a derived
    compatible ordering."""
    for attr in alpha.attrs():
        if attr not in h.vertices:
            raise QueryError(f"ordering attribute {attr!r} not in the query body")
    products = alpha.has_products()
    prepass: list[tuple[str, str]] = []
    if products:
        h, alpha, prepass = _trailing_product_prepass(h, alpha)
        products = alpha.has_products()

    tree = characteristic_tree(h, alpha, products=products)
    parts = tree.flatten()
    # bags are priced against the real relations, never interface edges
    cost = cost_edges_for(h, sizes, mode)
    part_ghds = [
        optimal_ghd(part.hypergraph, sizes=None, mode=mode, cap=cap, cost_edges=cost)
        for part in parts
    ]
    decomposition: Ghd | Aghd = stitch_tree(tree, part_ghds)
    if products:
        decomposition = aghd_from_stitched(h, alpha, decomposition)
    beta = _compatible_ordering(decomposition, alpha)
    equivalent = test_equivalence_product if products else test_equivalence
    if not equivalent(h, alpha, beta):
        raise InternalError("derived ordering is not equivalent to the query's")
    if not is_compatible(decomposition, beta):
        raise InternalError("stitched decomposition incompatible with derived ordering")
    if not products and not is_valid(h, compute_prec(h, alpha), decomposition):
        raise InternalError("stitched GHD is not valid")
    if products:
        report = width(decomposition.tree, decomposition.hypergraph_p, sizes, mode)
    else:
        report = width(decomposition, h, sizes, mode)
    part_widths = _regroup_part_widths(part_ghds, report)
    return Plan(h, alpha, decomposition, beta, report, [p.hypergraph for p in parts], part_widths, prepass)


def _regroup_part_widths(part_ghds: list[Ghd], report: WidthReport) -> list[Any]:
    """Per-part widths read off the stitched report, whose bags come part by
    part in part order, so no bag's cover LP is solved twice."""
    values = iter(report.per_bag.values())
    return [max(itertools.islice(values, len(g.chi))) for g in part_ghds]


def run(
    query_plan: Plan,
    relations: Mapping[str, AnnotatedRelation],
    domains: Optional[DomainRegistry],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Execute a plan; result equals the naive evaluation."""
    working = dict(relations)
    scalars: list[AnnotatedRelation] = []
    for edge_name, attr in query_plan.prepass:
        if domains is None:
            raise QueryError("product aggregation needs attribute domains")
        working[edge_name] = product_aggregate(
            working[edge_name], attr, domains, semiring
        )
    for e in query_plan.hypergraph.edges:
        rel = working[e.name]
        if frozenset(rel.schema) != e.attrs:
            raise QueryError(
                f"relation {e.name!r} has schema {rel.schema}, expected {sorted(e.attrs)}"
            )
    live = {e.name for e in query_plan.hypergraph.edges}
    for name in sorted(working):
        if name in live:
            continue
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
        result = join([result, scalar], semiring)
    return result


def closure_chain_ghd(k: int) -> Ghd:
    """Chain GHD for the k-step reachability query: bag i holds
    A_i, A_(i+1), A_(k+1)."""
    last = f"A{k + 1}"
    bags = [(f"A{i}", f"A{i + 1}", last) for i in range(1, k + 1)]
    return Ghd.chain([frozenset(b) for b in bags])


def _k_step_query(
    k: int, op: str
) -> tuple[Hypergraph, AggregationOrdering]:
    edges = [(f"R{i}", (f"A{i}", f"A{i + 1}")) for i in range(1, k + 1)]
    h = Hypergraph.build(edges)
    alpha = AggregationOrdering(tuple((f"A{i}", op) for i in range(2, k + 1)))
    return h, alpha


def transitive_closure(
    rel: AnnotatedRelation,
    semiring: SemiringSpec,
    max_iters: int = 32,
    op: Optional[str] = None,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Doubling fixpoint: evaluate the 2^n-step query until it stabilizes.

    Every node needs a self-loop annotated with the semiring's one, so that
    2^n steps cover every shorter walk; a node without one is a QueryError.
    A fixpoint also needs no improving cycle (for min-plus: no negative
    cycle).  Walks of at most |V| - 1 steps are then all covered after
    ceil(log2 |V|) rounds and confirmed by one more, so the rounds stop at
    that budget (or max_iters, if smaller) with a QueryError.
    """
    if len(rel.schema) != 2:
        raise QueryError("transitive closure needs a binary relation")
    if op is None:
        if len(semiring.additive_ops) != 1:
            raise QueryError("specify which additive operator to close over")
        (op,) = semiring.additive_ops
    nodes = {v for row in rel.tuples for v in row}
    loopless = [v for v in nodes if rel.tuples.get((v, v)) != semiring.one]
    if loopless:
        first = min(loopless, key=lambda v: (isinstance(v, str), v))
        raise QueryError(
            f"node {first!r} needs a self-loop annotated {semiring.one!r} "
            f"for transitive closure"
        )
    rounds = min(max_iters, (max(len(nodes), 2) - 1).bit_length() + 1)
    src, dst = rel.schema
    base = AnnotatedRelation.empty(("A1", "A2"))
    base.tuples = dict(rel.tuples)
    previous = rel
    k = 2
    for _ in range(rounds):
        h, alpha = _k_step_query(k, op)
        copies = {
            f"R{i}": base.rename({"A1": f"A{i}", "A2": f"A{i + 1}"})
            for i in range(1, k + 1)
        }
        ghd = closure_chain_ghd(k)
        raw = aggro_ghd_join(h, ghd, alpha, copies, semiring, None, stats)
        raw = raw.reorder(("A1", f"A{k + 1}"))
        result = AnnotatedRelation.empty((src, dst))
        result.tuples = dict(raw.tuples)
        if result == previous:
            return result
        previous = result
        k *= 2
    raise QueryError(f"no transitive-closure fixpoint within {rounds} doublings")
