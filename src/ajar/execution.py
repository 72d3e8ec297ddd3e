"""Query execution: within-bag worst-case-optimal joins, the Yannakakis
passes over join trees, and the combined GHD pipelines.

Annotations are multiplied exactly once per output tuple: a relation enters
with its true annotations only at the topmost bag containing all of its
attributes; every other bag sees a projection with annotations replaced by
the semiring one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import InternalError, QueryError
from .ghd import Aghd, Ghd, is_compatible, top_map
from .hypergraph import Hypergraph
from .ordering import AggregationOrdering
from .relations import (
    AnnotatedRelation,
    DomainRegistry,
    aggregate,
    join,
    product_aggregate,
    project_ones,
    semijoin,
)
from .semirings import PRODUCT, SemiringSpec


@dataclass
class ExecStats:
    """Instrumented tuple counters, exported as JSON by the CLI."""

    bag_input_tuples: dict[str, int] = field(default_factory=dict)
    bag_output_tuples: dict[str, int] = field(default_factory=dict)
    semijoin_removed: int = 0
    multiplications: int = 0
    intermediate_tuples: int = 0

    def record_bag(self, label: str, inputs: int, outputs: int) -> None:
        self.bag_input_tuples[label] = inputs
        self.bag_output_tuples[label] = outputs
        self.intermediate_tuples += outputs

    def record_join(self, produced: int) -> None:
        self.intermediate_tuples += produced

    def to_dict(self) -> dict:
        return {
            "bag_input_tuples": dict(self.bag_input_tuples),
            "bag_output_tuples": dict(self.bag_output_tuples),
            "semijoin_removed": self.semijoin_removed,
            "annotation_multiplications": self.multiplications,
            "intermediate_tuples": self.intermediate_tuples,
        }


def _counted_multiply(semiring: SemiringSpec, stats: Optional[ExecStats]):
    if stats is None:
        return semiring.multiply
    base = semiring.multiply

    def mul(a, b):
        stats.multiplications += 1
        return base(a, b)

    return mul


def generic_join(
    h: Hypergraph,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Worst-case-optimal join: attribute-at-a-time expansion with candidate
    intersection, smallest candidate set first."""
    rels = []
    for e in h.edges:
        rel = relations[e.name]
        if frozenset(rel.schema) != e.attrs:
            raise QueryError(
                f"relation {e.name!r} has schema {rel.schema}, edge wants {sorted(e.attrs)}"
            )
        rels.append(rel)
    mul = _counted_multiply(semiring, stats)

    if not rels:
        return AnnotatedRelation((), {(): semiring.one})
    if any(not rel.tuples for rel in rels):
        return AnnotatedRelation.empty(tuple(sorted(h.vertices)))

    # Global attribute order: cheapest candidate sets first.
    def candidate_estimate(attr: str) -> int:
        return min(len(rel.distinct(attr)) for rel in rels if attr in rel.schema)

    order = sorted(h.vertices, key=lambda a: (candidate_estimate(a), a))

    tries = []
    for rel in rels:
        # edges are never empty and each schema matches its edge, so every
        # relation has at least one level
        levels = [a for a in order if a in rel.schema]
        root: dict = {}
        *inner, last = [rel.schema.index(a) for a in levels]
        for row, lam in rel.tuples.items():
            node = root
            for i in inner:
                node = node.setdefault(row[i], {})
            node[row[last]] = lam
        tries.append((levels, root))

    out = AnnotatedRelation.empty(tuple(order))
    store = out.tuples
    one = semiring.one
    zero = semiring.zero
    assignment: list = []

    def recurse(level: int, nodes: list) -> None:
        if level == len(order):
            annotation = one
            for node in nodes:
                if not isinstance(node, dict):
                    annotation = mul(annotation, node)
            if annotation != zero:
                store[tuple(assignment)] = annotation
            return
        attr = order[level]
        active = {i for i, (levels, _) in enumerate(tries) if attr in levels}
        if not active:
            return  # attribute uncovered: some relation was empty
        smallest = min(active, key=lambda i: len(nodes[i]))
        for value in nodes[smallest]:
            if all(value in nodes[i] for i in active if i != smallest):
                assignment.append(value)
                recurse(
                    level + 1,
                    [nodes[i][value] if i in active else nodes[i] for i in range(len(nodes))],
                )
                assignment.pop()

    recurse(0, [root for _, root in tries])
    return out


@dataclass
class JoinTree:
    """Rooted tree whose nodes carry intermediate relations."""

    root: int
    parent: dict[int, Optional[int]]
    relations: dict[int, AnnotatedRelation]

    def children_map(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {t: [] for t in self.parent}
        for t, p in self.parent.items():
            if p is not None:
                kids[p].append(t)
        for lst in kids.values():
            lst.sort()
        return kids

    def preorder(self) -> list[int]:
        kids = self.children_map()
        out, stack = [], [self.root]
        while stack:
            t = stack.pop()
            out.append(t)
            stack.extend(reversed(kids[t]))
        return out

    def postorder(self) -> list[int]:
        return list(reversed(self.preorder()))

    def depths(self) -> dict[int, int]:
        depth = {self.root: 0}
        for t in self.preorder()[1:]:
            depth[t] = depth[self.parent[t]] + 1
        return depth

    def is_join_tree(self) -> bool:
        """Connected-subtree property over the node schemas."""
        kids = self.children_map()
        attrs = {a for rel in self.relations.values() for a in rel.schema}
        for attr in attrs:
            holders = {t for t, rel in self.relations.items() if attr in rel.schema}
            start = next(iter(holders))
            seen, stack = {start}, [start]
            while stack:
                t = stack.pop()
                for nxt in kids[t] + ([self.parent[t]] if self.parent[t] is not None else []):
                    if nxt in holders and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if seen != holders:
                return False
        return True

    def top_of(self) -> dict[str, int]:
        depth = self.depths()
        tops: dict[str, int] = {}
        for attr in {a for rel in self.relations.values() for a in rel.schema}:
            holders = [t for t, rel in self.relations.items() if attr in rel.schema]
            tops[attr] = min(holders, key=lambda t: (depth[t], t))
        return tops


def _semijoin_passes(tree: JoinTree, work: dict[int, AnnotatedRelation], stats) -> None:
    for t in tree.postorder():
        p = tree.parent[t]
        if p is None:
            continue
        before = len(work[p])
        work[p] = semijoin(work[p], work[t])
        if stats:
            stats.semijoin_removed += before - len(work[p])
    for t in tree.preorder():
        p = tree.parent[t]
        if p is None:
            continue
        before = len(work[t])
        work[t] = semijoin(work[t], work[p])
        if stats:
            stats.semijoin_removed += before - len(work[t])


def yannakakis(
    tree: JoinTree, semiring: SemiringSpec, stats: Optional[ExecStats] = None
) -> AnnotatedRelation:
    """Semijoin reduce up, then down, then join bottom-up; equals the full join."""
    if not tree.is_join_tree():
        raise QueryError("node schemas violate the join-tree property")
    work = dict(tree.relations)
    _semijoin_passes(tree, work, stats)
    for t in tree.postorder():
        p = tree.parent[t]
        if p is None:
            continue
        work[p] = join([work[p], work[t]], semiring)
        if stats:
            stats.record_join(len(work[p]))
    return work[tree.root]


def _fold_ordering(
    rel: AnnotatedRelation,
    beta: AggregationOrdering,
    semiring: SemiringSpec,
    domains: Optional[DomainRegistry],
) -> AnnotatedRelation:
    """Apply Σ_beta, innermost (last) aggregation first."""
    for attr, op in reversed(beta.items):
        if op == PRODUCT:
            if domains is None:
                raise QueryError("product aggregation needs attribute domains")
            rel = product_aggregate(rel, attr, domains, semiring)
        else:
            rel = aggregate(rel, attr, op, semiring)
    return rel


def aggro_yannakakis(
    tree: JoinTree,
    alpha: AggregationOrdering,
    semiring: SemiringSpec,
    domains: Optional[DomainRegistry] = None,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Yannakakis with aggregations pushed to each attribute's top node."""
    if not tree.is_join_tree():
        raise QueryError("node schemas violate the join-tree property")
    tops = tree.top_of()
    work = dict(tree.relations)
    _semijoin_passes(tree, work, stats)
    result: Optional[AnnotatedRelation] = None
    for t in tree.postorder():
        mine = {a for a, node in tops.items() if node == t}
        folded = _fold_ordering(work[t], alpha.restrict(mine), semiring, domains)
        p = tree.parent[t]
        if p is None:
            result = folded
        else:
            work[p] = join([work[p], folded], semiring)
            if stats:
                stats.record_join(len(work[p]))
    if result is None:
        raise InternalError("join tree had no root")
    return result


def _bag_join_tree(
    h: Hypergraph,
    g: Ghd,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    stats: Optional[ExecStats],
) -> JoinTree:
    """Run the within-bag joins, placing true annotations exactly once."""
    tops = top_map(g)
    depth = g.depths()
    home: dict[str, int] = {}
    for e in h.edges:
        covering = [t for t, bag in g.chi.items() if e.attrs <= bag]
        if not covering:
            raise QueryError(f"edge {e.name!r} not covered by any bag")
        top_bag = min(covering, key=lambda t: (depth[t], t))
        marked = {t for t in covering if any(tops[a] == t for a in e.attrs)}
        if e.attrs and marked != {top_bag}:
            raise InternalError(
                f"annotation-once placement for {e.name!r} is not unique"
            )
        home[e.name] = top_bag

    bag_relations: dict[int, AnnotatedRelation] = {}
    for t, bag in g.chi.items():
        local: dict[str, AnnotatedRelation] = {}
        edges = []
        inputs = 0
        for e in h.edges:
            rel = relations[e.name]
            if home[e.name] == t:
                local[e.name] = rel
                edges.append((e.name, e.attrs))
            elif e.attrs & bag:
                local[e.name] = project_ones(rel, e.attrs & bag, semiring.one)
                edges.append((e.name, e.attrs & bag))
            else:
                continue
            inputs += len(local[e.name])
        bag_h = Hypergraph.build(edges)
        joined = generic_join(bag_h, local, semiring, stats)
        missing = bag - frozenset(joined.schema)
        if missing:
            raise InternalError(f"bag {sorted(bag)} missing attributes {sorted(missing)}")
        if stats:
            stats.record_bag(f"bag{t}", inputs, len(joined))
        bag_relations[t] = joined
    return JoinTree(root=g.root, parent=dict(g.parent), relations=bag_relations)


def ghd_join(
    h: Hypergraph,
    g: Ghd,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Generic join per bag, then Yannakakis over the bag tree."""
    tree = _bag_join_tree(h, g, relations, semiring, stats)
    return yannakakis(tree, semiring, stats)


def aggro_ghd_join(
    h: Hypergraph,
    g: Ghd,
    alpha: AggregationOrdering,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    domains: Optional[DomainRegistry] = None,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Aggregating GHD join; requires a GHD compatible with the ordering."""
    if not is_compatible(g, alpha):
        raise QueryError("GHD is not compatible with the aggregation ordering")
    tree = _bag_join_tree(h, g, relations, semiring, stats)
    return aggro_yannakakis(tree, alpha, semiring, domains, stats)


def execute_aghd(
    h: Hypergraph,
    aghd: Aghd,
    alpha: AggregationOrdering,
    relations: Mapping[str, AnnotatedRelation],
    domains: DomainRegistry,
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Rename product attributes per the partition and run the GHD pipeline."""
    if not semiring.multiply_idempotent:
        raise QueryError(
            f"product aggregation requires idempotent multiplication; "
            f"semiring {semiring.name!r} is not"
        )
    partition = aghd.partition
    renamed_relations: dict[str, AnnotatedRelation] = {}
    for e in h.edges:
        rel = relations[e.name]
        mapping = {a: partition.copy_of(a, e.name) for a in rel.schema}
        renamed_relations[e.name] = rel.rename(mapping)

    tops = top_map(aghd.tree)
    depth = aghd.tree.depths()
    expanded: list[tuple[str, str]] = []
    for attr, op in alpha.items:
        if op == PRODUCT and attr in partition.blocks:
            copies = sorted(partition.copies(attr), key=lambda c: (depth[tops[c]], c))
            expanded.extend((c, PRODUCT) for c in copies)
        else:
            expanded.append((attr, op))
    alpha_p = AggregationOrdering(tuple(expanded))

    copy_domains = domains.with_copies(
        {copy: orig for copy, orig in aghd.original.items()}
    )
    return aggro_ghd_join(
        aghd.hypergraph_p,
        aghd.tree,
        alpha_p,
        renamed_relations,
        semiring,
        copy_domains,
        stats,
    )
