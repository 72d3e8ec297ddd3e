"""Query execution: worst-case-optimal joins that fold inside their
recursion, run over one ``Ghd`` by either of two paths.

``aggro_ghd_join`` first checks that the tree is a GHD of the query (edge
cover and running intersection) compatible with the ordering.  When every
output attribute lies in the root bag it runs one post-order pass of
messages: each bag joins its atoms and its children's messages in
``generic_join``, aggregating its TOP attributes as the recursion returns,
and passes the result up (InsideOut-style variable elimination).  A plan with
an output attribute below the root instead materializes every bag, keyed by
the same node ids, and runs the semijoin passes of ``aggro_yannakakis`` over
the same tree.  A full join is ``aggro_ghd_join`` with the empty ordering.

Annotations are multiplied exactly once per output tuple: a relation enters
with its true annotations only at the topmost bag containing all of its
attributes; every other bag sees a projection with annotations replaced by
the semiring one, which only filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import InternalError, QueryError
from .ghd import Aghd, Ghd, is_compatible, is_ghd, top_map
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
        """Add one bag's tuple counts; repeated labels accumulate."""
        self.bag_input_tuples[label] = self.bag_input_tuples.get(label, 0) + inputs
        self.bag_output_tuples[label] = self.bag_output_tuples.get(label, 0) + outputs
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
    fold: Optional[AggregationOrdering] = None,
    domains: Optional[DomainRegistry] = None,
) -> AnnotatedRelation:
    """Worst-case-optimal join: attribute-at-a-time expansion with candidate
    intersection, smallest candidate set first.

    The attributes of ``fold`` are aggregated inside the recursion: they are
    expanded last, outermost first, and each level folds what the levels below
    it return, so the joined tuples are never stored.  The other attributes
    come first, cheapest candidate sets first, and form the output schema.
    ``sum``/``max``/``min`` fold with the semiring's additive operator;
    ``prod`` keeps a group only if its nonzero values cover the attribute's
    whole domain, as ``product_aggregate`` does.  An atom whose annotations
    are all one only filters: it never enters a multiplication.
    """
    fold = fold or AggregationOrdering(())
    steps = []  # per fold level: (additive operator, None) or (None, domain)
    for attr, op in fold.items:
        if attr not in h.vertices:
            raise QueryError(f"cannot aggregate unknown attribute {attr!r}")
        if op != PRODUCT:
            steps.append((semiring.additive(op), None))
            continue
        if domains is None:
            raise QueryError("product aggregation needs attribute domains")
        if not semiring.multiply_idempotent:
            raise QueryError(
                f"product aggregation requires idempotent multiplication; "
                f"semiring {semiring.name!r} is not"
            )
        steps.append((None, domains.domain(attr)))

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

    # Output attributes first, cheapest candidate sets first; folds last.
    def candidate_estimate(attr: str) -> int:
        return min(len(rel.distinct(attr)) for rel in rels if attr in rel.schema)

    free = sorted(h.vertices - fold.attrs(), key=lambda a: (candidate_estimate(a), a))
    if any(not rel.tuples for rel in rels):
        return AnnotatedRelation.empty(tuple(free))
    order = free + list(fold.attr_list())

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
        tries.append(root)
    # per level, the tries that hold its attribute (every attribute has one)
    active = [[i for i, rel in enumerate(rels) if attr in rel.schema] for attr in order]
    one = semiring.one
    zero = semiring.zero
    weighted = [i for i, rel in enumerate(rels) if any(lam != one for lam in rel.tuples.values())]

    def matches(level: int, nodes: list):
        """Each value every active trie holds, with the nodes one level down."""
        act = active[level]
        smallest = min(act, key=lambda i: len(nodes[i]))
        others = [i for i in act if i != smallest]
        for value, sub in nodes[smallest].items():
            child = nodes.copy()
            child[smallest] = sub
            for i in others:
                node = nodes[i]
                if value not in node:
                    break
                child[i] = node[value]
            else:
                yield value, child

    def folded(level: int, nodes: list):
        """The fold over order[level:] of the leaf products below nodes."""
        if level == len(order):
            if not weighted:
                return one
            annotation = nodes[weighted[0]]
            for i in weighted[1:]:
                annotation = mul(annotation, nodes[i])
            return annotation
        add, domain = steps[level - len(free)]
        acc = None
        seen = 0
        for value, child in matches(level, nodes):
            lam = folded(level + 1, child)
            if lam == zero:
                continue
            if domain is None:
                acc = lam if acc is None else add(acc, lam)
                continue
            if value not in domain:
                raise InternalError(
                    f"value {value!r} for {order[level]!r} outside its registered domain"
                )
            seen += 1
            acc = lam if acc is None else mul(acc, lam)
        if acc is None or (domain is not None and seen != len(domain)):
            return zero
        return acc

    out = AnnotatedRelation.empty(tuple(free))
    store = out.tuples
    assignment: list = []

    def expand(level: int, nodes: list) -> None:
        if level == len(free):
            annotation = folded(level, nodes)
            if annotation != zero:
                store[tuple(assignment)] = annotation
            return
        for value, child in matches(level, nodes):
            assignment.append(value)
            expand(level + 1, child)
            assignment.pop()

    expand(0, tries)
    return out


def _semijoin_passes(g: Ghd, work: dict[int, AnnotatedRelation], stats) -> None:
    order = g.preorder()
    for t in reversed(order):
        p = g.parent[t]
        if p is None:
            continue
        before = len(work[p])
        work[p] = semijoin(work[p], work[t])
        if stats:
            stats.semijoin_removed += before - len(work[p])
    for t in order:
        p = g.parent[t]
        if p is None:
            continue
        before = len(work[t])
        work[t] = semijoin(work[t], work[p])
        if stats:
            stats.semijoin_removed += before - len(work[t])


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
    g: Ghd,
    bags: Mapping[int, AnnotatedRelation],
    alpha: AggregationOrdering,
    semiring: SemiringSpec,
    domains: Optional[DomainRegistry] = None,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Semijoin reduce up, then down, then join bottom-up, aggregating each
    attribute at its TOP node; bags[t] is bag t's relation, over g.chi[t]."""
    if not is_ghd(Hypergraph(frozenset(), ()), g):  # running intersection only
        raise QueryError("bags violate the running-intersection property")
    tops = top_map(g)
    work = dict(bags)
    _semijoin_passes(g, work, stats)
    for t in reversed(g.preorder()):
        mine = {a for a, node in tops.items() if node == t}
        folded = _fold_ordering(work[t], alpha.restrict(mine), semiring, domains)
        p = g.parent[t]
        if p is None:
            return folded
        work[p] = join([work[p], folded], semiring)
        if stats:
            stats.record_join(len(work[p]))


def _annotation_homes(h: Hypergraph, g: Ghd) -> dict[str, int]:
    """Each relation's home: the topmost bag covering it, where its true
    annotations enter.  It must be the only covering bag that is the TOP node
    of one of its attributes."""
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
    return home


def _bag_atoms(
    h: Hypergraph,
    g: Ghd,
    t: int,
    home: Mapping[str, int],
    relations: Mapping[str, AnnotatedRelation],
    one,
) -> tuple[list[tuple[str, frozenset[str]]], dict[str, AnnotatedRelation]]:
    """Bag t's atoms: the relations homed at t with their true annotations,
    and π¹ of every other relation that touches the bag."""
    bag = g.chi[t]
    edges = []
    local: dict[str, AnnotatedRelation] = {}
    for e in h.edges:
        rel = relations[e.name]
        if home[e.name] == t:
            local[e.name] = rel
            edges.append((e.name, e.attrs))
        elif e.attrs & bag:
            local[e.name] = project_ones(rel, e.attrs & bag, one)
            edges.append((e.name, e.attrs & bag))
    return edges, local


def _bag_hypergraph(bag: frozenset[str], edges) -> Hypergraph:
    """The hypergraph of a bag's atoms, which must cover the whole bag."""
    bag_h = Hypergraph.build(edges)
    missing = bag - bag_h.vertices
    if missing:
        raise InternalError(f"bag {sorted(bag)} missing attributes {sorted(missing)}")
    return bag_h


def _bag_join_tree(
    h: Hypergraph,
    g: Ghd,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    stats: Optional[ExecStats],
) -> dict[int, AnnotatedRelation]:
    """Run the within-bag joins, placing true annotations exactly once; the
    bag relations are keyed by g's node ids."""
    home = _annotation_homes(h, g)
    bags: dict[int, AnnotatedRelation] = {}
    for t, bag in g.chi.items():
        edges, local = _bag_atoms(h, g, t, home, relations, semiring.one)
        joined = generic_join(_bag_hypergraph(bag, edges), local, semiring, stats)
        if stats:
            stats.record_bag(f"bag{t}", sum(map(len, local.values())), len(joined))
        bags[t] = joined
    return bags


def aggro_ghd_join(
    h: Hypergraph,
    g: Ghd,
    alpha: AggregationOrdering,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    domains: Optional[DomainRegistry] = None,
    stats: Optional[ExecStats] = None,
) -> AnnotatedRelation:
    """Aggregating GHD join; requires a GHD of h compatible with the ordering.

    When every output attribute lies in the root bag, this is one post-order
    pass of messages.  Bag t joins its atoms (``_bag_atoms``) and its
    children's messages in ``generic_join``, folding its TOP attributes, in
    the ordering's order, inside the join's recursion; the result, over the
    attributes t shares with its parent, is t's message.  No bag is built
    and no semijoin runs: each message already holds only what its subtree
    can join with.  An arity-0 message is a scalar that multiplies its
    parent's message once.

    When some output attribute lies below the root, its values travel up
    unaggregated and the messages would be as large as the bags, with no full
    reducer to bound them.  Such plans materialize every bag instead
    (``_bag_join_tree``) and run ``aggro_yannakakis``, whose semijoin passes
    keep the join output-sensitive.  Which path runs is a property of the
    plan alone.  With the empty ordering both compute the full join.
    """
    if not is_ghd(h, g):
        raise QueryError("bags do not form a GHD of the query")
    if not is_compatible(g, alpha):
        raise QueryError("GHD is not compatible with the aggregation ordering")
    outputs = h.vertices - alpha.attrs()
    if not outputs <= g.chi[g.root]:
        bags = _bag_join_tree(h, g, relations, semiring, stats)
        return aggro_yannakakis(g, bags, alpha, semiring, domains, stats)

    home = _annotation_homes(h, g)
    tops = top_map(g)
    kids = g.children_map()
    mul = _counted_multiply(semiring, stats)
    messages: dict[int, AnnotatedRelation] = {}
    for t in reversed(g.preorder()):
        bag = g.chi[t]
        edges, local = _bag_atoms(h, g, t, home, relations, semiring.one)
        scalar = None
        for c in kids[t]:
            message = messages.pop(c)
            if message.schema:
                name = f"<bag{c}>"
                local[name] = message
                edges.append((name, frozenset(message.schema)))
            elif not message:
                return AnnotatedRelation.empty(tuple(sorted(outputs)))
            else:
                lam = message.tuples[()]
                scalar = lam if scalar is None else mul(scalar, lam)
        fold = alpha.restrict(a for a in bag if tops[a] == t)
        message = generic_join(
            _bag_hypergraph(bag, edges), local, semiring, stats, fold, domains
        )
        if scalar is not None:
            scaled = ((row, mul(scalar, lam)) for row, lam in message.tuples.items())
            message.tuples = {row: lam for row, lam in scaled if lam != semiring.zero}
        if stats:
            stats.record_bag(f"bag{t}", sum(map(len, local.values())), len(message))
        messages[t] = message
    return messages[g.root]


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
