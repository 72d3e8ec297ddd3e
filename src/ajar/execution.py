"""Query execution: worst-case-optimal joins that fold inside their
recursion, run in one post-order pass over a ``Ghd``.

``aggro_ghd_join`` first checks that the tree is a GHD of the query (edge
cover and running intersection) compatible with the ordering.  Its *output
region* is the root plus every bag whose subtree holds the TOP node of an
output attribute.  Each bag joins its atoms and the messages of its children
outside the region in ``generic_join``, aggregating its TOP attributes as
the recursion returns.  A bag outside the region passes the result to its
parent as one more atom (InsideOut-style variable elimination).  The
region's results, over output attributes only, then go through the semijoin
passes and bottom-up joins of ``aggro_yannakakis`` (free-connex
evaluation).  When the region is the root alone, no semijoin runs; when
every bag holds an output, every bag is built whole.  A full join is
``aggro_ghd_join`` with the empty ordering.

Annotations are multiplied exactly once per output tuple: a relation enters
with its true annotations only at the topmost bag containing all of its
attributes; every bag no message from its subtree already constrains sees a
projection with annotations replaced by the semiring one, which only
filters.  With an ``ExecStats``, every multiplication is counted, including
those inside ``join`` and the folds.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, compress, count, islice, repeat, tee
from operator import and_, ne
from typing import Container, Mapping, Optional

from .errors import InternalError, QueryError
from .ghd import Ghd, is_compatible, is_ghd, top_map
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


class ExecStats:
    """Instrumented tuple counters, exported as JSON by the CLI."""

    def __init__(self):
        self.bag_input_tuples: dict[str, int] = {}
        self.bag_output_tuples: dict[str, int] = {}
        self.semijoin_removed = 0
        self.multiplications = 0
        self.intermediate_tuples = 0

    def record_bag(self, label: str, inputs: int, outputs: int) -> None:
        """Add one bag's tuple counts; repeated labels accumulate."""
        self.bag_input_tuples[label] = self.bag_input_tuples.get(label, 0) + inputs
        self.bag_output_tuples[label] = self.bag_output_tuples.get(label, 0) + outputs
        self.intermediate_tuples += outputs

    def to_dict(self) -> dict:
        return {
            "bag_input_tuples": dict(self.bag_input_tuples),
            "bag_output_tuples": dict(self.bag_output_tuples),
            "semijoin_removed": self.semijoin_removed,
            "annotation_multiplications": self.multiplications,
            "intermediate_tuples": self.intermediate_tuples,
        }


def counted_semiring(semiring: SemiringSpec, stats: Optional[ExecStats]) -> SemiringSpec:
    """The semiring, its multiplications counted in stats when given."""
    if stats is None:
        return semiring
    base = semiring.multiply

    def mul(a, b):
        stats.multiplications += 1
        return base(a, b)

    return semiring._replace(multiply=mul)


def generic_join(
    h: Hypergraph,
    relations: Mapping[str, AnnotatedRelation],
    semiring: SemiringSpec,
    stats: Optional[ExecStats] = None,
    fold: Optional[AggregationOrdering] = None,
    domains: Optional[DomainRegistry] = None,
) -> AnnotatedRelation:
    """Worst-case-optimal join (Generic Join): attribute-at-a-time expansion
    over one trie per atom.

    A level's candidates are the values every active trie holds there: the
    intersection of their key views, computed in C, smallest first (each
    ``&`` iterates the smaller side).  Only a value in the intersection gets
    child nodes, written into one list per level visit.  Atoms over the same
    tuple map (by identity) whose columns sit at the same levels in the same
    order share one trie, built once per call.

    The attributes of ``fold`` are aggregated inside the recursion: they are
    expanded last, outermost first, and each level folds what the levels below
    it return, so the joined tuples are never stored.  The other attributes
    come first, cheapest candidate sets first, and form the output schema.
    ``sum``/``max``/``min`` fold with ``SemiringSpec.fold``: one built-in
    ``sum``, ``min`` or ``max`` call per level visit (``reduce`` for any other
    operator), so no Python code runs per element, not even a comparison with
    min-plus's infinite zero.  On the last level it runs over the leaf
    products; which weighted tries reach that level is fixed once per call.
    When the last level folds additively, the level above folds it under all
    its values at once.  The last level's tries that are active on the level
    above too (the varying ones) change node with its value; the others (the
    fixed ones) keep theirs through a visit, so their keys are intersected
    once per visit.  Each value's keys, products and fold are then ``map``s
    over the visit's values, with no Python function run per value, and in
    the same factor order as on the last level itself.  Two weighted tries
    alone on the last level (a matrix product) are instead one loop per value
    over the smaller leaf's items that probes the other with ``get``; ⊗
    commutes, so the smaller leaf's factor may come first.  With no weighted
    factor there, a value's fold is the ⊕ of n ones, n its number of keys,
    computed once per n in a call; n is then the ``int.bit_count`` of an
    ``&`` of ``int`` bitmasks, one per leaf over the last attribute's values,
    if those masks take at most one 64-bit word per tuple (else the ``len``
    of an ``&`` of key views).  The last free level stores what the levels
    below it return with one ``dict.update`` that skips zeros.
    ``prod`` keeps a group only if its nonzero values cover the attribute's
    whole domain, as ``product_aggregate`` does.  An atom whose annotations
    are all one only filters: it never enters a multiplication.  Like a
    trie, that check is made once per tuple map, and the count of distinct
    values that orders the free attributes once per tuple map and column.
    """
    fold = fold or AggregationOrdering(())
    steps = []  # per fold level: (additive fold, None) or (None, domain)
    for attr, op in fold.items:
        if attr not in h.vertices:
            raise QueryError(f"cannot aggregate unknown attribute {attr!r}")
        if op != PRODUCT:
            steps.append((semiring.fold(op), None))
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
    mul = counted_semiring(semiring, stats).multiply

    if not rels:
        return AnnotatedRelation((), {(): semiring.one})

    # Output attributes first, cheapest candidate sets first; folds last.
    distinct: dict = {}  # (id of a tuple map, column) -> its number of values

    def candidate_estimate(attr: str) -> int:
        keys = {(id(r.tuples), r.schema.index(attr)): r for r in rels if attr in r.schema}
        for key in keys.keys() - distinct.keys():
            distinct[key] = len(keys[key].distinct(attr))
        return min(distinct[key] for key in keys)

    free = sorted(h.vertices - fold.attrs(), key=lambda a: (candidate_estimate(a), a))
    if any(not rel.tuples for rel in rels):
        return AnnotatedRelation.empty(tuple(free))
    order = free + list(fold.attr_list())
    one = semiring.one
    zero = semiring.zero

    tries = []
    shared: dict = {}  # (id of a tuple map, its column per level) -> trie
    weighty: dict = {}  # id of a tuple map -> whether any annotation is not one
    for rel in rels:
        if id(rel.tuples) not in weighty:
            weighty[id(rel.tuples)] = any(map(ne, rel.tuples.values(), repeat(one)))
        # edges are never empty and each schema matches its edge, so every
        # relation has at least one level
        cols = tuple(rel.schema.index(a) for a in order if a in rel.schema)
        key = (id(rel.tuples), cols)
        if key not in shared:
            root: dict = {}
            *inner, last = cols
            for row, lam in rel.tuples.items():
                node = root
                for i in inner:
                    node = node.setdefault(row[i], {})
                node[row[last]] = lam
            shared[key] = root
        tries.append(shared[key])
    # per level, the tries that hold its attribute (every attribute has one)
    active = [[i for i, rel in enumerate(rels) if attr in rel.schema] for attr in order]
    bottom = len(order) - 1
    width = len(free)
    # the last level folds additively: it runs inside the loop of the level above
    fold_last = steps[-1][0] if fold.items and steps[-1][1] is None else None
    # the last level's factors: weighted tries whose leaf dicts reach it, then
    # weighted tries that ended above it with one annotation
    weighted = [i for i, rel in enumerate(rels) if weighty[id(rel.tuples)]]
    deep = [i for i in weighted if i in active[bottom]]
    ended = [i for i in weighted if i not in active[bottom]]
    # the level above an additive last fold folds all its values at once; the
    # last level's tries active there too change node with its value (the
    # varying ones), the others (the fixed ones) keep theirs through a visit
    above = bottom - 1
    fold_above = fold_last is not None and above >= 0
    varying = [i for i in active[bottom] if i in active[above]] if above >= 0 else []
    fixed = [i for i in active[bottom] if i not in varying]
    # a matrix product's last level: two weighted tries and no factor from above
    pair = len(deep) == len(active[bottom]) == 2 and not ended
    ones: dict = {}  # with no weighted factor on the last level: n -> ⊕ of n ones
    # with none, the last level's tries count with int bitmasks over its values
    bits = fold_above and not deep and not ended and _mask_leaves(tries, rels, active[bottom])

    def hits(level: int, nodes: list):
        """The values every active trie holds at this level.  ``&`` of two
        key views iterates the smaller one; with more, the smallest go first."""
        act = active[level]
        if len(act) == 1:
            return nodes[act[0]]
        if len(act) == 2:
            return nodes[act[0]].keys() & nodes[act[1]].keys()
        return reduce(and_, sorted([nodes[i].keys() for i in act], key=len))

    def products(nodes: list, values):
        """The product of the weighted annotations for each value of the last
        level, in the order of values, as ``map``s: no frame per tuple."""
        out = None
        for i in deep:
            factor = map(nodes[i].__getitem__, values)
            out = factor if out is None else map(mul, out, factor)
        for i in ended:
            factor = repeat(nodes[i], len(values))
            out = factor if out is None else map(mul, out, factor)
        return repeat(one, len(values)) if out is None else out

    def last_folds(nodes: list, values) -> list:
        """The fold of the last level under each value of the level above:
        ``products`` over all of a visit's values at once, as maps of maps,
        so no Python function runs per value.  The fixed tries' keys are
        intersected once per visit; each value's keys are a lazy stream,
        copied by ``tee`` for each factor, so one value's set lives at once.
        Two weighted leaves are instead joined by one loop per value over the
        smaller one's items that probes the other with ``get``.  With no
        weighted factor, a value's keys are only counted; bitmask leaves are
        then ``&``-ed as ``int``s and counted by ``int.bit_count``."""
        n = len(values)
        leaves = {}
        streams = []
        for i in varying:
            leaves[i] = list(map(nodes[i].__getitem__, values))
            streams.append(leaves[i] if bits else map(dict.keys, leaves[i]))
        if pair:
            i, j = deep
            lefts = leaves[i] if i in leaves else repeat(nodes[i], n)
            rights = leaves[j] if j in leaves else repeat(nodes[j], n)
            lams = []
            for left, right in zip(lefts, rights):
                small, large = (left, right) if len(left) <= len(right) else (right, left)
                get = large.get
                prods = []
                for k, x in small.items():
                    y = get(k)
                    if y is not None:
                        prods.append(mul(x, y))
                lams.append(fold_last(prods))
            return lams
        if fixed:
            ends = map(nodes.__getitem__, fixed)
            common = reduce(and_, ends if bits else sorted(map(dict.keys, ends), key=len))
            streams.append(repeat(common, n))
        keys = reduce(partial(map, and_), streams)
        if not deep and not ended:  # each value folds n ones, n its key count
            counts = list(map(int.bit_count if bits else len, keys))
            for k in set(counts).difference(ones):
                ones[k] = fold_last(repeat(one, k))
            return list(map(ones.__getitem__, counts))
        copies = iter(tee(keys, len(deep) + len(ended)))
        factors = []
        for i in deep:
            if i in leaves:
                getters = map(getattr, leaves[i], repeat("__getitem__"))
            else:
                getters = repeat(nodes[i].__getitem__)
            factors.append(map(map, getters, next(copies)))
        for i in ended:  # one annotation per value if the trie ended at the level above
            scalars = map(nodes[i].__getitem__, values) if i in active[above] else repeat(nodes[i])
            factors.append(map(repeat, scalars, map(len, next(copies))))
        prods, *rest = factors
        for factor in rest:
            prods = map(map, repeat(mul), prods, factor)
        return list(map(fold_last, prods))

    def below(level: int, nodes: list):
        """The values of level, and the fold of the levels under each."""
        values = hits(level, nodes)
        if level == bottom:
            return values, products(nodes, values)
        if level == above and fold_above:
            return values, last_folds(nodes, values)
        act = active[level]
        child = nodes.copy()
        lams = []
        for value in values:
            for i in act:
                child[i] = nodes[i][value]
            lams.append(folded(level + 1, child))
        return values, lams

    def folded(level: int, nodes: list):
        """The fold over order[level:] of the leaf products below nodes."""
        fold_of, domain = steps[level - width]
        values, lams = below(level, nodes)
        if domain is None:
            return fold_of(lams)
        acc = None
        seen = 0
        for value, lam in zip(values, lams):
            if lam == zero:
                continue
            if value not in domain:
                raise InternalError(
                    f"value {value!r} for {order[level]!r} outside its registered domain"
                )
            seen += 1
            acc = lam if acc is None else mul(acc, lam)
        if acc is None or seen != len(domain):
            return zero
        return acc

    out = AnnotatedRelation.empty(tuple(free))
    store = out.tuples
    assignment: list = []

    def expand(level: int, nodes: list) -> None:
        if level + 1 == width:  # the last free level stores what lies below
            values, lams = below(level, nodes)
            lams = list(lams)  # read twice; the bottom level's products are a map
            rows = map(tuple(assignment).__add__, zip(values))
            store.update(compress(zip(rows, lams), map(ne, lams, repeat(zero))))
            return
        act = active[level]
        child = nodes.copy()
        for value in hits(level, nodes):
            for i in act:
                child[i] = nodes[i][value]
            assignment.append(value)
            expand(level + 1, child)
            assignment.pop()

    if width:
        expand(0, tries)
    elif (lam := folded(0, tries)) != zero:
        store[()] = lam
    return out


def _mask_leaves(tries: list, rels: list, last: list) -> bool:
    """Point each trie in ``last`` (the tries of the last level) at a copy
    whose leaves are ``int`` bitmasks over the last attribute's values, and
    return True, if those masks take at most one 64-bit word per tuple.  A
    copy, because atoms off the last level may share the trie.  Each leaf
    sets its values' digits in a string of ``0``s, one byte per value, that
    ``int`` reads in base 2, so a leaf costs O(values + its keys)."""
    mirrored = {id(tries[i]): i for i in last}.values()  # one atom per distinct trie
    levels = {}  # atom -> its trie's nodes, level by level
    for i in mirrored:
        levels[i] = [[tries[i]]]
        for _ in rels[i].schema[1:]:
            levels[i].append(list(chain.from_iterable(map(dict.values, levels[i][-1]))))
    ends = [levels[i][-1] for i in mirrored]
    values = set().union(*chain.from_iterable(ends))
    if sum(map(len, ends)) * len(values) > 64 * sum(len(rels[i].tuples) for i in mirrored):
        return False
    digit = dict(zip(values, count()))
    zeros = bytearray(b"0") * len(values)
    mark = ord("1")
    copies = {}
    for i in mirrored:
        built = []
        for leaf in levels[i][-1]:
            digits = zeros.copy()
            for d in map(digit.__getitem__, leaf):
                digits[d] = mark
            built.append(int(digits, 2))
        for nodes in reversed(levels[i][:-1]):
            parts = iter(built)
            built = [dict(zip(node, islice(parts, len(node)))) for node in nodes]
        copies[id(tries[i])] = built[0]
    for i in last:
        tries[i] = copies[id(tries[i])]
    return True


def _semijoin_passes(g: Ghd, work: dict[int, AnnotatedRelation], stats) -> None:
    """Reduce each parent by its children bottom-up, then each child by its
    parent top-down: a full reducer over the join tree."""
    up = [(g.parent[t], t) for t in reversed(g.preorder()) if g.parent[t] is not None]
    for target, source in up + [(t, p) for p, t in reversed(up)]:
        before = len(work[target])
        work[target] = semijoin(work[target], work[source])
        if stats:
            stats.semijoin_removed += before - len(work[target])


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
    counted = counted_semiring(semiring, stats)
    work = dict(bags)
    _semijoin_passes(g, work, stats)
    for t in reversed(g.preorder()):
        mine = {a for a, node in tops.items() if node == t}
        folded = _fold_ordering(work[t], alpha.restrict(mine), counted, domains)
        p = g.parent[t]
        if p is None:
            return folded
        work[p] = join([work[p], folded], counted)
        if stats:
            stats.intermediate_tuples += len(work[p])


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
    implied: Container[str],
) -> tuple[list[tuple[str, frozenset[str]]], dict[str, AnnotatedRelation]]:
    """Bag t's atoms: the relations homed at t with their true annotations,
    and π¹ of every other relation that touches the bag and is not implied.

    R is implied when it is homed below a child c that sends t a message: by
    running intersection R ∩ χ(t) lies in χ(c) ∩ χ(t), the message's schema,
    and the message's support lies in π(R), since R joined below it, so π¹
    of R could only repeat that filter.  A child in the output region sends
    no message, and the relations homed below it keep their π¹."""
    bag = g.chi[t]
    edges = []
    local: dict[str, AnnotatedRelation] = {}
    for e in h.edges:
        rel = relations[e.name]
        if home[e.name] == t:
            local[e.name] = rel
            edges.append((e.name, e.attrs))
        elif e.attrs & bag and e.name not in implied:
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

    One post-order pass.  Bag t joins its atoms (``_bag_atoms``) and the
    messages of its children outside the output region in ``generic_join``,
    folding t's TOP attributes, in the ordering's order, inside the join's
    recursion.  Outside the region the result, over the attributes t shares
    with its parent, is t's message; it already holds only what its subtree
    can join with, so it needs no semijoin.  An arity-0 message is a scalar
    that multiplies its parent's result once.

    Compatibility puts no aggregated attribute's TOP node above an output's,
    so a bag with a child in the region tops only outputs, and every region
    bag's result holds outputs only.  Their values have no full reducer
    below them, so ``aggro_yannakakis`` semijoin-reduces these results and
    joins them bottom-up; the ordering has nothing left to fold.
    """
    if not is_ghd(h, g):
        raise QueryError("bags do not form a GHD of the query")
    if not is_compatible(g, alpha):
        raise QueryError("GHD is not compatible with the aggregation ordering")
    outputs = h.vertices - alpha.attrs()
    home = _annotation_homes(h, g)
    tops = top_map(g)
    kids = g.children_map()
    region = {g.root}
    for attr in outputs:
        t = tops[attr]
        while t not in region:
            region.add(t)
            t = g.parent[t]
    mul = counted_semiring(semiring, stats).multiply
    built: dict[int, AnnotatedRelation] = {}  # messages, and the region's bags
    homed: dict[int, set[str]] = {}  # the relations homed in each subtree
    for t in reversed(g.preorder()):
        bag = g.chi[t]
        homed[t] = {e for e, b in home.items() if b == t}.union(*(homed[c] for c in kids[t]))
        implied = set().union(*(homed[c] for c in kids[t] if c not in region))
        edges, local = _bag_atoms(h, g, t, home, relations, semiring.one, implied)
        scalar = None
        for c in kids[t]:
            if c in region:
                continue
            message = built.pop(c)
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
        out = generic_join(_bag_hypergraph(bag, edges), local, semiring, stats, fold, domains)
        if scalar is not None:
            scaled = ((row, mul(scalar, lam)) for row, lam in out.tuples.items())
            out.tuples = {row: lam for row, lam in scaled if lam != semiring.zero}
        if stats:
            stats.record_bag(f"bag{t}", sum(map(len, local.values())), len(out))
        built[t] = out
    region_tree = Ghd(
        root=g.root,
        parent={t: g.parent[t] for t in region},
        chi={t: frozenset(built[t].schema) for t in region},
    )
    return aggro_yannakakis(region_tree, built, alpha, semiring, domains, stats)

