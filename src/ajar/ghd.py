"""Generalized hypertree decompositions: checks, widths, and the planner's
decomposition into unconstrained sub-problems.

The central construction: split the query into characteristic hypergraphs,
find an optimal unconstrained GHD for each, and stitch them back into a
decomposable GHD whose width is exactly the maximum over the parts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .errors import InternalError, QueryError
from .hypergraph import Edge, Hypergraph, connected_components
from .lp import cover_bracket, fractional_cover_value, graph_cover_pricer, integer_costs
from .ordering import AggregationOrdering, PrecedenceRelation, commute_block
from .semirings import PRODUCT


class Ghd:
    """Rooted tree of bags; node ids are opaque ints."""

    def __init__(self, root: int, parent: dict[int, Optional[int]], chi: dict[int, frozenset[str]]):
        self.root = root
        self.parent = parent
        self.chi = chi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.parent, self.chi) == (other.root, other.parent, other.chi)

    def __repr__(self):
        return f"Ghd(root={self.root!r}, parent={self.parent!r}, chi={self.chi!r})"

    @classmethod
    def single(cls, bag: Iterable[str]) -> "Ghd":
        return cls(root=0, parent={0: None}, chi={0: frozenset(bag)})

    def nodes(self) -> list[int]:
        return sorted(self.parent)

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

    def depths(self) -> dict[int, int]:
        depth = {self.root: 0}
        for t in self.preorder()[1:]:
            depth[t] = depth[self.parent[t]] + 1
        return depth

    def regions(self, nodes: Iterable[int]) -> list[set[int]]:
        """Split nodes into maximal tree-connected regions, in preorder of
        their topmost nodes (the members whose parent lies outside the set)."""
        nodes = set(nodes)
        region_of: dict[int, set[int]] = {}
        out: list[set[int]] = []
        for t in self.preorder():  # a parent comes before its children
            if t not in nodes:
                continue
            region = region_of.get(self.parent[t])
            if region is None:
                region = set()
                out.append(region)
            region.add(t)
            region_of[t] = region
        return out

    def attr_universe(self) -> frozenset[str]:
        return frozenset().union(*self.chi.values()) if self.chi else frozenset()

    def reroot(self, new_root: int) -> "Ghd":
        chain = [new_root]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        parent = dict(self.parent)
        parent[new_root] = None
        for above, below in zip(chain[1:], chain):
            parent[above] = below
        return Ghd(root=new_root, parent=parent, chi=dict(self.chi))

    def relabel(self, counter: itertools.count) -> "Ghd":
        mapping = {t: next(counter) for t in self.preorder()}
        return Ghd(
            root=mapping[self.root],
            parent={mapping[t]: (None if p is None else mapping[p]) for t, p in self.parent.items()},
            chi={mapping[t]: bag for t, bag in self.chi.items()},
        )

    def canonical_code(self):
        """Rooted-tree canonical form over bag contents, for isomorphism tests."""
        kids = self.children_map()

        def code(t):
            return (tuple(sorted(self.chi[t])), tuple(sorted(code(c) for c in kids[t])))

        return code(self.root)


def is_ghd(h: Hypergraph, g: Ghd) -> bool:
    """Edge cover plus running intersection: the bags holding each attribute
    form exactly one region (none when the attribute is never placed)."""
    bags = list(g.chi.values())
    for e in h.edges:
        if not any(e.attrs <= bag for bag in bags):
            return False
    return all(
        len(g.regions(t for t, bag in g.chi.items() if attr in bag)) == 1
        for attr in g.attr_universe() | h.vertices
    )


def top_map(g: Ghd) -> dict[str, int]:
    """Highest node containing each attribute; unique under running intersection."""
    depth = g.depths()
    tops: dict[str, int] = {}
    for attr in g.attr_universe():
        holders = [t for t, bag in g.chi.items() if attr in bag]
        top = min(holders, key=lambda t: (depth[t], t))
        for t in holders:
            if depth[t] == depth[top] and t != top:
                raise InternalError(f"attribute {attr!r} has two topmost nodes")
        tops[attr] = top
    return tops


def tops_above(g: Ghd) -> set[tuple[str, str]]:
    """Pairs (a, b) of attributes where the TOP node of a lies strictly above
    the TOP node of b."""
    topped: dict[int, set[str]] = {}
    for attr, node in top_map(g).items():
        topped.setdefault(node, set()).add(attr)
    above: set[tuple[str, str]] = set()
    for node, below in topped.items():
        t = g.parent[node]
        while t is not None:
            above.update((a, b) for a in topped.get(t, ()) for b in below)
            t = g.parent[t]
    return above


def is_compatible(g: Ghd, beta: AggregationOrdering) -> bool:
    """No attribute may sit above a non-output attribute that precedes it."""
    order = {a: i for i, (a, _) in enumerate(beta.items)}
    return all(
        a not in order or (b in order and order[a] < order[b]) for a, b in tops_above(g)
    )


def is_valid(prec: PrecedenceRelation, g: Ghd) -> bool:
    """Compatible with at least one equivalent ordering (product-free): no
    attribute sits above one that precedes it in prec's extended order."""
    return not any(prec.before(b, a) for a, b in tops_above(g))


class WidthReport(NamedTuple):
    """Exact per-bag widths, Fractions in both modes; ``mode`` only tells
    the printed outputs to show a data-mode width as a float."""

    mode: str  # "unit" without sizes, "data" with them
    per_bag: dict[int, Fraction]

    @property
    def width(self) -> Fraction:
        return max(self.per_bag.values(), default=Fraction(0))


def cost_edges_for(
    h: Hypergraph, sizes: Optional[dict[str, int]]
) -> list[tuple[frozenset[str], Any]]:
    """Each edge's attributes with its cost: the int 1 without sizes, else
    the Fraction log_IN of its relation's size (the float's exact value),
    IN the sizes' total."""
    if sizes is None:
        return [(e.attrs, 1) for e in h.edges]
    for e in h.edges:
        if e.name not in sizes:
            raise QueryError(f"no size given for edge {e.name!r}")
        size = sizes[e.name]
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise QueryError(f"size of edge {e.name!r} must be a positive int, got {size!r}")
    log_in = math.log(max(sum(sizes[e.name] for e in h.edges), 2))
    return [(e.attrs, Fraction(math.log(sizes[e.name]) / log_in)) for e in h.edges]


def width(g: Ghd, h: Hypergraph, sizes: Optional[dict[str, int]] = None) -> WidthReport:
    """Per-bag fractional cover optimum; overall width is the max.

    A bag is priced as ``optimal_ghd`` prices it, by the matching of
    ``graph_cover_pricer`` over the costs scaled to ints, built once per
    call (an empty bag costs its zero), and only a bag it returns None for
    (a wider meet, a scaled cost other than 1, or an attribute no edge
    holds) goes to the LP."""
    cost_edges = cost_edges_for(h, sizes)
    costs, den = integer_costs(c for _, c in cost_edges)
    attrs = g.attr_universe().union(*(e for e, _ in cost_edges))
    bit = {a: 1 << i for i, a in enumerate(attrs)}
    masks = [sum(bit[a] for a in e) for e, _ in cost_edges]
    price = graph_cover_pricer(list(zip(masks, costs)))
    per_bag = {}
    for t, bag in g.chi.items():
        if (doubled := price(sum(bit[a] for a in bag))) is not None:
            per_bag[t] = Fraction(doubled, 2 * den)
        else:
            per_bag[t] = fractional_cover_value(bag, cost_edges)
    return WidthReport("unit" if sizes is None else "data", per_bag)


# ---------------------------------------------------------------------------
# Characteristic hypergraphs and stitching
# ---------------------------------------------------------------------------


class Part:
    """One characteristic hypergraph with its hook to the parent part."""

    def __init__(self, hypergraph: Hypergraph, interface: frozenset[str], children: list[Part]):
        self.hypergraph = hypergraph
        self.interface = interface  # attrs shared with the parent part (empty at root)
        self.children = children

    def flatten(self) -> list["Part"]:
        out = [self]
        for child in self.children:
            out.extend(child.flatten())
        return out


def _front_set(h: Hypergraph, alpha_c: AggregationOrdering) -> frozenset[str]:
    """Attributes removable up front: those the equivalence test's commute
    check lets reach the front of alpha_c, except that a leading product
    attribute goes alone."""
    items = alpha_c.items
    if items and items[0][1] == PRODUCT:
        return frozenset((items[0][0],))
    return frozenset(a for j, (a, _) in enumerate(items) if commute_block(h, items, j) is None)


def characteristic_tree(
    h: Hypergraph,
    alpha: AggregationOrdering,
    _names: Optional[itertools.count] = None,
) -> Part:
    """Recursive decomposition into unconstrained hypergraphs.

    The root part covers the output attributes; one child subtree per
    connected component of the query minus outputs and minus alpha's product
    attributes, each component then absorbing the product attributes its
    edges hold.  Each child drops its component's front set, the
    attributes the equivalence test's commute check lets reach the front of
    the component's ordering.  Intersection edges are added so arbitrary GHDs
    of the parts can be stitched back together.
    """
    if _names is None:
        _names = itertools.count()
    outputs = h.vertices - alpha.attrs()
    prod_attrs = alpha.product_attrs()
    comps = connected_components(h, outputs | prod_attrs)

    children = []
    interface_edges: list[tuple[str, frozenset[str]]] = []
    seen_interfaces: set[frozenset[str]] = set()
    for comp in comps:
        e_c = [e for e in h.edges if e.attrs & comp]
        c_pp = frozenset().union(*(e.attrs for e in e_c))
        interface = outputs & c_pp
        c_plus = comp | (prod_attrs & c_pp)
        alpha_c = alpha.restrict(c_plus)
        front = _front_set(h, alpha_c)
        sub_alpha = alpha_c.without(front)
        sub_edges = [(e.name, e.attrs) for e in e_c]
        if interface:
            sub_edges.append((f"__ix{next(_names)}", interface))
            if interface not in seen_interfaces:
                seen_interfaces.add(interface)
                interface_edges.append((f"__ix{next(_names)}", interface))
        sub_h = Hypergraph.build(sub_edges)
        child = characteristic_tree(sub_h, sub_alpha, _names)
        child.interface = interface
        children.append(child)

    h0_edges = [(e.name, e.attrs) for e in h.edges if e.attrs <= outputs]
    h0_edges.extend(interface_edges)
    h0 = Hypergraph(
        vertices=frozenset(outputs),
        edges=tuple(Edge(name, attrs) for name, attrs in h0_edges),
    )
    if h0.edges and frozenset().union(*(e.attrs for e in h0.edges)) != h0.vertices:
        raise InternalError("output attributes escaped the root characteristic part")
    return Part(hypergraph=h0, interface=frozenset(), children=children)


def characteristic_hypergraphs(
    h: Hypergraph, alpha: AggregationOrdering
) -> list[Hypergraph]:
    """Flat preorder listing of the characteristic hypergraphs."""
    tree = characteristic_tree(h, alpha)
    return [part.hypergraph for part in tree.flatten()]


def _covering_node(g: Ghd, attrs: frozenset[str]) -> int:
    for t in g.preorder():
        if attrs <= g.chi[t]:
            return t
    raise QueryError(f"no bag covers interface {sorted(attrs)}")


def stitch_tree(part: Part, ghds: Sequence[Ghd]) -> Ghd:
    """Attach part GHDs, one per part in ``part.flatten()`` order, along
    interface edges; width is the max over parts."""
    expected = len(part.flatten())
    if len(ghds) != expected:
        raise QueryError(f"expected {expected} part GHDs, got {len(ghds)}")
    ghd_iter = iter(ghds)
    counter = itertools.count()

    def build(part: Part) -> Ghd:
        g = next(ghd_iter).relabel(counter)
        parent = dict(g.parent)
        chi = dict(g.chi)
        for child in part.children:
            sub = build(child)
            if child.interface:
                sub = sub.reroot(_covering_node(sub, child.interface))
                hook = _covering_node(g, child.interface)
            else:
                hook = g.root
            parent.update(sub.parent)
            chi.update(sub.chi)
            parent[sub.root] = hook
        return Ghd(root=g.root, parent=parent, chi=chi)

    return build(part)


def stitch(h: Hypergraph, alpha: AggregationOrdering, parts: Sequence[Ghd]) -> Ghd:
    """Stitch GHDs given in the order characteristic_hypergraphs returns."""
    return stitch_tree(characteristic_tree(h, alpha), parts)


def split_products(
    h: Hypergraph, alpha: AggregationOrdering, tree: Ghd
) -> tuple[Ghd, Hypergraph, dict[str, str]]:
    """Split each product attribute B into one copy per tree region holding
    it, ``B#k`` for the k-th region in preorder; each edge holding B takes
    the copy of the region holding its covering bag.  Returns the tree and
    the body over the copies, and each copy's attribute (attributes sorted,
    copies in region order); without products, tree, h and {}."""
    prod_attrs = alpha.product_attrs()
    if not prod_attrs:
        return tree, h, {}
    copies: dict[str, str] = {}
    copy_at: dict[tuple[str, int], str] = {}  # (attribute, node) -> its copy there
    for attr in sorted(prod_attrs):
        holders = [t for t, bag in tree.chi.items() if attr in bag]
        for k, region in enumerate(tree.regions(holders)):
            copy = f"{attr}#{k + 1}"
            copies[copy] = attr
            for t in region:
                copy_at[attr, t] = copy

    edges = []
    for e in h.edges:
        attrs = e.attrs
        if attrs & prod_attrs:
            cover = _covering_node(tree, attrs)
            attrs = frozenset(copy_at.get((a, cover), a) for a in attrs)
        edges.append((e.name, attrs))
    body = Hypergraph.build(edges)
    for copy, attr in copies.items():
        if copy not in body.vertices:
            raise InternalError(f"product attribute {attr!r} has an edgeless region")

    chi = {}
    for t, bag in tree.chi.items():
        chi[t] = frozenset(copy_at.get((a, t), a) for a in bag)
    split = Ghd(root=tree.root, parent=dict(tree.parent), chi=chi)
    return split, body, copies


# ---------------------------------------------------------------------------
# Optimal unconstrained GHDs via elimination orders
# ---------------------------------------------------------------------------

GHD_VERTEX_CAP = 12


def optimal_ghd(
    h: Hypergraph, cost_edges: Optional[list[tuple[frozenset[str], Any]]] = None
) -> Ghd:
    """Minimum-width GHD among those induced by vertex elimination orders.

    Dynamic program over eliminated-prefix sets; the bag produced when a
    vertex is eliminated depends only on the set eliminated before it, so
    this searches every elimination order.  Bag costs come from the
    fractional cover LP over cost_edges (by default h's own edges, at unit
    cost; sizes price them through ``cost_edges_for``).  At each prefix set
    the last-eliminated vertex v is scanned in sorted order and the first of
    least cost, max(width of the prefix without v, cost of v's bag), wins.

    The costs are scaled to ints once (``integer_costs``) and every bag cost
    is kept doubled: a bag whose edges cost 1 after the scaling (every edge
    in unit mode) and meet it in at most two attributes costs the int
    2|B| − M of the matching in ``graph_cover_pricer`` (lo == hi), other
    bounds and LP values are doubled Fractions, and ints compare with
    Fractions exactly, so scaling and doubling change no comparison.  A bag
    the matching does not price gets the bracket lo <= cost <= hi of
    ``cover_bracket`` (a uniform packing below, a greedy integral cover
    above), and v is
      * skipped once the prefix without v, or lo, already reaches the
        incumbent: v's cost could at best tie it, and a tie goes to the
        earlier vertex, which the incumbent is;
      * given the prefix's width when hi does not exceed it, which is then
        exactly the max;
      * otherwise priced by the LP, whose value replaces both bounds (when
        lo == hi the value is already known and no LP runs).
    Every cost these rules settle, and every comparison they skip, comes
    out as in the search that prices every bag by the LP, so the choice at
    every prefix set, and the returned GHD, are that search's.
    """
    verts = sorted(h.vertices)
    n = len(verts)
    if n > GHD_VERTEX_CAP:
        raise QueryError(f"hypergraph has {n} attributes, above the cap {GHD_VERTEX_CAP}")
    if n == 0:
        return Ghd.single(())
    if cost_edges is None:
        cost_edges = cost_edges_for(h, None)
    costs, _ = integer_costs(c for _, c in cost_edges)
    cost_edges = [(e, c) for (e, _), c in zip(cost_edges, costs)]
    bit = {v: 1 << i for i, v in enumerate(verts)}
    adj = [0] * n
    for e in h.edges:
        attrs = sum(bit[a] for a in e.attrs)
        for a in e.attrs:
            adj[bit[a].bit_length() - 1] |= attrs & ~bit[a]
    edge_masks = [(m, c) for attrs, c in cost_edges if (m := sum(bit.get(a, 0) for a in attrs))]

    def attrs_of(bag: int) -> frozenset[str]:
        return frozenset(verts[w] for w in range(n) if bag >> w & 1)

    def bag_of(v: int, eliminated: int) -> int:
        # v plus every vertex reachable from it through eliminated vertices
        reached = frontier = 1 << v
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & ~reached
            reached |= new
            frontier |= new & eliminated
        return reached & ~eliminated

    price = graph_cover_pricer(edge_masks)
    brackets: dict[int, tuple] = {}  # bag -> (lo, hi), doubled; lo == hi once exact
    best: dict[int, Any] = {0: 0}
    choice: dict[int, int] = {}
    for mask in sorted(range(1, 1 << n), key=int.bit_count):  # subsets first
        best_cost, best_v = None, None
        for v in range(n):
            if not mask >> v & 1:
                continue
            below = best[mask ^ (1 << v)]
            if best_cost is not None and below >= best_cost:
                continue  # cannot beat the incumbent, nor win its tie
            bag = bag_of(v, mask ^ (1 << v))
            if (bounds := brackets.get(bag)) is None:
                value = price(bag)
                if value is None:
                    lo, hi = cover_bracket(bag, edge_masks)
                    bounds = (2 * lo, 2 * hi)
                else:
                    bounds = (value, value)
                brackets[bag] = bounds
            lo, hi = bounds
            if best_cost is not None and lo >= best_cost:
                continue  # the same tie argument, on the bag's lower bound
            if hi <= below:
                cost = below
            else:
                if lo != hi:
                    lo = 2 * fractional_cover_value(attrs_of(bag), cost_edges)
                    brackets[bag] = lo, lo
                cost = max(below, lo)
            if best_cost is None or cost < best_cost:
                best_cost, best_v = cost, v
        best[mask] = best_cost
        choice[mask] = best_v

    order: list[int] = []
    mask = (1 << n) - 1
    while mask:
        v = choice[mask]
        mask ^= 1 << v
        order.append(v)
    order.reverse()  # elimination order, first eliminated first

    bags: list[frozenset[str]] = []
    eliminated = 0
    for v in order:
        bags.append(attrs_of(bag_of(v, eliminated)))
        eliminated |= 1 << v
    position = {verts[v]: i for i, v in enumerate(order)}

    parent: dict[int, Optional[int]] = {}
    for i, v in enumerate(order):
        later = [position[a] for a in bags[i] if position[a] > i]
        parent[i] = min(later) if later else None
    root = len(order) - 1
    for i in range(len(order)):
        if parent[i] is None and i != root:
            parent[i] = root  # disconnected component roots hang off the last bag
    g = Ghd(root=root, parent=parent, chi={i: bags[i] for i in range(len(order))})
    return contract_redundant(g)


def contract_redundant(g: Ghd, lone_child_only: bool = False) -> Ghd:
    """Contract nodes whose bag is contained in a neighbour's bag: a child
    into a parent that holds its bag, or a parent into a child that holds
    the parent's bag.  With lone_child_only, a parent folds only into its
    only child, so no attribute's TOP node moves above a sibling subtree.

    Only adjacent nodes merge and the merged bag is the larger one, so edge
    cover and running intersection survive, and every dropped bag lies in a
    kept one: the width does not change."""
    parent = dict(g.parent)
    chi = dict(g.chi)
    root = g.root
    changed = True
    while changed:
        changed = False
        kids = Ghd(root=root, parent=parent, chi=chi).children_map()
        for t in sorted(parent):
            p = parent[t]
            if p is None:
                continue
            if chi[t] <= chi[p] or (
                chi[p] < chi[t] and not (lone_child_only and len(kids[p]) > 1)
            ):
                # keep the larger bag at the parent, the child's children below it
                chi[p] |= chi[t]
                for c in kids[t]:
                    parent[c] = p
                del parent[t], chi[t]
                changed = True
                break
    counter = itertools.count()
    return Ghd(root=root, parent=parent, chi=chi).relabel(counter)
