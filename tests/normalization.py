"""The paper's width-preserving normalization: any valid GHD can be made
decomposable (every node the TOP node of exactly one attribute, and the
attributes topped in every subtree connected in the hypergraph) without
getting wider.  The planner builds decomposable GHDs directly, so this
construction is a proof device; ``TestNormalizeDecomposable`` keeps it
checked."""

from __future__ import annotations

import itertools

from ajar import (
    AggregationOrdering,
    Ghd,
    Hypergraph,
    InternalError,
    PrecedenceRelation,
    QueryError,
    connected_components,
    is_valid,
    top_map,
)


def subtree(g: Ghd, t: int) -> list[int]:
    kids = g.children_map()
    out, stack = [], [t]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(kids[v])
    return out


def is_top_unique(g: Ghd) -> bool:
    inverse: dict[int, int] = {t: 0 for t in g.parent}
    for _, t in top_map(g).items():
        inverse[t] += 1
    for t, count in inverse.items():
        if count != 1 and not (t == g.root and not g.chi[t]):
            return False
    return True


def is_subtree_connected(h: Hypergraph, g: Ghd) -> bool:
    tops = top_map(g)
    for t in g.parent:
        region = set(subtree(g, t))
        attrs = {a for a, node in tops.items() if node in region}
        if attrs and len(connected_components(h, h.vertices - attrs)) > 1:
            return False
    return True


def normalize_decomposable(
    h: Hypergraph,
    alpha: AggregationOrdering,
    prec: PrecedenceRelation,
    g: Ghd,
) -> Ghd:
    """Transform a valid GHD into a decomposable one, every new bag a subset
    of an old bag (so any node-monotone width is preserved)."""
    if not is_valid(prec, g):
        raise QueryError("normalize_decomposable requires a valid GHD")
    parent = dict(g.parent)
    chi = dict(g.chi)
    root = g.root
    fresh = itertools.count(max(parent) + 1)
    outputs = sorted(h.vertices - alpha.attrs())
    rank = {a: i for i, a in enumerate(outputs)}
    rank.update({a: len(outputs) + i for i, (a, _) in enumerate(alpha.items)})

    def current() -> Ghd:
        return Ghd(root=root, parent=parent, chi=chi)

    # Phase 1: make every node the top of exactly one attribute.
    while True:
        tops = top_map(current())
        inverse: dict[int, list[str]] = {t: [] for t in parent}
        for a, t in tops.items():
            inverse[t].append(a)
        kids = current().children_map()
        target = None
        for t in sorted(parent):
            count = len(inverse[t])
            if count == 0 and not (t == root and len(kids[t]) != 1):
                target = ("drop", t)
                break
            if count > 1:
                target = ("split", t)
                break
        if target is None:
            break
        kind, t = target
        if kind == "drop":
            if t == root:
                (only_child,) = kids[t]
                parent[only_child] = None
                root = only_child
                del parent[t], chi[t]
            else:
                if not chi[t] <= chi[parent[t]]:
                    raise InternalError("topless bag not contained in its parent")
                for c in kids[t]:
                    parent[c] = parent[t]
                del parent[t], chi[t]
        else:
            first = min(inverse[t], key=lambda a: rank[a])
            shared = chi[t] & chi[parent[t]] if parent[t] is not None else frozenset()
            node = next(fresh)
            chi[node] = frozenset((first,)) | shared
            parent[node] = parent[t]
            parent[t] = node
            if root == t:
                root = node

    # Phase 2: make the attributes topped in every subtree connected in h.
    changed = True
    while changed:
        changed = False
        snapshot = current()
        tops = top_map(snapshot)
        inverse: dict[int, list[str]] = {t: [] for t in parent}
        for a, t in tops.items():
            inverse[t].append(a)
        kids = snapshot.children_map()
        for t in snapshot.preorder():
            if not inverse[t]:
                continue
            (top_attr,) = inverse[t]
            for c in list(kids[t]):
                region = subtree(snapshot, c)
                region_attrs = {a for a, node in tops.items() if node in set(region)}
                touches = any(
                    top_attr in e.attrs and e.attrs & region_attrs for e in h.edges
                )
                if touches or not region_attrs:
                    continue
                if parent[t] is None:
                    raise InternalError(
                        "root subtree disconnected: hypergraph is not connected"
                    )
                for node in region:
                    chi[node] = chi[node] - {top_attr}
                parent[c] = parent[t]
                changed = True
                break
            if changed:
                break

    counter = itertools.count()
    return current().relabel(counter)
