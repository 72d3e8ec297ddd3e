"""Query-body hypergraphs and the connectivity utilities planning relies on."""

from __future__ import annotations

from typing import AbstractSet, Iterable, NamedTuple, Optional

from .errors import QueryError


class Edge(NamedTuple):
    """A hyperedge tagged with the relation (atom) it stands for."""

    name: str
    attrs: frozenset[str]

    def __repr__(self):
        return f"{self.name}({','.join(sorted(self.attrs))})"


class Hypergraph(NamedTuple):
    vertices: frozenset[str]
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, edges: Iterable[tuple[str, Iterable[str]]]) -> "Hypergraph":
        tagged = []
        seen_names = set()
        for name, attrs in edges:
            attrs = frozenset(attrs)
            if not attrs:
                raise QueryError(f"edge {name!r} has no attributes")
            if name in seen_names:
                raise QueryError(f"duplicate edge name {name!r}")
            seen_names.add(name)
            tagged.append(Edge(name, attrs))
        vertices = frozenset().union(*(e.attrs for e in tagged)) if tagged else frozenset()
        return cls(vertices=vertices, edges=tuple(tagged))


def _restricted_adjacency(h: Hypergraph, alive: AbstractSet[str]) -> dict[str, set[str]]:
    """Neighbours among the alive vertices, edges restricted to them."""
    adj: dict[str, set[str]] = {v: set() for v in alive}
    for e in h.edges:
        surviving = e.attrs & alive
        for a in surviving:
            adj[a] |= surviving - {a}
    return adj


def connected_components(h: Hypergraph, removed: Iterable[str]) -> list[frozenset[str]]:
    """Components of the vertices surviving removal, edges restricted likewise.

    Returned in deterministic order: sorted by smallest member.
    """
    removed = set(removed)
    if not removed <= h.vertices:
        raise QueryError(f"removed attributes {removed - h.vertices} not in hypergraph")
    alive = h.vertices - removed
    adj = _restricted_adjacency(h, alive)
    components = []
    unseen = set(alive)
    while unseen:
        start = next(iter(unseen))
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        unseen -= comp
        components.append(frozenset(comp))
    components.sort(key=lambda c: min(c))
    return components


def find_path(
    h: Hypergraph, a: str, b: str, allowed: Iterable[str]
) -> Optional[tuple[str, ...]]:
    """A path from a to b through attributes in allowed only, or None."""
    allowed = set(allowed)
    if a not in allowed or b not in allowed or not allowed <= h.vertices:
        raise QueryError("path endpoints must lie in allowed ⊆ vertices")
    adj = _restricted_adjacency(h, allowed)
    prev: dict[str, str] = {}
    stack, seen = [a], {a}
    while stack:
        v = stack.pop()
        if v == b:
            path = [b]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for w in adj[v] - seen:
            seen.add(w)
            prev[w] = v
            stack.append(w)
    return None
