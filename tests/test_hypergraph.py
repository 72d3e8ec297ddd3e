import itertools
import random

import pytest

from ajar import Hypergraph, QueryError, connected_components, find_path


@pytest.fixture
def star4():
    return Hypergraph.build([(f"E{i}", ("A", f"B{i}")) for i in range(1, 5)])


def random_hypergraph(rng, n_attrs=5, n_edges=5):
    attrs = [f"X{i}" for i in range(n_attrs)]
    edges = []
    for i in range(n_edges):
        arity = rng.randint(1, 3)
        edges.append((f"E{i}", tuple(rng.sample(attrs, arity))))
    used = {a for _, e in edges for a in e}
    for j, a in enumerate(x for x in attrs if x not in used):
        edges.append((f"F{j}", (a,)))
    return Hypergraph.build(edges)


class TestConstruction:
    def test_vertices_are_union_of_edges(self, chain_h):
        assert chain_h.vertices == {"A", "B", "C"}

    def test_empty_edge_rejected(self):
        with pytest.raises(QueryError):
            Hypergraph.build([("R", ())])

    def test_duplicate_edge_name_rejected(self):
        with pytest.raises(QueryError):
            Hypergraph.build([("R", ("A",)), ("R", ("B",))])


class TestConnectedComponents:
    def test_star_minus_center(self, star4):
        comps = connected_components(star4, {"A"})
        assert comps == [frozenset({f"B{i}"}) for i in range(1, 5)]

    def test_nothing_removed_connected(self, chain_h):
        assert connected_components(chain_h, set()) == [frozenset({"A", "B", "C"})]

    def test_triangle_keeps_surviving_edge(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))])
        assert connected_components(h, {"B"}) == [frozenset({"A", "C"})]

    def test_removed_must_be_vertices(self, chain_h):
        with pytest.raises(QueryError):
            connected_components(chain_h, {"Z"})

    def test_partition_property(self):
        rng = random.Random(3)
        for _ in range(30):
            h = random_hypergraph(rng)
            removed = set(rng.sample(sorted(h.vertices), rng.randint(0, 3)))
            comps = connected_components(h, removed)
            union = set().union(*comps) if comps else set()
            assert union == h.vertices - removed
            for a, b in itertools.combinations(comps, 2):
                assert not a & b


class TestPathExists:
    def test_two_hop_chain(self, chain_h):
        assert find_path(chain_h, "A", "C", {"A", "B", "C"}) is not None

    def test_excluded_midpoint(self, chain_h):
        assert find_path(chain_h, "A", "C", {"A", "C"}) is None

    def test_three_edge_walk(self):
        h = Hypergraph.build([("R", ("A", "B")), ("S", ("B", "D")), ("T", ("C", "D"))])
        assert find_path(h, "A", "D", {"A", "B", "D"}) is not None

    def test_endpoints_must_be_allowed(self, chain_h):
        with pytest.raises(QueryError):
            find_path(chain_h, "A", "C", {"A"})

    def test_symmetry_and_monotonicity(self):
        rng = random.Random(4)
        for _ in range(30):
            h = random_hypergraph(rng)
            verts = sorted(h.vertices)
            a, b = rng.sample(verts, 2)
            allowed = set(rng.sample(verts, rng.randint(2, len(verts))))
            allowed |= {a, b}
            forward = find_path(h, a, b, allowed) is not None
            assert forward == (find_path(h, b, a, allowed) is not None)
            if forward:
                assert find_path(h, a, b, set(verts)) is not None

    def test_consistency_with_components(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_hypergraph(rng)
            verts = sorted(h.vertices)
            removed = set(rng.sample(verts, rng.randint(0, 2)))
            comps = connected_components(h, removed)
            alive = [v for v in verts if v not in removed]
            for a, b in itertools.combinations(alive, 2):
                same = any(a in c and b in c for c in comps)
                assert same == (find_path(h, a, b, set(alive)) is not None)
