import pytest

from ajar import (
    AggregationOrdering,
    AnnotatedRelation,
    Ghd,
    Hypergraph,
    get_semiring,
)


@pytest.fixture
def int_sr():
    return get_semiring("int")


@pytest.fixture
def chain_h():
    """R(A,B) joined with S(B,C)."""
    return Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))])


@pytest.fixture
def fig1(int_sr):
    """The worked two-relation instance over (Z, +, *)."""
    r = AnnotatedRelation(("A", "B"), {(1, 3): 3, (1, 2): 1, (1, 1): 2})
    s = AnnotatedRelation(("B", "C"), {(1, 1): 4, (3, 3): 6})
    return {"R": r, "S": s}


@pytest.fixture
def fig2():
    """The operator-illustration instance over (R+, +, *)."""
    r = AnnotatedRelation(("A", "B"), {(1, 1): 1, (2, 1): 2})
    s = AnnotatedRelation(("B", "C"), {(1, 1): 3, (1, 2): 4})
    return {"R": r, "S": s}


def ordering(*items):
    return AggregationOrdering(tuple(items))


def chain(bags):
    """A GHD whose bags form a chain rooted at the first."""
    parent = {i: (i - 1 if i else None) for i in range(len(bags))}
    return Ghd(root=0, parent=parent, chi={i: frozenset(b) for i, b in enumerate(bags)})


def random_query(rng, ops=("sum", "max", "min"), max_attrs=5, max_edges=5):
    """A random product-free query: 1 to max_edges atoms of arity 1 to 3 over
    at most max_attrs attributes, a random subset of them aggregated."""
    n = rng.randint(1, max_attrs)
    attrs = [f"X{i}" for i in range(n)]
    edges = [
        (f"E{j}", tuple(rng.sample(attrs, rng.randint(1, min(3, n)))))
        for j in range(rng.randint(1, max_edges))
    ]
    h = Hypergraph.build(edges)
    verts = sorted(h.vertices)
    alpha = AggregationOrdering(
        tuple((a, rng.choice(ops)) for a in rng.sample(verts, rng.randint(0, len(verts))))
    )
    return h, alpha
