"""Record types: immutable ones refuse assignment and hash by value, and the
library declares them without generating code at import time."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ajar import AggregationOrdering, Hypergraph, QueryError, get_semiring
from ajar.ghd import WidthReport
from ajar.hypergraph import Edge
from ajar.oracle import EquivVerdict, RandomInstanceSpec
from ajar.ordering import PrecedenceRelation, Violation
from ajar.queries import Atom, Token, parse_query
from ajar.relations import DomainRegistry

SRC = Path(__file__).resolve().parent.parent / "src"
QUERY = "Q(A) = sum[B] R(A,B), S(B)"


def _records():
    """(build, field) per immutable record type; build() makes a fresh,
    equal instance on every call."""
    return [
        (lambda: Edge("R", frozenset({"A", "B"})), "name"),
        (lambda: Hypergraph.build([("R", ("A", "B")), ("S", ("B",))]), "edges"),
        (lambda: Violation("A", "B", "rule", ("A", "B")), "rule"),
        (lambda: PrecedenceRelation(frozenset({("A", "B")}), frozenset(),
                                    frozenset({"C"}), frozenset({"A", "B"})), "prec"),
        (lambda: Token("name", "R", 1, 3), "text"),
        (lambda: Atom("R", "R", ("A", "B")), "attrs"),
        (lambda: parse_query(QUERY), "ordering"),
        (lambda: DomainRegistry({"A": frozenset({1, 2})}), "values"),
        (lambda: get_semiring("int"), "zero"),
        (lambda: WidthReport("unit", {0: Fraction(3, 2)}), "per_bag"),
        (lambda: RandomInstanceSpec(seed=3), "seed"),
        (lambda: EquivVerdict(False), "counterexample"),
        (lambda: AggregationOrdering((("B", "sum"),)), "items"),
    ]


RECORDS = _records()
NAMES = [type(build()).__name__ for build, _ in RECORDS]


@pytest.mark.parametrize("build,field", RECORDS, ids=NAMES)
def test_assigning_a_field_raises(build, field):
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("build,field", RECORDS, ids=NAMES)
def test_equal_records_hash_equal(build, field):
    a, b = build(), build()
    assert a == b
    try:
        hash(a)
    except TypeError:  # a dict field: unhashable on both sides
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(a) == hash(b)


def test_ordering_hashes_as_the_one_tuple_of_its_items():
    # set iteration orders, and so plans, depend on this exact value
    items = (("A", "sum"), ("B", "max"))
    assert hash(AggregationOrdering(items)) == hash((items,))
    assert hash(AggregationOrdering(())) == hash(((),))


def test_ordering_refuses_a_repeated_attribute():
    with pytest.raises(QueryError, match="repeated"):
        AggregationOrdering((("A", "sum"), ("B", "max"), ("A", "sum")))


def test_empty_ordering_is_falsy():
    empty = AggregationOrdering(())
    assert len(empty) == 0
    assert not empty
    assert empty == AggregationOrdering.of()


def test_import_generates_no_code():
    # @dataclass builds its methods by exec at class creation, the bulk of
    # a cold `import ajar`; neither it nor the inspect it imports may load
    probe = (
        "import sys; before = set(sys.modules); import ajar, ajar.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
