"""Commutative semirings used to annotate relations.

A semiring spec bundles one multiplication with a family of named additive
operators that all share the same zero and one.  Annotation values are kept
exact (ints, Fractions, or an explicit infinity sentinel), never floats.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial, reduce
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import QueryError

# Distinguished operator name for aggregation by the semiring multiplication.
PRODUCT = "prod"


class _Infinity:
    """Sentinel for the min-plus zero; compares greater than every int and
    absorbs addition, so builtin ``min`` and ``+`` are min-plus's ⊕ and ⊗."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = _Infinity()


class SemiringSpec(NamedTuple):
    """A domain of annotation values with one ⊗ and several named ⊕ operators."""

    name: str
    domain: str  # nonneg-real | integer | extended-integer-with-infinity | boolean-01
    additive_ops: Mapping[str, Callable[[Any, Any], Any]]
    multiply: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    multiply_idempotent: bool = False

    def additive(self, op_name: str) -> Callable[[Any, Any], Any]:
        try:
            return self.additive_ops[op_name]
        except KeyError:
            raise QueryError(
                f"semiring {self.name!r} has no additive operator {op_name!r}"
            ) from None

    def fold(self, op_name: str) -> Callable[[Iterable], Any]:
        """The fold of ``op_name`` over an iterable: ``reduce(op, it, zero)``,
        as one built-in call where the operator is ``operator.add``, ``min``
        or ``max`` (annotations are never floats, so ``sum`` adds exactly)."""
        op = self.additive(op_name)
        zero = self.zero
        if op is operator.add:
            return partial(sum, start=zero)
        if op is min or op is max:
            return partial(op, default=zero)
        return lambda values: reduce(op, values, zero)

    def knows_op(self, op_name: str) -> bool:
        return op_name == PRODUCT or op_name in self.additive_ops

    def parse_annotation(self, text: str) -> Any:
        text = text.strip()
        if self.domain == "extended-integer-with-infinity":
            return INF if text == "inf" else int(text)
        if self.domain == "integer":
            return int(text)
        if self.domain == "boolean-01":
            value = int(text)
            if value not in (0, 1):
                raise QueryError(f"annotation {text!r} outside boolean-01 domain")
            return value
        if self.domain == "nonneg-real":
            value = Fraction(text)
            if value < 0:
                raise QueryError(f"annotation {text!r} outside nonneg-real domain")
            return value
        return int(text)

    def parse_column(self, cells: Sequence[str]) -> list:
        """``parse_annotation`` over a column of cells.  In the two integer
        domains one ``map(int, …)`` gives the same values, since ``int``
        strips a cell itself; a column it rejects ("inf", say) is parsed
        again a cell at a time."""
        if self.domain in ("integer", "extended-integer-with-infinity"):
            try:
                return list(map(int, cells))
            except ValueError:
                pass
        return list(map(self.parse_annotation, cells))

    def format_annotation(self, value: Any) -> str:
        return "inf" if value is INF else str(value)


_REGISTRY: dict[str, SemiringSpec] = {}


def register_semiring(spec: SemiringSpec) -> SemiringSpec:
    if spec.name in _REGISTRY:
        raise QueryError(f"semiring {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_semiring(name: str) -> SemiringSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise QueryError(f"unknown semiring {name!r}") from None


def builtin_semirings() -> tuple[SemiringSpec, ...]:
    return tuple(_REGISTRY[n] for n in ("int", "qplus", "minplus", "bool01"))


register_semiring(
    SemiringSpec(
        name="int",
        domain="integer",
        additive_ops={"sum": operator.add},
        multiply=operator.mul,
        zero=0,
        one=1,
    )
)

register_semiring(
    SemiringSpec(
        name="qplus",
        domain="nonneg-real",
        additive_ops={"sum": operator.add, "max": max},
        multiply=operator.mul,
        zero=Fraction(0),
        one=Fraction(1),
    )
)

register_semiring(
    SemiringSpec(
        name="minplus",
        domain="extended-integer-with-infinity",
        additive_ops={"min": min},
        multiply=operator.add,
        zero=INF,
        one=0,
    )
)

register_semiring(
    SemiringSpec(
        name="bool01",
        domain="boolean-01",
        additive_ops={"max": max},
        multiply=operator.mul,
        zero=0,
        one=1,
        multiply_idempotent=True,
    )
)


def sample_values(spec: SemiringSpec, rng, count: int) -> list:
    """Draw annotation values for law checking, zero and one included."""
    if spec.domain == "integer":
        pool = [rng.randint(-6, 6) for _ in range(count)]
    elif spec.domain == "nonneg-real":
        pool = [Fraction(rng.randint(0, 24), rng.randint(1, 6)) for _ in range(count)]
    elif spec.domain == "extended-integer-with-infinity":
        pool = [INF if rng.random() < 0.15 else rng.randint(0, 9) for _ in range(count)]
    elif spec.domain == "boolean-01":
        pool = [rng.randint(0, 1) for _ in range(count)]
    else:
        pool = [rng.randint(0, 9) for _ in range(count)]
    pool[:2] = [spec.zero, spec.one]
    return pool


def check_laws(spec: SemiringSpec, rng, triples: int = 1000) -> None:
    """Sampled identity/annihilation/associativity/commutativity/distributivity.

    Raises AssertionError on the first violated law.
    """
    values = sample_values(spec, rng, max(3 * triples, 16))
    mul = spec.multiply
    for k in range(triples):
        a, b, c = values[3 * k], values[3 * k + 1], values[3 * k + 2]
        assert mul(spec.zero, a) == spec.zero, f"{spec.name}: 0 ⊗ a != 0"
        assert mul(spec.one, a) == a, f"{spec.name}: 1 ⊗ a != a"
        assert mul(a, b) == mul(b, a), f"{spec.name}: ⊗ not commutative"
        assert mul(mul(a, b), c) == mul(a, mul(b, c)), f"{spec.name}: ⊗ not associative"
        if spec.multiply_idempotent:
            assert mul(a, a) == a, f"{spec.name}: ⊗ not idempotent"
        for op_name, add in spec.additive_ops.items():
            assert add(spec.zero, a) == a, f"{spec.name}/{op_name}: 0 ⊕ a != a"
            assert add(a, b) == add(b, a), f"{spec.name}/{op_name}: ⊕ not commutative"
            assert add(add(a, b), c) == add(a, add(b, c)), (
                f"{spec.name}/{op_name}: ⊕ not associative"
            )
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), (
                f"{spec.name}/{op_name}: ⊗ does not distribute over ⊕"
            )

