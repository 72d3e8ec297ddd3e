"""Annotated relations and the relational operators over them.

A relation maps value tuples to nonzero annotations; a zero annotation is
represented by absence, so canonical form makes relation equality a plain
map comparison.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

from .errors import InternalError, QueryError
from .semirings import SemiringSpec


class AnnotatedRelation:
    """Schema plus a finite map from value tuples to nonzero annotations."""

    __slots__ = ("schema", "tuples")

    def __init__(
        self,
        schema: Iterable[str],
        tuples: Mapping[tuple, Any] | Iterable[tuple[tuple, Any]],
        zero: Any = None,
    ):
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise QueryError(f"duplicate attribute in schema {self.schema}")
        items = tuples.items() if isinstance(tuples, Mapping) else tuples
        store: dict[tuple, Any] = {}
        for row, annotation in items:
            row = tuple(row)
            if len(row) != len(self.schema):
                raise QueryError(f"tuple {row} does not match schema {self.schema}")
            if annotation == zero:
                continue  # zero annotation ≡ absent tuple
            if row in store:
                raise QueryError(f"duplicate tuple {row}")
            store[row] = annotation
        self.tuples = store

    @classmethod
    def empty(cls, schema: Iterable[str]) -> "AnnotatedRelation":
        return cls(schema, {})

    def __len__(self):
        return len(self.tuples)

    def __bool__(self):
        return bool(self.tuples)

    def __eq__(self, other):
        """Equality up to column order: same attributes, same tuple map."""
        if not isinstance(other, AnnotatedRelation):
            return NotImplemented
        if set(self.schema) != set(other.schema):
            return False
        return self.reorder(sorted(self.schema)).tuples == other.reorder(
            sorted(other.schema)
        ).tuples

    def __repr__(self):
        rows = ", ".join(f"{t}->{a}" for t, a in sorted(self.tuples.items(), key=repr))
        return f"AnnotatedRelation({','.join(self.schema)}: {rows})"

    def reorder(self, schema: Iterable[str]) -> "AnnotatedRelation":
        """Same relation with columns permuted to the given order."""
        schema = tuple(schema)
        if schema == self.schema:
            return self
        if set(schema) != set(self.schema):
            raise QueryError(f"cannot reorder {self.schema} as {schema}")
        idx = [self.schema.index(a) for a in schema]
        out = AnnotatedRelation.empty(schema)
        out.tuples = {tuple(row[i] for i in idx): lam for row, lam in self.tuples.items()}
        return out

    def rename(self, mapping: Mapping[str, str]) -> "AnnotatedRelation":
        out = AnnotatedRelation.empty(tuple(mapping.get(a, a) for a in self.schema))
        out.tuples = dict(self.tuples)
        return out

    def distinct(self, attr: str) -> set:
        i = self.schema.index(attr)
        return {row[i] for row in self.tuples}


def project_ones(rel: AnnotatedRelation, attrs: Iterable[str], one: Any) -> AnnotatedRelation:
    """π¹: project tuples onto attrs, replacing every annotation by one."""
    attrs = tuple(a for a in rel.schema if a in set(attrs))
    idx = [rel.schema.index(a) for a in attrs]
    out = AnnotatedRelation.empty(attrs)
    out.tuples = {tuple(row[i] for i in idx): one for row in rel.tuples}
    return out


class DomainRegistry(NamedTuple):
    """Per-attribute finite value domains, explicit or active."""

    values: Mapping[str, frozenset]

    @classmethod
    def from_declarations(
        cls,
        declarations: Mapping[str, Any],
        relations: Mapping[str, AnnotatedRelation] | None = None,
    ) -> "DomainRegistry":
        """Build domains from explicit lists plus active domains for the rest.

        declarations maps attribute -> list of values or the string "active".
        Attributes not declared default to active.  Active domains collect all
        values appearing for that attribute across the given relations.
        """
        active: dict[str, set] = {}
        for rel in (relations or {}).values():
            for attr in rel.schema:
                active.setdefault(attr, set()).update(rel.distinct(attr))
        resolved: dict[str, frozenset] = {}
        for attr, decl in declarations.items():
            if decl == "active":
                resolved[attr] = frozenset(active.get(attr, set()))
            else:
                resolved[attr] = frozenset(decl)
        for attr, seen in active.items():
            if attr in resolved:
                missing = seen - resolved[attr]
                if missing:
                    raise QueryError(
                        f"values {sorted(missing, key=repr)} for attribute {attr!r} "
                        f"outside its declared domain"
                    )
            else:
                resolved[attr] = frozenset(seen)
        return cls(values=resolved)

    def domain(self, attr: str) -> frozenset:
        try:
            return self.values[attr]
        except KeyError:
            raise QueryError(f"attribute {attr!r} has no declared domain") from None

    def with_copies(self, copies: Mapping[str, str]) -> "DomainRegistry":
        """Extend with renamed attribute copies sharing the original domain."""
        extended = dict(self.values)
        for copy_name, original in copies.items():
            extended[copy_name] = self.domain(original)
        return DomainRegistry(values=extended)


def join(
    relations: Iterable[AnnotatedRelation], semiring: SemiringSpec
) -> AnnotatedRelation:
    """Natural join; each output annotation is the ⊗-product of its inputs."""
    relations = list(relations)
    if not relations:
        return AnnotatedRelation((), {(): semiring.one})
    acc = relations[0]
    for rel in relations[1:]:
        acc = _join_pair(acc, rel, semiring)
    return acc


def _join_pair(
    left: AnnotatedRelation, right: AnnotatedRelation, semiring: SemiringSpec
) -> AnnotatedRelation:
    shared = tuple(a for a in left.schema if a in right.schema)
    right_extra = tuple(a for a in right.schema if a not in left.schema)
    schema = left.schema + right_extra
    left_key = [left.schema.index(a) for a in shared]
    right_key = [right.schema.index(a) for a in shared]
    right_extra_idx = [right.schema.index(a) for a in right_extra]

    buckets: dict[tuple, list[tuple[tuple, Any]]] = {}
    for row, lam in right.tuples.items():
        key = tuple(row[i] for i in right_key)
        buckets.setdefault(key, []).append((tuple(row[i] for i in right_extra_idx), lam))

    out = AnnotatedRelation.empty(schema)
    store = out.tuples
    mul = semiring.multiply
    zero = semiring.zero
    for row, lam in left.tuples.items():
        key = tuple(row[i] for i in left_key)
        for extra, rlam in buckets.get(key, ()):
            annotation = mul(lam, rlam)
            if annotation != zero:
                store[row + extra] = annotation
    return out


def aggregate(
    rel: AnnotatedRelation, attr: str, op: str, semiring: SemiringSpec
) -> AnnotatedRelation:
    """⊕-fold annotations over groups sharing all attributes except attr."""
    if attr not in rel.schema:
        raise QueryError(f"cannot aggregate unknown attribute {attr!r}")
    add = semiring.additive(op)
    keep = tuple(a for a in rel.schema if a != attr)
    idx = [rel.schema.index(a) for a in keep]
    out = AnnotatedRelation.empty(keep)
    store: dict[tuple, Any] = {}
    for row, lam in rel.tuples.items():
        key = tuple(row[i] for i in idx)
        store[key] = add(store[key], lam) if key in store else lam
    out.tuples = {k: v for k, v in store.items() if v != semiring.zero}
    return out


def product_aggregate(
    rel: AnnotatedRelation,
    attr: str,
    domains: DomainRegistry,
    semiring: SemiringSpec,
) -> AnnotatedRelation:
    """⊗-fold over groups; a group survives only if attr covers its full domain."""
    if not semiring.multiply_idempotent:
        raise QueryError(
            f"product aggregation requires idempotent multiplication; "
            f"semiring {semiring.name!r} is not"
        )
    if attr not in rel.schema:
        raise QueryError(f"cannot aggregate unknown attribute {attr!r}")
    full = domains.domain(attr)
    keep = tuple(a for a in rel.schema if a != attr)
    keep_idx = [rel.schema.index(a) for a in keep]
    attr_idx = rel.schema.index(attr)
    groups: dict[tuple, tuple[set, Any]] = {}
    mul = semiring.multiply
    for row, lam in rel.tuples.items():
        key = tuple(row[i] for i in keep_idx)
        value = row[attr_idx]
        if value not in full:
            raise InternalError(
                f"value {value!r} for {attr!r} outside its registered domain"
            )
        if key in groups:
            seen, acc = groups[key]
            seen.add(value)
            groups[key] = (seen, mul(acc, lam))
        else:
            groups[key] = ({value}, lam)
    out = AnnotatedRelation.empty(keep)
    out.tuples = {
        key: acc
        for key, (seen, acc) in groups.items()
        if seen == full and acc != semiring.zero
    }
    return out


def semijoin(left: AnnotatedRelation, right: AnnotatedRelation) -> AnnotatedRelation:
    """Tuples of left whose projection onto shared attributes appears in right."""
    shared = tuple(a for a in left.schema if a in right.schema)
    if not shared:
        return left if right.tuples else AnnotatedRelation.empty(left.schema)
    right_idx = [right.schema.index(a) for a in shared]
    right_keys = {tuple(row[i] for i in right_idx) for row in right.tuples}
    left_idx = [left.schema.index(a) for a in shared]
    out = AnnotatedRelation.empty(left.schema)
    out.tuples = {
        row: lam
        for row, lam in left.tuples.items()
        if tuple(row[i] for i in left_idx) in right_keys
    }
    return out
