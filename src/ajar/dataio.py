"""CSV relation files, domain declarations, statistics, and plan export.

Every input is read as UTF-8, a leading byte-order mark skipped.  Relation
files are parsed a column at a time in bounded chunks; a row-at-a-time loop
runs only to report a bad row by its ``file:line``.
"""

from __future__ import annotations

import csv
import json
from itertools import islice, repeat
from pathlib import Path
from typing import Mapping, Optional

from .errors import QueryError
from .queries import ParsedQuery
from .relations import AnnotatedRelation, DomainRegistry
from .semirings import SemiringSpec

ANNOTATION_COLUMN = "__annotation"
CHUNK_ROWS = 4096  # rows parsed per chunk: bounds the rows held as strings


def parse_value(text: str):
    """Attribute values: integers where possible, strings otherwise."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def format_value(value) -> str:
    return str(value)


def load_relation_csv(
    path: str | Path,
    semiring: SemiringSpec,
    schema: Optional[tuple[str, ...]] = None,
) -> AnnotatedRelation:
    """Header row: attribute names then __annotation.

    Rows are read in chunks of ``CHUNK_ROWS`` and parsed a column at a time:
    ``int`` over each key column (``parse_value`` for a column where that
    fails) and ``SemiringSpec.parse_column`` over the annotations, so the
    cost is a Python call per chunk and column rather than per cell.  A
    ragged row, a repeated key or an annotation that does not
    parse sends the whole file back to the row loop, which raises the
    ``file:line`` error.  Zero annotations are dropped after the duplicate
    check.  When a schema is given (per-atom renaming), columns map as
    ``_atom_relation`` maps them.
    """
    path = Path(path)
    try:
        rel = _load_columns(path, semiring)
        if rel is None:
            rel = _load_rows(path, semiring)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return rel if schema is None else _atom_relation(path, rel, schema)


def _header(path: Path, reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise QueryError(f"{path}: empty relation file") from None
    header = [col.strip() for col in header]
    if not header or header[-1] != ANNOTATION_COLUMN:
        raise QueryError(f"{path}: last column must be {ANNOTATION_COLUMN}")
    return header


def _load_columns(path: Path, semiring: SemiringSpec) -> Optional[AnnotatedRelation]:
    """The chunked column-wise load, or None where the row loop must report."""
    tuples: dict = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        width = len(header)
        while chunk := list(islice(reader, CHUNK_ROWS)):
            lengths = set(map(len, chunk))
            if lengths != {width}:
                if not lengths <= {0, width}:
                    return None  # a ragged row
                chunk = list(filter(None, chunk))  # blank lines
                if not chunk:
                    continue
            *keys, annotations = zip(*chunk)
            before = len(tuples)
            try:
                keys = zip(*map(_parse_keys, keys)) if keys else repeat((), len(chunk))
                tuples.update(zip(keys, semiring.parse_column(annotations)))
            except (ValueError, ArithmeticError, QueryError):
                return None  # a bad annotation
            if len(tuples) != before + len(chunk):
                return None  # a repeated key
    rel = AnnotatedRelation.empty(header[:-1])
    zero = semiring.zero
    rel.tuples = (
        {key: lam for key, lam in tuples.items() if lam != zero}
        if zero in tuples.values()
        else tuples
    )
    return rel


def _parse_keys(column: tuple[str, ...]) -> list:
    try:
        return list(map(int, column))
    except ValueError:
        return list(map(parse_value, column))


def _load_rows(path: Path, semiring: SemiringSpec) -> AnnotatedRelation:
    """The row-at-a-time load, which names the line of the first bad row."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        rows = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise QueryError(f"{path}:{lineno}: wrong column count")
            key = tuple(parse_value(cell) for cell in row[:-1])
            if key in rows:
                raise QueryError(f"{path}:{lineno}: duplicate tuple {key}")
            try:
                rows[key] = semiring.parse_annotation(row[-1])
            except (ValueError, ArithmeticError):
                raise QueryError(
                    f"{path}:{lineno}: bad annotation {row[-1].strip()!r} "
                    f"for semiring {semiring.name!r}"
                ) from None
            except QueryError as exc:
                raise QueryError(f"{path}:{lineno}: {exc}") from None
    return AnnotatedRelation(header[:-1], rows, zero=semiring.zero)


def _not_utf8(path: str | Path) -> QueryError:
    """The error for a file that does not decode: its name and the offset,
    from 0, of its first bad byte.  A text reader's own exception counts from
    the block it was decoding, so the offset comes from the whole file."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return QueryError(f"{path}: not valid UTF-8 (byte {exc.start})")
    return QueryError(f"{path}: not valid UTF-8")


def read_text(path: str | Path) -> str:
    """A whole text file read as UTF-8 without its byte-order mark; bad
    bytes are a QueryError."""
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _atom_relation(
    path: Path, rel: AnnotatedRelation, attrs: tuple[str, ...]
) -> AnnotatedRelation:
    """A file's relation as the relation of an atom over attrs.  A header
    naming the atom's attributes maps by name; otherwise columns map by
    position and the atom's relation shares the file's tuple map."""
    if len(attrs) != len(rel.schema):
        raise QueryError(f"{path}: {len(rel.schema)} columns, atom wants {len(attrs)}")
    if set(attrs) == set(rel.schema):
        return rel.reorder(attrs)
    out = AnnotatedRelation.empty(attrs)
    out.tuples = rel.tuples
    return out


def write_relation_csv(
    rel: AnnotatedRelation, semiring: SemiringSpec, path: str | Path
) -> None:
    """Rows sorted lexicographically for diffability."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rel.schema) + [ANNOTATION_COLUMN])
        body = [
            [format_value(v) for v in row] + [semiring.format_annotation(lam)]
            for row, lam in rel.tuples.items()
        ]
        body.sort()
        writer.writerows(body)


def load_query_data(
    query: ParsedQuery, data_dir: str | Path, semiring: SemiringSpec
) -> dict[str, AnnotatedRelation]:
    """One <RelationName>.csv per relation name, parsed once however many
    atoms read it; each atom's columns map as ``_atom_relation`` maps them,
    so atoms mapped by position share one tuple map."""
    data_dir = Path(data_dir)
    files: dict[str, AnnotatedRelation] = {}
    out = {}
    for atom in query.atoms:
        path = data_dir / f"{atom.relation}.csv"
        if atom.relation not in files:
            if not path.exists():
                raise QueryError(f"missing relation file {path}")
            files[atom.relation] = load_relation_csv(path, semiring)
        out[atom.edge_name] = _atom_relation(path, files[atom.relation], atom.attrs)
    return out


def _read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object a file holds; bad JSON is a QueryError naming the
    file and line."""
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise QueryError(f"{path}:{exc.lineno}: bad JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise QueryError(f"{path}: {what} file must be a JSON object")
    return raw


def load_domains_json(
    path: Optional[str | Path],
    relations: Mapping[str, AnnotatedRelation],
) -> DomainRegistry:
    """Map attribute -> explicit value list or "active"; default active."""
    declarations = {}
    if path is not None:
        for attr, decl in _read_json_object(path, "domains").items():
            if decl == "active":
                declarations[attr] = "active"
            elif isinstance(decl, list):
                declarations[attr] = [parse_value(str(v)) for v in decl]
            else:
                raise QueryError(f"domain for {attr!r} must be a list or \"active\"")
    return DomainRegistry.from_declarations(declarations, relations)


def load_stats_json(path: str | Path) -> dict[str, int]:
    """Map relation name -> cardinality."""
    sizes = {}
    for name, value in _read_json_object(path, "stats").items():
        if not isinstance(value, int) or value <= 0:
            raise QueryError(f"size for {name!r} must be a positive integer")
        sizes[name] = value
    return sizes


def edge_sizes(
    query: ParsedQuery, stats: Optional[dict[str, int]]
) -> Optional[dict[str, int]]:
    """Translate per-relation stats to per-edge sizes (repeated atoms share)."""
    if stats is None:
        return None
    sizes = {}
    for atom in query.atoms:
        if atom.relation not in stats:
            raise QueryError(f"no size for relation {atom.relation!r}")
        sizes[atom.edge_name] = stats[atom.relation]
    return sizes
