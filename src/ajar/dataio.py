"""CSV relation files, domain declarations, statistics, and plan export.

Every input is read as UTF-8, a leading byte-order mark skipped.  Relation
files are parsed a column at a time in bounded chunks by one loop; when a
chunk fails, the same loop runs again one row per chunk to name the bad
row's ``file:line``, the physical line its record starts on.
"""

from __future__ import annotations

import csv
import json
from itertools import islice
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


def load_relation_csv(path: str | Path, semiring: SemiringSpec) -> AnnotatedRelation:
    """Header row: attribute names then __annotation.

    Rows are read in chunks of ``CHUNK_ROWS`` and parsed a column at a time:
    ``int`` over each key column (``parse_value`` for a column where that
    fails) and ``SemiringSpec.parse_column`` over the annotations, so the
    cost is a Python call per chunk and column rather than per cell.  A
    ragged row, a repeated key or an annotation that does not parse fails
    its chunk; the same loop then reads the file again one row per chunk,
    where the failing check raises the error naming the file and the
    physical line the bad record starts on.  Zero annotations are dropped
    after the duplicate check.
    """
    path = Path(path)
    try:
        rel = _load_columns(path, semiring, CHUNK_ROWS)
        if rel is None:  # an empty relation is falsy, a failed chunk None
            rel = _load_columns(path, semiring, 1)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return rel


def _header(path: Path, reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise QueryError(f"{path}: empty relation file") from None
    header = [col.strip() for col in header]
    if not header or header[-1] != ANNOTATION_COLUMN:
        raise QueryError(f"{path}: last column must be {ANNOTATION_COLUMN}")
    return header


def _load_columns(
    path: Path, semiring: SemiringSpec, rows: int
) -> Optional[AnnotatedRelation]:
    """The column-wise load, ``rows`` rows per chunk; None when a chunk
    fails.  With one row per chunk the failing check raises instead, in the
    order a row is checked: its length, its key, then its annotation."""
    tuples: dict = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        width = len(header)
        while True:
            where = reader.line_num + 1  # the line the chunk's first record starts on
            chunk = list(islice(reader, rows))
            if not chunk:
                break
            lengths = set(map(len, chunk))
            if lengths != {width}:
                if not lengths <= {0, width}:
                    return _failed(rows, f"{path}:{where}: wrong column count")
                chunk = list(filter(None, chunk))  # blank lines
                if not chunk:
                    continue
            *keys, annotations = zip(*chunk)
            keys = list(zip(*map(_parse_keys, keys))) if keys else [()] * len(chunk)
            if rows == 1 and keys[0] in tuples:
                raise QueryError(f"{path}:{where}: duplicate tuple {keys[0]}")
            before = len(tuples)
            try:
                tuples.update(zip(keys, semiring.parse_column(annotations)))
            except (ValueError, ArithmeticError):
                return _failed(
                    rows,
                    f"{path}:{where}: bad annotation {annotations[0].strip()!r} "
                    f"for semiring {semiring.name!r}",
                )
            except QueryError as exc:
                return _failed(rows, f"{path}:{where}: {exc}")
            if len(tuples) != before + len(chunk):
                return None  # a repeated key (a one-row chunk raised above)
    rel = AnnotatedRelation.empty(header[:-1])
    zero = semiring.zero
    rel.tuples = (
        {key: lam for key, lam in tuples.items() if lam != zero}
        if zero in tuples.values()
        else tuples
    )
    return rel


def _failed(rows: int, message: str) -> None:
    """A chunk's failure: the error when the chunk is one row, else None."""
    if rows == 1:
        raise QueryError(message) from None


def _parse_keys(column: tuple[str, ...]) -> list:
    try:
        return list(map(int, column))
    except ValueError:
        return list(map(parse_value, column))


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
    with Path(path).open("w", newline="") as fh:
        write_relation_rows(rel, semiring, csv.writer(fh))


def write_relation_rows(rel: AnnotatedRelation, semiring: SemiringSpec, writer) -> None:
    """The header, then the rows sorted as text, through a ``csv.writer``."""
    writer.writerow(list(rel.schema) + [ANNOTATION_COLUMN])
    body = [
        [*map(str, row), semiring.format_annotation(lam)]
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


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_domains_json(
    path: Optional[str | Path],
    relations: Mapping[str, AnnotatedRelation],
) -> DomainRegistry:
    """Map attribute -> explicit value list or "active"; default active.
    A listed value is an integer or a string, parsed as a CSV cell is."""
    declarations = {}
    if path is not None:
        for attr, decl in _read_json_object(path, "domains").items():
            if decl == "active":
                declarations[attr] = "active"
            elif isinstance(decl, list):
                for v in decl:
                    if not _is_int(v) and not isinstance(v, str):
                        raise QueryError(
                            f"{path}: domain for {attr!r} holds {v!r}, "
                            "which is not an integer or a string"
                        )
                declarations[attr] = [parse_value(str(v)) for v in decl]
            else:
                raise QueryError(f"{path}: domain for {attr!r} must be a list or \"active\"")
    return DomainRegistry.from_declarations(declarations, relations)


def load_stats_json(path: str | Path) -> dict[str, int]:
    """Map relation name -> cardinality."""
    sizes = {}
    for name, value in _read_json_object(path, "stats").items():
        if not _is_int(value) or value <= 0:
            raise QueryError(f"{path}: size for {name!r} must be a positive integer")
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
