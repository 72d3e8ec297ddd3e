"""The chunked column-wise CSV loader against the row loop it replaced,
kept here as the reference."""

import csv
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ajar import AnnotatedRelation, QueryError, get_semiring
from ajar import dataio
from ajar.dataio import (
    ANNOTATION_COLUMN,
    load_query_data,
    load_relation_csv,
    load_stats_json,
    parse_value,
)
from ajar.queries import parse_query
from ajar.semirings import builtin_semirings


def reference_load(path, semiring):
    """The row-at-a-time loader as it stood before the column-wise load."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise QueryError(f"{path}: empty relation file") from None
        header = [col.strip() for col in header]
        if not header or header[-1] != ANNOTATION_COLUMN:
            raise QueryError(f"{path}: last column must be {ANNOTATION_COLUMN}")
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


def _outcome(load, path, semiring):
    """What a loader gives: schema and items with their types and order, or
    the error message."""
    try:
        rel = load(path, semiring)
    except QueryError as exc:
        return f"QueryError: {exc}"
    return rel.schema, repr(list(rel.tuples.items()))


def _annotation(rng, semiring):
    if semiring.name == "qplus":
        return rng.choice(["0", "3", "3/4", "1.5", "0/2", " 7/3 "])
    if semiring.name == "minplus":
        return rng.choice(["0", "5", "-2", "inf", " inf ", " 4"])
    if semiring.name == "bool01":
        return rng.choice(["0", "1", " 1 "])
    return rng.choice(["0", "1", "-3", "12", " 5 ", "+2"])


def _cell(rng, kind):
    """A key cell of an int, string or mixed column, maybe padded or holding
    a comma (which the writer quotes)."""
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        text = str(rng.randint(-3, 30))
    else:
        text = rng.choice(["a", "b", "x,y", "z z", "c,", "αβ"]) + str(rng.randint(0, 9))
    pad = rng.choice(["", "", " ", "  "])
    return pad + text + rng.choice(["", "", " "])


def _random_csv(rng, semiring, rows, fault=None) -> str:
    """A CSV whose keys are distinct after parsing, blank lines included;
    ``fault`` plants a ragged row, a repeated key or a bad annotation."""
    arity = rng.randint(0, 3)
    kinds = [rng.choice(["int", "string", "mixed"]) for _ in range(arity)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"C{i}" for i in range(arity)] + [ANNOTATION_COLUMN])
    body, seen = [], set()
    for _ in range(rows if arity else min(rows, 1)):
        cells = [_cell(rng, kind) for kind in kinds]
        key = tuple(parse_value(c) for c in cells)
        if key not in seen:
            seen.add(key)
            body.append(cells + [_annotation(rng, semiring)])
    if fault and body:
        at = rng.randrange(len(body))
        if fault == "ragged":
            body[at] = body[at][:-1] + ["1", "2"]
        elif fault == "repeat" and len(body) > 1:
            # the repeat may differ from its first occurrence in padding only
            body.append([" " + c for c in body[rng.randrange(len(body))][:-1]] + ["1"])
        elif fault == "annotation":
            body[at][-1] = rng.choice(["x", "1.5.", "", "1/0", "2"])
    for row in body:
        if rng.random() < 0.05:
            out.write("\n")
        writer.writerow(row)
    return out.getvalue()


SEMIRINGS = [spec.name for spec in builtin_semirings()]


class TestEquivalence:
    @pytest.mark.parametrize("name", SEMIRINGS)
    def test_sweep_matches_row_loop(self, tmp_path, monkeypatch, name):
        # a small chunk puts most files across several chunks
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 5)
        semiring = get_semiring(name)
        rng = random.Random(f"sweep-{name}")
        path = tmp_path / "R.csv"
        loaded = errors = 0
        for _ in range(150):
            fault = rng.choice([None, None, "ragged", "repeat", "annotation"])
            path.write_text(_random_csv(rng, semiring, rng.randint(0, 24), fault), "utf-8")
            want = _outcome(reference_load, path, semiring)
            assert _outcome(load_relation_csv, path, semiring) == want, path.read_text()
            errors += isinstance(want, str)
            loaded += not isinstance(want, str)
        assert loaded > 50 and errors > 20

    @pytest.mark.parametrize("name", SEMIRINGS)
    def test_files_longer_than_one_chunk(self, tmp_path, name):
        semiring = get_semiring(name)
        rng = random.Random(f"long-{name}")
        path = tmp_path / "R.csv"
        text = _random_csv(rng, semiring, 2 * dataio.CHUNK_ROWS + 100)
        while text.count("\n") < dataio.CHUNK_ROWS + 2:  # arity 0 writes one row
            text = _random_csv(rng, semiring, 2 * dataio.CHUNK_ROWS + 100)
        path.write_text(text, "utf-8")
        assert _outcome(load_relation_csv, path, semiring) == _outcome(
            reference_load, path, semiring
        )

    def test_zero_annotations_dropped_and_types_kept(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,B,__annotation\n1, x ,3/4\n2,y,0\n\n 3,\"a,b\",2\n", "utf-8")
        rel = load_relation_csv(path, get_semiring("qplus"))
        assert rel.schema == ("A", "B")
        assert list(rel.tuples.items()) == [((1, "x"), Fraction(3, 4)), ((3, "a,b"), Fraction(2))]
        assert all(type(lam) is Fraction for lam in rel.tuples.values())


class TestErrors:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 4)

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("int", "A,B,__annotation\n1,2,3\n\n1,2\n", "4: wrong column count"),
            ("int", "A,__annotation\n1,5\n 1,6\n", "3: duplicate tuple (1,)"),
            ("int", "A,__annotation\n1,0\n1,6\n", "3: duplicate tuple (1,)"),
            # the first chunk holds rows 2-5, the repeat sits in the second
            ("int", "A,__annotation\n1,1\n2,1\n3,1\n4,1\n5,1\n2 ,1\n", "7: duplicate tuple (2,)"),
            ("int", "A,__annotation\n1,1\n2,1\n3,1\n4,1\n5,1\nx,1\n6, x \n",
             "8: bad annotation 'x' for semiring 'int'"),
            ("qplus", "A,__annotation\n1,1\n2,1/0\n", "3: bad annotation '1/0' for semiring 'qplus'"),
            ("bool01", "A,__annotation\n1,1\n2,2\n", "3: annotation '2' outside boolean-01 domain"),
            ("int", "A,B\n1,2\n", " last column must be __annotation"),
            ("int", "", " empty relation file"),
        ],
        ids=["ragged", "padded-repeat", "repeat-of-zero", "repeat-across-chunks",
             "annotation-second-chunk", "qplus-division", "bool-range", "header", "empty"],
    )
    def test_message_names_file_and_line(self, tmp_path, name, text, message):
        path = tmp_path / "R.csv"
        path.write_text(text, "utf-8")
        with pytest.raises(QueryError) as exc:
            load_relation_csv(path, get_semiring(name))
        assert str(exc.value) == f"{path}:{message}"
        assert _outcome(reference_load, path, get_semiring(name)) == f"QueryError: {exc.value}"

    @pytest.mark.parametrize("row", [10, 4500])
    def test_non_utf8_names_first_bad_byte(self, tmp_path, int_sr, row):
        # row 4,500 lies in the second chunk and past the reader's first block
        lines = [f"{i},{i % 7}" for i in range(5000)]
        lines[row] = "9999,\xff"
        raw = ("A,__annotation\n" + "\n".join(lines) + "\n").encode("latin-1")
        path = tmp_path / "R.csv"
        path.write_bytes(raw)
        with pytest.raises(QueryError) as exc:
            load_relation_csv(path, int_sr)
        assert str(exc.value) == f"{path}: not valid UTF-8 (byte {raw.index(0xFF)})"


class TestPhysicalLines:
    """After a quoted cell that holds a newline, an error names the physical
    line where its record starts, not the record's number."""

    @pytest.fixture(autouse=True, params=[4096, 2, 1])
    def chunk_rows(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", request.param)

    @pytest.mark.parametrize(
        "text,message",
        [
            ('A,__annotation\n"x\ny",1\n1,x\n', "4: bad annotation 'x' for semiring 'int'"),
            ('A,__annotation\n"x\ny",1\n1,2,3\n', "4: wrong column count"),
            ('A,__annotation\n"x\ny",1\n1,1\n\n 1,2\n', "6: duplicate tuple (1,)"),
            ('A,__annotation\n1,1\n"a\nb",x\n', "3: bad annotation 'x' for semiring 'int'"),
            ('"A\n",__annotation\n1,1\n1,1\n', "4: duplicate tuple (1,)"),
        ],
        ids=["annotation", "ragged", "repeat", "record-spans-lines", "header-spans-lines"],
    )
    def test_message_names_physical_line(self, tmp_path, text, message):
        path = tmp_path / "R.csv"
        path.write_text(text, "utf-8")
        with pytest.raises(QueryError) as exc:
            load_relation_csv(path, get_semiring("int"))
        assert str(exc.value) == f"{path}:{message}"

    def test_repeat_reported_before_its_annotation(self, tmp_path):
        # a row that repeats a key and has a bad annotation: the repeat is named
        path = tmp_path / "R.csv"
        path.write_text("A,__annotation\n1,1\n1,x\n", "utf-8")
        want = _outcome(reference_load, path, get_semiring("int"))
        assert want == f"QueryError: {path}:3: duplicate tuple (1,)"
        assert _outcome(load_relation_csv, path, get_semiring("int")) == want


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet programs write it, is not
    part of the first attribute's name."""

    def test_header_maps_atom_by_name(self, tmp_path, int_sr):
        path = tmp_path / "R.csv"
        path.write_bytes(b"\xef\xbb\xbfB,A,__annotation\n2,1,5\n")
        rel = load_query_data(parse_query("Q() = sum[A] sum[B] R(A,B)"), tmp_path, int_sr)["R"]
        assert rel.schema == ("A", "B")
        assert rel.tuples == {(1, 2): 5}

    def test_row_loop_skips_it(self, tmp_path, int_sr):
        # the one-row pass, which names a bad row's line
        path = tmp_path / "R.csv"
        path.write_bytes(b"\xef\xbb\xbfB,A,__annotation\n2,1,5\n")
        assert dataio._load_columns(path, int_sr, 1).schema == ("B", "A")

    def test_json_skips_it(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'\xef\xbb\xbf{"R": 3}')
        assert load_stats_json(path) == {"R": 3}

    def test_bad_byte_offset_counts_the_mark(self, tmp_path, int_sr):
        path = tmp_path / "R.csv"
        raw = b"\xef\xbb\xbfA,__annotation\n1,\xff\n"
        path.write_bytes(raw)
        with pytest.raises(QueryError) as exc:
            load_relation_csv(path, int_sr)
        assert str(exc.value) == f"{path}: not valid UTF-8 (byte {raw.index(0xFF)})"


class TestFastPath:
    def test_clean_files_never_reach_the_row_loop(self, tmp_path, monkeypatch):
        # the row loop is the one-row pass of the chunked load
        fallbacks = []
        original = dataio._load_columns

        def spy(path, semiring, rows):
            if rows == 1:
                fallbacks.append(path)
            return original(path, semiring, rows)

        monkeypatch.setattr(dataio, "_load_columns", spy)
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 5)
        rng = random.Random("fast-path")
        path = tmp_path / "R.csv"
        for name in SEMIRINGS * 10:
            semiring = get_semiring(name)
            path.write_text(_random_csv(rng, semiring, rng.randint(0, 24)), "utf-8")
            load_relation_csv(path, semiring)
        # an empty relation is falsy but no failure
        for text in ("A,__annotation\n", "A,__annotation\n1,0\n"):
            path.write_text(text, "utf-8")
            assert load_relation_csv(path, get_semiring("int")).tuples == {}
        assert fallbacks == []
        # the spy sees the row loop when a file needs it
        path.write_text("A,__annotation\n1,1\n1,1\n", "utf-8")
        with pytest.raises(QueryError):
            load_relation_csv(path, get_semiring("int"))
        assert fallbacks == [path]
