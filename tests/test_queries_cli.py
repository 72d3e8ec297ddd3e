import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ajar import AnnotatedRelation, ParseError, QueryError, get_semiring
from ajar.cli import main
from ajar import dataio
from ajar.dataio import (
    load_domains_json,
    load_query_data,
    load_relation_csv,
    load_stats_json,
    write_relation_csv,
)
from ajar.queries import parse_agg_list, parse_query, print_query


class TestGrammar:
    def test_two_stage_sum(self):
        q = parse_query("Q(A) = sum[C] sum[B] R(A,B), S(B,C) @ semiring=int")
        assert q.head_attrs == ("A",)
        assert q.ordering.items == (("C", "sum"), ("B", "sum"))
        assert q.hypergraph.vertices == {"A", "B", "C"}
        assert q.semiring_name == "int"

    def test_three_operator_prefix(self):
        q = parse_query("Q() = min[B] max[A] sum[C] R(A,B), S(B,C)")
        assert q.ordering.items == (("B", "min"), ("A", "max"), ("C", "sum"))
        assert q.head_attrs == ()
        assert q.semiring_name is None

    def test_pure_join(self):
        q = parse_query("Q(A,B,C) = R(A,B), S(B,C)")
        assert q.ordering.items == ()
        assert q.head_attrs == ("A", "B", "C")

    def test_repeated_atoms_get_distinct_edges(self):
        q = parse_query("Q(A1,A3) = min[A2] R(A1,A2), R(A2,A3) @ semiring=minplus")
        assert [a.edge_name for a in q.atoms] == ["R#1", "R#2"]
        assert [a.relation for a in q.atoms] == ["R", "R"]

    def test_round_trip(self):
        texts = [
            "Q(A) = sum[C] sum[B] R(A,B), S(B,C) @ semiring=int",
            "Q() = min[B] max[A] sum[C] R(A,B), S(B,C)",
            "Q(A,B,C) = R(A,B), S(B,C)",
            "Q(A,C) = prod[B] R(A,B), S(B,C)",
        ]
        for text in texts:
            q = parse_query(text)
            assert parse_query(print_query(q)) == q

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_query("Q(A) = sum[C R(A,B)")
        assert err.value.line == 1
        assert err.value.column > 0

    def test_head_must_match_outputs(self):
        with pytest.raises(ParseError):
            parse_query("Q(A,B) = sum[B] R(A,B)")
        with pytest.raises(ParseError):
            parse_query("Q() = R(A,B)")

    def test_isolated_head_attribute_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Q(A,Z) = R(A,B), sum[B] S(B)")

    def test_unknown_operator_for_semiring(self):
        with pytest.raises(ParseError):
            parse_query("Q(A) = max[B] R(A,B) @ semiring=int")

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("Q() = sum[Z] max[A] sum[B] R(A,B)", "aggregated attribute 'Z' not in the body", 1, 11),
            ("Q(A) =\n  sum[Z] R(A,B)", "aggregated attribute 'Z' not in the body", 2, 7),
            ("Q() = sum[A] max[A] R(A)", "attribute 'A' aggregated twice", 1, 18),
            ("Q(A,B) = sum[B] R(A,B)", "head attributes may not be aggregated", 1, 5),
            ("Q(A,Z) = sum[B] R(A,B)", "head attributes must be exactly ['A']", 1, 5),
            ("Q(A,A) = sum[B] R(A,B)", "head attributes must be exactly ['A']", 1, 5),
            ("Q() = R(A,B)", "head attributes must be exactly ['A', 'B']", 1, 3),
            ("Q(A) = max[B] R(A,B) @ semiring=int", "operator 'max' unknown to semiring 'int'", 1, 8),
        ],
    )
    def test_semantic_error_points_at_offending_token(self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_query(text)
        assert str(err.value) == f"{message} (line {line}, column {column})"

    def test_agg_list_parsing(self):
        q = parse_query("Q(A) = sum[C] sum[B] R(A,B), S(B,C)")
        beta = parse_agg_list("sum[B] sum[C]", q.ordering)
        assert beta.items == (("B", "sum"), ("C", "sum"))
        bare = parse_agg_list("B C", q.ordering)
        assert bare.items == (("B", "sum"), ("C", "sum"))

    def test_fuzzed_garbage_raises_parse_errors(self):
        import random

        rng = random.Random(1234)
        alphabet = "QRSABC()[]=,@ semiring sum max prod \n\t*;:"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            try:
                parse_query(text)
            except ParseError:
                pass  # every rejection must be a located ParseError, never a crash


class TestDataIO:
    def test_relation_round_trip(self, tmp_path, fig1, int_sr):
        path = tmp_path / "R.csv"
        write_relation_csv(fig1["R"], int_sr, path)
        back = load_relation_csv(path, int_sr)
        assert back == fig1["R"]

    def test_inf_annotation_drops_tuple(self, tmp_path):
        mp = get_semiring("minplus")
        path = tmp_path / "W.csv"
        path.write_text("S,D,__annotation\n1,2,3\n2,3,inf\n")
        rel = load_relation_csv(path, mp)
        assert rel.tuples == {(1, 2): 3}

    def test_positional_schema_mapping(self, tmp_path, int_sr):
        path = tmp_path / "R.csv"
        path.write_text("src,dst,__annotation\n1,2,5\n")
        rel = load_query_data(parse_query("Q() = sum[A1] sum[A2] R(A1,A2)"), tmp_path, int_sr)["R"]
        assert rel.schema == ("A1", "A2")

    def test_name_based_mapping_when_attrs_match(self, tmp_path, int_sr):
        path = tmp_path / "R.csv"
        path.write_text("B,A,__annotation\n2,1,5\n")
        rel = load_query_data(parse_query("Q() = sum[A] sum[B] R(A,B)"), tmp_path, int_sr)["R"]
        assert rel.tuples == {(1, 2): 5}

    def test_self_join_parses_its_file_once(self, tmp_path, int_sr, monkeypatch):
        # the triangle's three atoms map src,dst by position onto one tuple map
        (tmp_path / "E.csv").write_text("src,dst,__annotation\n1,2,1\n2,3,1\n1,3,1\n")
        query = parse_query("Q() = sum[A] sum[B] sum[C] E(A,B), E(B,C), E(A,C)")
        parsed = []
        original = dataio.load_relation_csv

        def spy(*args, **kwargs):
            parsed.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(dataio, "load_relation_csv", spy)
        rels = load_query_data(query, tmp_path, int_sr)
        assert parsed == [tmp_path / "E.csv"]
        assert [rel.schema for rel in rels.values()] == [("A", "B"), ("B", "C"), ("A", "C")]
        assert len({id(rel.tuples) for rel in rels.values()}) == 1
        assert rels["E#1"].tuples == {(1, 2): 1, (2, 3): 1, (1, 3): 1}

    def test_shared_file_maps_by_name_per_atom(self, tmp_path, int_sr):
        # one parse, yet an atom over the header's attributes maps by name
        (tmp_path / "R.csv").write_text("B,A,__annotation\n2,1,5\n")
        query = parse_query("Q() = sum[A] sum[B] sum[C] R(A,B), R(B,C)")
        rels = load_query_data(query, tmp_path, int_sr)
        assert rels["R#1"].schema == ("A", "B") and rels["R#1"].tuples == {(1, 2): 5}
        assert rels["R#2"].schema == ("B", "C") and rels["R#2"].tuples == {(2, 1): 5}

    def test_missing_annotation_column(self, tmp_path, int_sr):
        path = tmp_path / "R.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(QueryError):
            load_relation_csv(path, int_sr)

    def test_domains_json(self, tmp_path, fig1):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"B": [1, 2, 3], "C": "active"}))
        doms = load_domains_json(path, fig1)
        assert doms.domain("B") == frozenset({1, 2, 3})
        assert doms.domain("C") == frozenset({1, 3})

    def test_stats_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"R": 10, "S": 20}))
        assert load_stats_json(path) == {"R": 10, "S": 20}
        path.write_text(json.dumps({"R": -1}))
        with pytest.raises(QueryError):
            load_stats_json(path)

    @pytest.mark.parametrize("value", [True, False, 1.5, "3", None, [3]])
    def test_stats_json_refuses_what_is_not_an_integer(self, tmp_path, value):
        # a bool is an int to Python, not a size
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"S": 2, "R": value}))
        with pytest.raises(QueryError) as exc:
            load_stats_json(path)
        assert str(exc.value) == f"{path}: size for 'R' must be a positive integer"

    @pytest.mark.parametrize("value", [True, None, 1.5, [2], {"x": 1}])
    def test_domains_json_refuses_what_is_not_an_integer_or_a_string(self, tmp_path, fig1, value):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"C": "active", "B": [1, value]}))
        with pytest.raises(QueryError) as exc:
            load_domains_json(path, fig1)
        assert str(exc.value) == (
            f"{path}: domain for 'B' holds {value!r}, which is not an integer or a string"
        )


@pytest.fixture
def worked_example_dir(tmp_path):
    (tmp_path / "q.aj").write_text("Q(A) = sum[C] sum[B] R(A,B), S(B,C) @ semiring=int\n")
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text("A,B,__annotation\n1,3,3\n1,2,1\n1,1,2\n")
    (data / "S.csv").write_text("B,C,__annotation\n1,1,4\n3,3,6\n")
    return tmp_path


class TestCli:
    def test_run_worked_example(self, worked_example_dir, capsys):
        out_csv = worked_example_dir / "out.csv"
        code = main(
            [
                "run",
                str(worked_example_dir / "q.aj"),
                "--data",
                str(worked_example_dir / "data"),
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.read_text().splitlines() == ["A,__annotation", "1,26"]

    def test_run_prints_sorted_csv(self, worked_example_dir, capsys):
        code = main(
            ["run", str(worked_example_dir / "q.aj"), "--data", str(worked_example_dir / "data")]
        )
        assert code == 0
        assert capsys.readouterr().out == "A,__annotation\n1,26\n"

    def test_run_explain_emits_stats(self, worked_example_dir, capsys):
        code = main(
            [
                "run",
                str(worked_example_dir / "q.aj"),
                "--data",
                str(worked_example_dir / "data"),
                "--explain",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "annotation_multiplications" in captured
        assert "1,26" in captured

    def test_plan_reports_width(self, worked_example_dir, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan", str(worked_example_dir / "q.aj"), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["width"] == 1
        assert "width: 1" in capsys.readouterr().out

    def test_plan_prints_the_exact_width(self, tmp_path, capsys):
        # the four triangles of K4 cover it at 4/3: the text line is exact in
        # unit mode, the JSON a number; data mode prints its float
        query = tmp_path / "k4.aj"
        query.write_text(
            "Q() = sum[A] sum[B] sum[C] sum[D] R(A,B,C), S(B,C,D), T(A,C,D), U(A,B,D)\n"
        )
        assert main(["plan", str(query)]) == 0
        width_line, _, text = capsys.readouterr().out.split("\n", 2)
        assert width_line == "width: 4/3"
        assert json.loads(text)["width"] == pytest.approx(4 / 3)
        stats = tmp_path / "s.json"
        stats.write_text(json.dumps({"R": 8, "S": 8, "T": 8, "U": 8}))
        assert main(["plan", str(query), "--stats", str(stats)]) == 0
        width_line, _, text = capsys.readouterr().out.split("\n", 2)
        assert width_line == f"width: {json.loads(text)['width']}"

    def test_plan_stats_alone_price_by_the_sizes(self, tmp_path, capsys):
        # --stats selects data mode: K4's cover 4/3 priced at log_32 8 = 3/5
        query = tmp_path / "k4.aj"
        query.write_text(
            "Q() = sum[A] sum[B] sum[C] sum[D] R(A,B,C), S(B,C,D), T(A,C,D), U(A,B,D)\n"
        )
        stats = tmp_path / "s.json"
        stats.write_text(json.dumps({"R": 8, "S": 8, "T": 8, "U": 8}))
        out = tmp_path / "plan.json"
        assert main(["plan", str(query), "--stats", str(stats), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "data"
        assert payload["width"] == pytest.approx(0.8)
        assert capsys.readouterr().out.startswith(f"width: {payload['width']}\n")

    @pytest.mark.parametrize(
        "argv", [["run", "q.aj"], ["selftest", "--trials", "abc"], ["plan"], ["nosuch"]]
    )
    def test_usage_error_exit_code(self, argv, capsys):
        # argparse prints its usage and message; main returns 1, not SystemExit
        assert main(argv) == 1
        assert "usage: ajar" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        assert main(["plan", "--help"]) == 0
        assert "usage: ajar plan" in capsys.readouterr().out

    def test_readme_synopsis_lists_every_option(self, capsys):
        # each subcommand's options, as its --help prints them, are exactly
        # those of its line in README's CLI synopsis
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        synopsis = {}
        for line in readme.split("## CLI", 1)[1].splitlines():
            if match := re.match(r"ajar (\w+)\b(.*)", line):
                synopsis[match[1]] = set(re.findall(r"--[a-z][a-z-]*", match[2]))
        assert main(["--help"]) == 0
        commands = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out)[1].split(",")
        assert sorted(synopsis) == sorted(commands)
        for command in commands:
            assert main([command, "--help"]) == 0
            options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
            assert synopsis[command] == options, command

    def test_plan_parity_cycle_width_two(self, tmp_path, capsys):
        body = ", ".join(f"E{i}(A{i},A{i % 6 + 1})" for i in range(1, 7))
        (tmp_path / "cycle.aj").write_text(
        f"Q({','.join(f'A{i}' for i in range(1, 7))}) = {body}\n"
        )
        out = tmp_path / "plan.json"
        assert main(["plan", str(tmp_path / "cycle.aj"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["width"] == 2

    def test_equiv_accepts_reordering(self, tmp_path, capsys):
        (tmp_path / "q.aj").write_text("Q() = sum[A] max[B] sum[C] R(A,B), S(A,C)\n")
        code = main(["equiv", str(tmp_path / "q.aj"), "--ordering", "C A B"])
        assert code == 0
        assert "equivalent: true" in capsys.readouterr().out

    def test_equiv_reports_violation(self, tmp_path, capsys):
        (tmp_path / "q.aj").write_text("Q() = sum[A] max[B] max[C] R(A,B), S(B,C)\n")
        code = main(["equiv", str(tmp_path / "q.aj"), "--ordering", "B A C"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "equivalent: false" in captured
        assert "blocked-path" in captured

    @pytest.mark.parametrize("query, beta, named", [
        ("Q() = sum[A] R(A)\n", "max[A]", "operators-differ: 'A' is sum in the first ordering, max in the second"),
        ("Q() = sum[A] sum[B] R(A,B)\n", "sum[A] sum[C]",
         "attribute-sets-differ: only the first ordering aggregates 'B'; "
         "only the second ordering aggregates 'C'"),
        ("Q(B) = sum[A] R(A,B)\n", "sum[A] sum[B]",
         "attribute-sets-differ: only the second ordering aggregates 'B'"),
    ], ids=["operator", "both-sides", "one-side"])
    def test_equiv_names_a_mismatch(self, tmp_path, capsys, query, beta, named):
        (tmp_path / "q.aj").write_text(query)
        assert main(["equiv", str(tmp_path / "q.aj"), "--ordering", beta]) == 0
        assert capsys.readouterr().out == f"equivalent: false\nviolated: {named}\n"

    @pytest.mark.parametrize("beta, column", [("B B", 3), ("sum[A] max[A]", 12)],
                             ids=["list", "operators"])
    def test_equiv_rejects_a_repeated_attribute(self, tmp_path, capsys, beta, column):
        # refused as parse_query refuses it: by name, at the repeat's column
        (tmp_path / "q.aj").write_text("Q() = sum[A] sum[B] R(A,B)\n")
        assert main(["equiv", str(tmp_path / "q.aj"), "--ordering", beta]) == 1
        captured = capsys.readouterr()
        attr = beta[column - 1]
        assert captured.err == f"error: attribute {attr!r} aggregated twice (line 1, column {column})\n"
        assert not captured.out

    def test_equiv_names_a_listed_attribute_the_query_does_not_aggregate(self, tmp_path, capsys):
        # a plain list copies each operator from the query, so an attribute
        # the query does not aggregate needs its operator written out
        (tmp_path / "q.aj").write_text("Q() = sum[A] sum[B] R(A,B)\n")
        assert main(["equiv", str(tmp_path / "q.aj"), "--ordering", "A Z"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: attribute 'Z' is not aggregated by the query; "
            "write its operator, as op[Z] (line 1, column 3)\n"
        )
        assert not captured.out

    def test_closure_command(self, tmp_path, capsys):
        csv = tmp_path / "edges.csv"
        csv.write_text(
            "S,D,__annotation\n1,1,0\n2,2,0\n3,3,0\n1,2,1\n2,3,2\n"
        )
        code = main(["closure", str(csv), "--semiring", "minplus"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "1,3,3" in lines

    def test_closure_prints_sorted_csv(self, tmp_path, capsys):
        # rows sort as text ("1,10" before "1,2"); the min-plus zero, inf, is dropped
        csv = tmp_path / "edges.csv"
        csv.write_text(
            "S,D,__annotation\n1,1,0\n2,2,0\n3,3,0\n10,10,0\n1,2,1\n2,3,2\n3,10,inf\n2,10,4\n"
        )
        assert main(["closure", str(csv)]) == 0
        assert capsys.readouterr().out == (
            "S,D,__annotation\n1,1,0\n1,10,5\n1,2,1\n1,3,3\n"
            "10,10,0\n2,10,4\n2,2,0\n2,3,2\n3,3,0\n"
        )

    def test_closure_stdout_parses_as_the_out_file(self, tmp_path, capsys):
        # a key holding a comma is quoted on stdout as in the --out file
        edges = tmp_path / "edges.csv"
        edges.write_text('S,D,__annotation\n"a,b","a,b",0\nc,c,0\n"a,b",c,2\n')
        assert main(["closure", str(edges)]) == 0
        printed = capsys.readouterr().out
        assert printed == 'S,D,__annotation\n"a,b","a,b",0\n"a,b",c,2\nc,c,0\n'
        out = tmp_path / "out.csv"
        assert main(["closure", str(edges), "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            assert list(csv.reader(io.StringIO(printed))) == list(csv.reader(fh))

    def test_closure_stdout_quotes_a_carriage_return(self, tmp_path, capsys):
        # a bare "\r" in a key is quoted on stdout too, so the printed text
        # parses back into the --out file's rows
        edges = tmp_path / "edges.csv"
        edges.write_bytes(b'S,D,__annotation\n"a\rb","a\rb",0\n')
        assert main(["closure", str(edges)]) == 0
        printed = capsys.readouterr().out
        assert printed == 'S,D,__annotation\n"a\rb","a\rb",0\n'
        out = tmp_path / "out.csv"
        assert main(["closure", str(edges), "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["S", "D", "__annotation"], ["a\rb", "a\rb", "0"]]
        assert list(csv.reader(io.StringIO(printed, newline=""))) == rows

    def test_closure_names_a_semiring_without_one_operator(self, tmp_path, capsys):
        # qplus folds by max or sum; closure has no flag to choose one, so the
        # message names the semiring and its operators instead of asking
        csv = tmp_path / "edges.csv"
        csv.write_text("S,D,__annotation\n1,1,1\n2,2,1\n1,2,1/2\n")
        assert main(["closure", str(csv), "--semiring", "qplus"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: transitive closure needs a semiring with one additive "
            "operator; 'qplus' has max, sum\n"
        )
        assert not captured.out

    def test_closure_dag_without_self_loops_exit_code(self, tmp_path, capsys):
        # 2^k-step walks die out on a DAG; without self-loops the result was empty
        csv = tmp_path / "edges.csv"
        csv.write_text("S,D,__annotation\n0,1,3\n1,2,4\n")
        code = main(["closure", str(csv), "--semiring", "minplus"])
        assert code == 1
        captured = capsys.readouterr()
        assert "node 0 needs a self-loop" in captured.err
        assert not captured.out

    def test_closure_cycle_without_self_loops_exit_code(self, tmp_path, capsys):
        # 2^k-step walks alternate forever on a 2-cycle; this used to hang
        csv = tmp_path / "edges.csv"
        csv.write_text("S,D,__annotation\n0,1,1\n1,0,1\n")
        code = main(["closure", str(csv), "--semiring", "minplus"])
        assert code == 1
        assert "node 0 needs a self-loop" in capsys.readouterr().err

    def test_closure_negative_cycle_exit_code(self, tmp_path, capsys):
        # zero self-loops but no fixpoint: stops after ceil(log2 V) + 1 rounds
        csv = tmp_path / "edges.csv"
        csv.write_text("S,D,__annotation\n0,0,0\n1,1,0\n0,1,-1\n1,0,-1\n")
        code = main(["closure", str(csv), "--semiring", "minplus"])
        assert code == 1
        assert "no transitive-closure fixpoint within 2 doublings" in capsys.readouterr().err

    def test_closure_negative_cycle_names_its_node(self, tmp_path, capsys):
        # every self-loop present at 0; the cycle 2 -> 3 -> 2 weighs -1
        csv = tmp_path / "edges.csv"
        csv.write_text(
            "S,D,__annotation\n0,0,0\n1,1,0\n2,2,0\n3,3,0\n"
            "0,1,4\n1,2,2\n2,3,3\n3,2,-4\n"
        )
        code = main(["closure", str(csv), "--semiring", "minplus"])
        assert code == 1
        captured = capsys.readouterr()
        assert "node 2 lies on an improving cycle" in captured.err
        assert not captured.out

    def test_query_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "q.aj").write_text("Q(A) = sum[B] R(A,B)\n")
        code = main(["run", str(tmp_path / "q.aj"), "--data", str(tmp_path)])
        assert code == 1  # missing relation file

    def test_duplicate_tuple_exit_code(self, worked_example_dir, capsys):
        relation = worked_example_dir / "data" / "R.csv"
        relation.write_text("A,B,__annotation\n1,3,3\n1,2,1\n1,3,2\n")
        code = main(["run", str(worked_example_dir / "q.aj"), "--data", str(relation.parent)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{relation}:4: duplicate tuple" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["x", "1.5", ""])
    def test_bad_annotation_exit_code(self, worked_example_dir, capsys, cell):
        relation = worked_example_dir / "data" / "S.csv"
        relation.write_text(f"B,C,__annotation\n1,1,4\n3,3,{cell}\n")
        code = main(["run", str(worked_example_dir / "q.aj"), "--data", str(relation.parent)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{relation}:3: bad annotation" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,culprit",
        [
            (["run", "{dir}/missing.aj", "--data", "{dir}/data"], "{dir}/missing.aj"),
            (["equiv", "{dir}/missing.aj", "--ordering", "B"], "{dir}/missing.aj"),
            (["closure", "{dir}/missing.csv"], "{dir}/missing.csv"),
            (["closure", "{dir}/data"], "{dir}/data"),
            (
                ["run", "{dir}/q.aj", "--data", "{dir}/data", "--domains", "{dir}/d.json"],
                "{dir}/d.json",
            ),
            (["plan", "{dir}/q.aj", "--stats", "{dir}/s.json"], "{dir}/s.json"),
        ],
        ids=["run", "equiv", "closure", "closure-directory", "domains", "stats"],
    )
    def test_unreadable_file_exit_code(self, worked_example_dir, capsys, command, culprit):
        argv = [arg.format(dir=worked_example_dir) for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {culprit.format(dir=worked_example_dir)}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--domains", "--stats"])
    def test_malformed_json_exit_code(self, worked_example_dir, capsys, flag):
        bad = worked_example_dir / "bad.json"
        bad.write_text("\n{bad")
        command = "run" if flag == "--domains" else "plan"
        argv = [command, str(worked_example_dir / "q.aj"), flag, str(bad)]
        if command == "run":
            argv += ["--data", str(worked_example_dir / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: bad JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,culprit,content",
        [
            (["plan", "{dir}/q.aj"], "q.aj", b"Q(A) = sum[B] R(A,B)\n\xff"),
            (["run", "{dir}/q.aj", "--data", "{dir}/data"], "data/R.csv",
             b"A,B,__annotation\n1,\xff,3\n"),
            (["run", "{dir}/q.aj", "--data", "{dir}/data", "--domains", "{dir}/d.json"],
             "d.json", b'{"B": "\xff"}'),
            (["plan", "{dir}/q.aj", "--stats", "{dir}/s.json"], "s.json", b'{"R": 1, "\xff": 2}'),
        ],
        ids=["query", "csv", "domains", "stats"],
    )
    def test_non_utf8_input_exit_code(self, worked_example_dir, capsys, command, culprit, content):
        path = worked_example_dir / culprit
        path.write_bytes(content)
        assert main([arg.format(dir=worked_example_dir) for arg in command]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid UTF-8 (byte {content.index(0xFF)})\n"

    @pytest.mark.parametrize("loader", [load_stats_json, lambda path: load_domains_json(path, {})])
    def test_json_must_be_an_object(self, tmp_path, loader):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(QueryError, match="must be a JSON object"):
            loader(path)

    def test_selftest_smoke(self, capsys):
        assert main(["selftest", "--trials", "120", "--seed", "3"]) == 0
        assert "all ok" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_selftest_needs_a_trial(self, trials, capsys):
        # no law triple checked is no test passed
        assert main(["selftest", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert "ok" not in captured.out

    def test_error_without_a_file_name(self, worked_example_dir, monkeypatch, capsys):
        # a closed stdout (as in `ajar selftest | head -3`) names no file
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["plan", str(worked_example_dir / "q.aj")]) == 1
        assert capsys.readouterr().err == f"error: {os.strerror(errno.EPIPE)}\n"

    def test_console_entry_point(self, worked_example_dir):
        # the source tree on the child's path, as pytest's own pythonpath puts it
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ajar.cli", "plan", str(worked_example_dir / "q.aj")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "width: 1" in proc.stdout

    def test_run_product_query_with_domains(self, tmp_path):
        (tmp_path / "q.aj").write_text("Q(A,C) = prod[B] R(A,B), S(B,C) @ semiring=bool01\n")
        data = tmp_path / "data"
        data.mkdir()
        (data / "R.csv").write_text("A,B,__annotation\n0,0,1\n0,1,1\n")
        (data / "S.csv").write_text("B,C,__annotation\n0,1,1\n1,1,1\n")
        (tmp_path / "d.json").write_text(json.dumps({"B": [0, 1]}))
        out = tmp_path / "out.csv"
        code = main(
            [
                "run",
                str(tmp_path / "q.aj"),
                "--data",
                str(data),
                "--domains",
                str(tmp_path / "d.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines() == ["A,C,__annotation", "0,1,1"]

    def test_run_wrong_column_count_exit_code(self, worked_example_dir, capsys):
        relation = worked_example_dir / "data" / "S.csv"
        relation.write_text("B,C,D,__annotation\n1,1,1,4\n")
        code = main(["run", str(worked_example_dir / "q.aj"), "--data", str(relation.parent)])
        assert code == 1
        assert f"{relation}: 3 columns, atom wants 2" in capsys.readouterr().err

    def test_run_builds_domains_only_when_needed(
        self, worked_example_dir, tmp_path, monkeypatch, capsys
    ):
        from ajar import cli

        calls = []
        original = cli.load_domains_json

        def spy(path, relations):
            calls.append(path)
            return original(path, relations)

        monkeypatch.setattr(cli, "load_domains_json", spy)
        data = str(worked_example_dir / "data")
        # a sum query without --domains never scans active domains
        assert main(["run", str(worked_example_dir / "q.aj"), "--data", data]) == 0
        assert calls == [] and "1,26" in capsys.readouterr().out
        # a product query builds active domains without --domains
        (tmp_path / "p.aj").write_text("Q(A) = prod[B] R(A,B) @ semiring=bool01\n")
        (tmp_path / "R.csv").write_text("A,B,__annotation\n0,0,1\n0,1,1\n1,0,1\n")
        assert main(["run", str(tmp_path / "p.aj"), "--data", str(tmp_path)]) == 0
        assert calls == [None] and capsys.readouterr().out.splitlines() == [
            "A,__annotation", "0,1"
        ]
        # declared domains are checked even when nothing needs them
        declared = tmp_path / "d.json"
        declared.write_text(json.dumps({"B": [1, 2]}))
        args = ["run", str(worked_example_dir / "q.aj"), "--data", data, "--domains", str(declared)]
        assert main(args) == 1
        assert calls == [None, str(declared)]
        assert "outside its declared domain" in capsys.readouterr().err

    def test_plan_data_mode(self, worked_example_dir, tmp_path, capsys):
        stats = tmp_path / "s.json"
        stats.write_text(json.dumps({"R": 3, "S": 2}))
        out = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                str(worked_example_dir / "q.aj"),
                "--stats",
                str(stats),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "data"
        assert 0 <= payload["width"] <= 2

    def test_internal_error_exit_code(self, worked_example_dir, monkeypatch, capsys):
        from ajar import cli
        from ajar.errors import InternalError

        def boom(*args, **kwargs):
            raise InternalError("synthetic")

        monkeypatch.setattr(cli, "build_plan", boom)
        code = main(["plan", str(worked_example_dir / "q.aj")])
        assert code == 2
