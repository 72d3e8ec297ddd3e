"""Command-line front end: plan, run, equiv, closure, selftest."""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from .dataio import (
    edge_sizes,
    load_domains_json,
    load_query_data,
    load_relation_csv,
    load_stats_json,
    read_text,
    write_relation_csv,
    write_relation_rows,
)
from .errors import AjarError, InternalError, QueryError
from .execution import ExecStats
from .oracle import RandomInstanceSpec, floyd_warshall, naive_eval
from .ordering import explain_equivalence
from .planner import plan as build_plan
from .planner import run as run_plan
from .planner import transitive_closure
from .queries import parse_agg_list, parse_query
from .relations import DomainRegistry
from .semirings import builtin_semirings, check_laws, get_semiring


def _read_query(path: str):
    return parse_query(read_text(path))


class _NewlineLines:
    """Lines from a ``csv.writer`` ending "\r\n", printed ending "\n".

    The writer quotes a field holding "\r" or "\n" only when that character
    is in its line terminator, so stdout keeps the file's "\r\n" terminator
    for the quoting and changes it after the row is built; each ``writerow``
    makes one ``write`` call holding the whole row.
    """

    def write(self, line: str):
        return sys.stdout.write(line[:-2] + "\n")


def _write_result(rel, semiring, out) -> None:
    """The relation as a CSV file at out, or as CSV text on stdout, rows
    sorted as text and quoted alike."""
    if out:
        write_relation_csv(rel, semiring, out)
    else:
        write_relation_rows(rel, semiring, csv.writer(_NewlineLines()))


def cmd_plan(args) -> int:
    query = _read_query(args.query)
    stats = load_stats_json(args.stats) if args.stats else None
    result = build_plan(query.hypergraph, query.ordering, sizes=edge_sizes(query, stats))
    payload = result.to_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    shown = float(result.width) if result.width_report.mode == "data" else result.width
    print(f"width: {shown}")
    print(f"parts: {len(result.part_hypergraphs)}")
    if not args.out:
        print(text)
    return 0


def cmd_run(args) -> int:
    query = _read_query(args.query)
    semiring = get_semiring(query.semiring_name or "int")
    for attr, op in query.ordering.items:
        if not semiring.knows_op(op):
            raise QueryError(f"operator {op!r} unknown to semiring {semiring.name!r}")
    relations = load_query_data(query, args.data, semiring)
    # active domains walk every tuple; only products and declared domains need them
    domains = None
    if args.domains or query.ordering.has_products():
        domains = load_domains_json(args.domains, relations)
    stats = ExecStats() if args.explain else None
    query_plan = build_plan(query.hypergraph, query.ordering)
    result = run_plan(query_plan, relations, domains, semiring, stats)
    result = result.reorder(query.head_attrs)
    _write_result(result, semiring, args.out)
    if args.explain:
        print(json.dumps({"plan": query_plan.to_dict(), "stats": stats.to_dict()}, indent=2))
    return 0


def cmd_equiv(args) -> int:
    query = _read_query(args.query)
    beta = parse_agg_list(args.ordering, query.ordering)
    violation = explain_equivalence(query.hypergraph, query.ordering, beta)
    if violation is None:
        print("equivalent: true")
    else:
        print("equivalent: false")
        print(f"violated: {violation}")
    return 0


def cmd_closure(args) -> int:
    semiring = get_semiring(args.semiring)
    rel = load_relation_csv(args.relation, semiring)
    closed = transitive_closure(rel, semiring)
    _write_result(closed, semiring, args.out)
    return 0


def cmd_selftest(args) -> int:
    if args.trials < 1:
        raise QueryError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    failures = 0
    for spec in builtin_semirings():
        try:
            check_laws(spec, rng, triples=args.trials)
            print(f"laws[{spec.name}]: ok")
        except AssertionError as exc:
            failures += 1
            print(f"laws[{spec.name}]: FAIL {exc}")
    from .hypergraph import Hypergraph
    from .ordering import AggregationOrdering
    from .relations import AnnotatedRelation

    queries = [
        # the output lies in the root bag: messages only
        (Hypergraph.build([("R", ("A", "B")), ("S", ("B", "C"))]),
         AggregationOrdering.of(("B", "sum"), ("C", "sum"))),
        # outputs A1-A3 reach below the root: a two-bag output region
        (Hypergraph.build([(f"E{i}", (f"A{i}", f"A{i + 1}")) for i in range(1, 6)]),
         AggregationOrdering.of(("A4", "sum"), ("A5", "sum"), ("A6", "sum"))),
    ]
    triangle = [("E#1", ("A", "B")), ("E#2", ("B", "C")), ("E#3", ("A", "C"))]
    triangle_h = Hypergraph.build(triangle)
    triangle_alpha = AggregationOrdering.of(("A", "sum"), ("B", "sum"), ("C", "sum"))
    semiring = get_semiring("int")
    minplus = get_semiring("minplus")
    edge = Hypergraph.build([("E", ("S", "D"))])
    for trial in range(args.trials // 100 + 5):
        seed = args.seed + trial
        sound = True
        for h, alpha in queries:
            inst = RandomInstanceSpec(semiring_name="int", seed=seed).instance(h)
            domains = DomainRegistry.from_declarations({}, inst)
            got = run_plan(build_plan(h, alpha), inst, domains, semiring)
            sound &= got == naive_eval(h, alpha, inst, domains, semiring)
        # a self-join triangle whose atoms share one relation, so one trie
        shared = RandomInstanceSpec(domain_size=4, seed=seed).instance(edge)["E"]
        inst = {}
        for name, attrs in triangle:
            inst[name] = AnnotatedRelation.empty(attrs)
            inst[name].tuples = shared.tuples
        got = run_plan(build_plan(triangle_h, triangle_alpha), inst, None, semiring)
        sound &= got == naive_eval(triangle_h, triangle_alpha, inst, None, semiring)
        # min-plus closure of a sparse graph, unreachable pairs included
        spec = RandomInstanceSpec(semiring_name="minplus", domain_size=6, density=0.2, seed=seed)
        rows = dict(spec.instance(edge)["E"].tuples)
        rows.update(((v, v), 0) for v in range(spec.domain_size))
        graph = AnnotatedRelation(("S", "D"), rows)
        sound &= dict(transitive_closure(graph, minplus).tuples) == floyd_warshall(graph)
        if not sound:
            failures += 1
            print(f"oracle[{trial}]: FAIL")
            break
    else:
        print("oracle sweep: ok")
    if failures:
        raise InternalError(f"{failures} selftest failures")
    print("selftest: all ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ajar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a query and report its width")
    p.add_argument("query")
    p.add_argument("--stats", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute a query over CSV relations")
    p.add_argument("query")
    p.add_argument("--data", required=True)
    p.add_argument("--domains", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("equiv", help="test an alternative aggregation ordering")
    p.add_argument("query")
    p.add_argument("--ordering", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("closure", help="transitive closure of a binary relation")
    p.add_argument("relation")
    p.add_argument("--semiring", default="minplus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("selftest", help="law suite and oracle sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_selftest)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or usage and error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except AjarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
