"""One workload in a fresh process: set-up timing or the measured loop.

    python3 perfbench/child.py setup SPEC
    python3 perfbench/child.py measure SPEC --seconds S --trace 0|1 [--spans FILE]

SPEC is the spec.json that ``workloads.generate`` wrote.  The last line of
stdout is one JSON object.  ``run.py`` starts this with PYTHONPATH pointing
at the checkout's ``src`` and a fixed PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import CLI_METRICS, EXACT, QUERY_METRICS, Tracer, cli_metrics, layer_metrics

MIN_REPS = 3  # per sample kind, even when --seconds is already used up


def load(spec: dict):
    """Import ajar and load the workload's inputs, as a first run would."""
    from ajar.dataio import load_query_data, load_relation_csv
    from ajar.queries import parse_query
    from ajar.semirings import get_semiring

    if spec["kind"] == "closure":
        semiring = get_semiring("minplus")
        return None, semiring, load_relation_csv(spec["edges"], semiring)
    query = parse_query(Path(spec["query"]).read_text())
    semiring = get_semiring(query.semiring_name or "int")
    if spec["kind"] == "plan":
        return query, semiring, None
    return query, semiring, load_query_data(query, spec["data"], semiring)


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    import ajar  # noqa: F401  (the import is part of what set-up costs)

    _, _, data = load(spec)
    elapsed = time.perf_counter() - start
    loaded = [len(data)] if spec["kind"] == "closure" else [len(r) for r in (data or {}).values()]
    wrong = [n for n in loaded if n != spec.get("rows")]
    return {"setup_s": elapsed, "error": f"loaded {wrong} rows, wrote {spec.get('rows')}" if wrong else None}


class Workload:
    """Library query, CLI call and answer checks for one spec."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.kind = spec["kind"]
        self.query, self.semiring, self.data = load(spec)
        self.expected = {tuple(key): value for key, value in spec.get("reference", [])}
        self.out = Path(spec["out"])

    def query_once(self, stats=None):
        from ajar import planner  # looked up per call so traced wrappers apply

        q = self.query
        if self.kind == "closure":
            return planner.transitive_closure(self.data, self.semiring, stats=stats)
        query_plan = planner.plan(q.hypergraph, q.ordering)
        if self.kind == "plan":
            return query_plan
        return planner.run(query_plan, self.data, None, self.semiring, stats)

    def check_query(self, result):
        """None when the answer matches the reference, else a message."""
        if self.kind == "plan":
            return self._check_plan(result)
        if self.kind == "run":
            result = result.reorder(self.query.head_attrs)
        if result.tuples != self.expected:
            return f"query answer differs from the reference ({len(result)} vs {len(self.expected)} rows)"
        return None

    def _check_plan(self, query_plan):
        from ajar.ghd import is_compatible, is_ghd, width

        h = self.query.hypergraph
        if not is_ghd(h, query_plan.ghd):
            return "plan is not a GHD of the query"
        if sorted(query_plan.beta.items) != sorted(self.query.ordering.items):
            return "derived ordering is not a permutation of the query's"
        if not is_compatible(query_plan.ghd, query_plan.beta):
            return "plan is not compatible with its derived ordering"
        got = width(query_plan.ghd, h).width
        if got != Fraction(self.spec["width"]):
            return f"recomputed width {got}, expected {self.spec['width']}"
        return None

    def cli_argv(self) -> list[str]:
        out = str(self.out)
        if self.kind == "run":
            return ["run", self.spec["query"], "--data", self.spec["data"], "--out", out]
        if self.kind == "closure":
            return ["closure", self.spec["edges"], "--semiring", "minplus", "--out", out]
        return ["plan", self.spec["query"], "--out", out]

    def cli_once(self) -> int:
        from ajar import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.cli_argv())

    def check_cli(self, code: int):
        if code != 0:
            return f"ajar {self.cli_argv()[0]} exited with {code}"
        if self.kind == "plan":
            payload = json.loads(self.out.read_text())
            if Fraction(str(payload["width"])) != Fraction(self.spec["width"]):
                return f"CLI plan width {payload['width']}, expected {self.spec['width']}"
            return None
        with self.out.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = {tuple(int(c) for c in row[:-1]): int(row[-1]) for row in rows}
        if got != self.expected:
            return f"CLI output differs from the reference ({len(got)} vs {len(self.expected)} rows)"
        return None


class Ledger:
    """Operations attempted and failed, by the metric line they belong to."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def attempt(self, kind: str, action, check):
        """Run action timed; return (wall, cpu, result) or None on failure."""
        self.attempted += 1
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = action()
        except Exception as exc:  # a crash is a failed operation, not a stop
            self.failures.setdefault(kind, []).append(f"{type(exc).__name__}: {exc}")
            return None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problem = check(result)
        if problem:
            self.failures.setdefault(kind, []).append(problem)
            return None
        return wall, cpu, result


def measure(spec: dict, seconds: float, trace: bool, spans_path) -> dict:
    work = Workload(spec)
    ledger = Ledger()
    samples: dict[str, list[float]] = {"query_s": [], "query_cpu_s": [], "cli_s": []}
    tracer = Tracer()
    layer_reps: list[dict] = []
    cli_reps: list[dict] = []

    def library():
        timed = ledger.attempt("query", work.query_once, work.check_query)
        if timed:
            samples["query_s"].append(timed[0])
            samples["query_cpu_s"].append(timed[1])

    def command():
        if work.out.exists():
            work.out.unlink()
        timed = ledger.attempt("cli", work.cli_once, work.check_cli)
        if timed:
            samples["cli_s"].append(timed[0])

    def traced_library():
        from ajar.execution import ExecStats

        stats = ExecStats()
        root = len(tracer.spans)

        def action():
            with tracer.patched(), tracer.span("query"):
                return work.query_once(stats)

        timed = ledger.attempt("traced_query", action, work.check_query)
        if timed:
            samples.setdefault("traced_query_s", []).append(timed[0])
            layer_reps.append(layer_metrics(tracer, root, stats))

    def traced_command():
        root = len(tracer.spans)

        def action():
            with tracer.patched(), tracer.span("cli"):
                return work.cli_once()

        if work.out.exists():
            work.out.unlink()
        if ledger.attempt("traced_cli", action, work.check_cli):
            cli_reps.append(cli_metrics(tracer, root))

    # warm-up, checked but not timed: caches fill and lazy imports finish
    ledger.attempt("query", work.query_once, work.check_query)
    round_trip = (traced_command, library, traced_library) if trace else (library, command)
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        for step in round_trip:
            step()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_REPS and now + (now - start) / rounds > deadline:
            break

    result = {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layers"] = _summarize(layer_reps, QUERY_METRICS, ledger) | _summarize(
            cli_reps, CLI_METRICS, ledger
        )
        if spans_path:
            Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return result


def _summarize(reps: list[dict], names: dict, ledger: Ledger) -> dict:
    """Median over repetitions; exact counters must agree between them."""
    out = {}
    for name in names:
        values = [rep[name] for rep in reps]
        if not values:
            continue
        if name in EXACT and len(set(values)) != 1:
            ledger.failures.setdefault("layers", []).append(
                f"{name} differs between repetitions: {sorted(set(values))}"
            )
        out[name] = statistics.median(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    if args.mode == "setup":
        payload = setup(spec)
    else:
        payload = measure(spec, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
