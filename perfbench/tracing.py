"""Span recording at ajar's module boundaries, for the traced run only.

``Tracer.patched()`` swaps the module-level names listed in ``BOUNDARIES``
for wrappers that record one span per call (name, start, end, parent and a
few counts read off the arguments and the result) and restores the originals
on exit.  Outside that block ajar runs untouched.  ``layer_metrics`` turns
the spans of one repetition into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _bag(args, kwargs, result) -> dict:
    return {"bag": sorted(args[0])}


def _bag_join(args, kwargs, result) -> dict:
    h, relations = args[0], args[1]
    return {"inputs": sum(len(relations[e.name]) for e in h.edges), "outputs": len(result)}


def _semijoin(args, kwargs, result) -> dict:
    return {"examined": len(args[0]), "kept": len(result)}


# (module, attribute, span name, counts).  Each name is the one its caller
# looks up at call time, so the wrapper sees every call made through it.
BOUNDARIES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("ajar.planner", "plan", "planner.plan", None),
    ("ajar.planner", "run", "planner.run", None),
    ("ajar.planner", "transitive_closure", "planner.transitive_closure", None),
    ("ajar.dataio", "load_relation_csv", "dataio.load_relation_csv", _rows),
    ("ajar.cli", "load_relation_csv", "dataio.load_relation_csv", _rows),
    ("ajar.cli", "build_plan", "planner.plan", None),
    ("ajar.cli", "run_plan", "planner.run", None),
    ("ajar.cli", "transitive_closure", "planner.transitive_closure", None),
    ("ajar.planner", "characteristic_tree", "ghd.characteristic_tree", None),
    ("ajar.planner", "optimal_ghd", "ghd.optimal_ghd", None),
    ("ajar.planner", "stitch_tree", "ghd.stitch_tree", None),
    ("ajar.planner", "test_equivalence", "ordering.test_equivalence", None),
    ("ajar.planner", "compute_prec", "ordering.compute_prec", None),
    ("ajar.planner", "aggro_ghd_join", "execution.aggro_ghd_join", None),
    ("ajar.ghd", "fractional_cover_value", "lp.fractional_cover_value", _bag),
    ("ajar.execution", "generic_join", "execution.generic_join", _bag_join),
    ("ajar.execution", "semijoin", "relations.semijoin", _semijoin),
    ("ajar.execution", "join", "relations.join", _rows),
    ("ajar.execution", "aggregate", "relations.aggregate", None),
    ("ajar.execution", "project_ones", "relations.project_ones", _rows),
)


class Tracer:
    """In-memory span list; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index].counts.update(counts(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the boundary wrappers; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counts in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def subtree(self, root: int) -> list[int]:
        """Indices of root and all spans below it (spans are in start order)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def self_time(self, index: int) -> float:
        children = sum(s.duration for s in self.spans if s.parent == index)
        return self.spans[index].duration - children

    def to_json(self) -> list[dict]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end, "self": s.duration - covered[i], "counts": s.counts}
            for i, s in enumerate(self.spans)
        ]


# Per-layer metrics, their units, and whether they are exact counts that
# must repeat exactly between repetitions of one input.
QUERY_METRICS = {
    "planner.plan_s": "s",
    "planner.run_s": "s",
    "planner.closure_rounds": "count",
    "planner.closure_round_s": "s",
    "ordering.check_s": "s",
    "ghd.characteristic_tree_s": "s",
    "ghd.optimal_ghd_s": "s",
    "ghd.optimal_ghd_calls": "count",
    "ghd.stitch_s": "s",
    "lp.cover_solves": "count",
    "lp.cover_solve_s": "s",
    "lp.distinct_bag_ratio": "ratio",
    "execution.bag_join_s": "s",
    "execution.bag_joins": "count",
    "execution.bag_input_tuples": "count",
    "execution.bag_output_tuples": "count",
    "execution.multiplications": "count",
    "execution.intermediate_tuples": "count",
    "execution.self_s": "s",
    "relations.semijoin_s": "s",
    "relations.semijoin_keep_ratio": "ratio",
    "relations.join_s": "s",
    "relations.aggregate_s": "s",
    "relations.project_ones_s": "s",
    "relations.project_ones_tuples": "count",
}
CLI_METRICS = {"dataio.load_s": "s", "dataio.rows_parsed": "count"}
EXACT = {name for name, unit in {**QUERY_METRICS, **CLI_METRICS}.items() if unit != "s"}


def _ratio(part: int, whole: int) -> float:
    """Useful over attempted; 1.0 when the layer did no work (nothing wasted)."""
    return part / whole if whole else 1.0


def layer_metrics(tracer: Tracer, root: int, stats=None) -> dict:
    """Per-layer metrics of one repetition: the spans under one root span."""
    by_name: dict[str, list[int]] = {}
    for i in tracer.subtree(root):
        by_name.setdefault(tracer.spans[i].name, []).append(i)

    def spans(*names):
        return [tracer.spans[i] for n in names for i in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in spans(*names))

    def summed(name, key):
        return sum(s.counts[key] for s in spans(name))

    runs = by_name.get("planner.run", []) + by_name.get("planner.transitive_closure", [])
    rounds = [
        tracer.spans[i]
        for i in by_name.get("execution.aggro_ghd_join", [])
        if tracer.spans[i].parent in by_name.get("planner.transitive_closure", [])
    ]
    solves = spans("lp.fractional_cover_value")
    return {
        "planner.plan_s": total("planner.plan"),
        "planner.run_s": total("planner.run", "planner.transitive_closure"),
        "planner.closure_rounds": len(rounds),
        "planner.closure_round_s": statistics.fmean(s.duration for s in rounds) if rounds else 0.0,
        "ordering.check_s": total("ordering.test_equivalence", "ordering.compute_prec"),
        "ghd.characteristic_tree_s": total("ghd.characteristic_tree"),
        "ghd.optimal_ghd_s": total("ghd.optimal_ghd"),
        "ghd.optimal_ghd_calls": len(spans("ghd.optimal_ghd")),
        "ghd.stitch_s": total("ghd.stitch_tree"),
        "lp.cover_solves": len(solves),
        "lp.cover_solve_s": total("lp.fractional_cover_value"),
        "lp.distinct_bag_ratio": _ratio(len({tuple(s.counts["bag"]) for s in solves}), len(solves)),
        "execution.bag_join_s": total("execution.generic_join"),
        "execution.bag_joins": len(spans("execution.generic_join")),
        "execution.bag_input_tuples": summed("execution.generic_join", "inputs"),
        "execution.bag_output_tuples": summed("execution.generic_join", "outputs"),
        "execution.multiplications": stats.multiplications if stats else 0,
        "execution.intermediate_tuples": stats.intermediate_tuples if stats else 0,
        # Yannakakis glue: run and aggro_ghd_join time outside every child span
        "execution.self_s": sum(
            tracer.self_time(i) for i in runs + by_name.get("execution.aggro_ghd_join", [])
        ),
        "relations.semijoin_s": total("relations.semijoin"),
        "relations.semijoin_keep_ratio": _ratio(
            summed("relations.semijoin", "kept"), summed("relations.semijoin", "examined")
        ),
        "relations.join_s": total("relations.join"),
        "relations.aggregate_s": total("relations.aggregate"),
        "relations.project_ones_s": total("relations.project_ones"),
        "relations.project_ones_tuples": summed("relations.project_ones", "rows"),
    }


def cli_metrics(tracer: Tracer, root: int) -> dict:
    """CSV loading as seen by one traced CLI call."""
    loads = [tracer.spans[i] for i in tracer.subtree(root)
             if tracer.spans[i].name == "dataio.load_relation_csv"]
    return {
        "dataio.load_s": sum(s.duration for s in loads),
        "dataio.rows_parsed": sum(s.counts["rows"] for s in loads),
    }
