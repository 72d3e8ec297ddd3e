"""Seeded workload inputs and reference answers computed without the engine.

Each workload writes its inputs (CSV relations and query text) into a work
directory and returns a spec that the measuring child reads.  The engine sees
only those files.  Reference answers come from plain-Python code (adjacency
sets, a sparse matrix product) or from ``ajar.oracle``; none of them calls the
planner or the executor.
"""

from __future__ import annotations

import csv
import heapq
import json
import random
from pathlib import Path

WORKLOADS = ("triangle", "path4", "closure", "plan_circulant")

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is a
# seconds-long version for the benchmark's own tests.
SCALES = {
    "full": {
        "triangle": {"nodes": 1000, "edges": 25000},
        "path4": {"nodes": 60, "edges": 900},
        # A Hamiltonian cycle plus random chords keeps every pair reachable;
        # the hop bounds fix the number of doubling rounds at five.
        "closure": {"nodes": 26, "chords": 30, "min_hops": 9, "max_hops": 16},
        "plan_circulant": {"vertices": 9},
    },
    "smoke": {
        "triangle": {"nodes": 60, "edges": 500},
        "path4": {"nodes": 12, "edges": 40},
        "closure": {"nodes": 10, "chords": 10, "min_hops": 1, "max_hops": 64},
        "plan_circulant": {"vertices": 6},
    },
}

TRIANGLE_QUERY = "Q() = sum[A] sum[B] sum[C] E(A,B), E(B,C), E(A,C) @ semiring=int\n"
PATH4_QUERY = (
    "Q(A1,A5) = sum[A2] sum[A3] sum[A4] "
    "E(A1,A2), E(A2,A3), E(A3,A4), E(A4,A5) @ semiring=int\n"
)
CIRCULANT_WIDTH = "5/2"  # C_n(1,2) for n >= 5 has fractional hypertree width 5/2


def _random_digraph(rng: random.Random, nodes: int, edges: int, lo: int, hi: int) -> dict:
    """Simple digraph without self-loops; weights uniform in [lo, hi]."""
    out: dict[tuple[int, int], int] = {}
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b and (a, b) not in out:
            out[(a, b)] = rng.randint(lo, hi)
    return out


def _write_csv(path: Path, header: list[str], rows: dict) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["__annotation"])
        for key, weight in rows.items():
            writer.writerow(list(key) + [weight])


def _rows(mapping: dict) -> list:
    """Reference answer as JSON: a list of [key, annotation] pairs."""
    return [[list(key), value] for key, value in sorted(mapping.items())]


def triangle_reference(edges: dict) -> dict:
    """Count directed triangles a->b, b->c, a->c with adjacency sets."""
    succ: dict[int, set[int]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    count = sum(len(succ.get(a, ()) & succ.get(b, set())) for a, b in edges)
    return {(): count} if count else {}


def path4_reference(edges: dict) -> dict:
    """Sum of weight products over 4-edge walks, by sparse dict products."""
    matrix: dict[int, dict[int, int]] = {}
    for (a, b), w in edges.items():
        matrix.setdefault(a, {})[b] = w
    power = matrix
    for _ in range(3):
        nxt: dict[int, dict[int, int]] = {}
        for a, row in power.items():
            acc: dict[int, int] = {}
            for mid, w1 in row.items():
                for b, w2 in matrix.get(mid, {}).items():
                    acc[b] = acc.get(b, 0) + w1 * w2
            nxt[a] = {b: v for b, v in acc.items() if v}
        power = nxt
    return {(a, b): v for a, row in power.items() for b, v in row.items()}


def max_shortest_path_hops(nodes: int, edges: dict) -> int:
    """Largest hop count among min-weight, then min-hop, paths (Dijkstra)."""
    succ: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in edges.items():
        succ.setdefault(a, []).append((b, w))
    worst = 0
    for source in range(nodes):
        best = {source: (0, 0)}
        heap = [(0, 0, source)]
        while heap:
            dist, hops, u = heapq.heappop(heap)
            if best[u] < (dist, hops):
                continue
            for v, w in succ.get(u, ()):
                cand = (dist + w, hops + 1)
                if v not in best or cand < best[v]:
                    best[v] = cand
                    heapq.heappush(heap, (cand[0], cand[1], v))
        worst = max(worst, max(h for _, h in best.values()))
    return worst


def closure_edges(rng: random.Random, nodes: int, chords: int, min_hops: int, max_hops: int) -> dict:
    """Cycle plus chords, redrawn until the hop diameter lies in the bounds."""
    for _ in range(1000):
        order = list(range(nodes))
        rng.shuffle(order)
        edges = {(order[i], order[(i + 1) % nodes]): rng.randint(1, 20) for i in range(nodes)}
        while len(edges) < nodes + chords:
            a, b = rng.randrange(nodes), rng.randrange(nodes)
            if a != b and (a, b) not in edges:
                edges[(a, b)] = rng.randint(1, 20)
        if min_hops <= max_shortest_path_hops(nodes, edges) <= max_hops:
            for v in range(nodes):
                edges[(v, v)] = 0  # the documented precondition of transitive_closure
            return edges
    raise RuntimeError("no closure graph within the hop bounds after 1000 draws")


def closure_reference(edges: dict) -> dict:
    from ajar.oracle import floyd_warshall
    from ajar.relations import AnnotatedRelation

    return floyd_warshall(AnnotatedRelation(("S", "D"), edges))


def circulant_query(rng: random.Random, vertices: int) -> str:
    """C_n(1,2) with seeded vertex names, atom order and (all-sum) ordering."""
    labels = rng.sample(range(100, 1000), vertices)
    atoms = [(i, (i + step) % vertices) for i in range(vertices) for step in (1, 2)]
    rng.shuffle(atoms)
    body = ", ".join(
        f"R{k}(V{labels[a]},V{labels[b]})" for k, (a, b) in enumerate(atoms)
    )
    prefix = [f"sum[V{label}]" for label in labels]
    rng.shuffle(prefix)
    return f"Q() = {' '.join(prefix)} {body}\n"


def generate(name: str, seed: int, scale: str, work: Path) -> dict:
    """Write the inputs for one workload into work; return its spec."""
    size = SCALES[scale][name]
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    spec: dict = {"workload": name, "seed": seed, "scale": scale}
    if name in ("triangle", "path4"):
        lo, hi = (1, 1) if name == "triangle" else (1, 3)
        edges = _random_digraph(rng, size["nodes"], size["edges"], lo, hi)
        data = work / "data"
        data.mkdir(exist_ok=True)
        _write_csv(data / "E.csv", ["src", "dst"], edges)
        query = TRIANGLE_QUERY if name == "triangle" else PATH4_QUERY
        reference = triangle_reference(edges) if name == "triangle" else path4_reference(edges)
        spec.update(kind="run", data=str(data), rows=len(edges), reference=_rows(reference))
    elif name == "closure":
        edges = closure_edges(rng, **size)
        _write_csv(work / "edges.csv", ["src", "dst"], edges)
        spec.update(kind="closure", edges=str(work / "edges.csv"), rows=len(edges),
                    reference=_rows(closure_reference(edges)))
        query = None
    elif name == "plan_circulant":
        query = circulant_query(rng, size["vertices"])
        spec.update(kind="plan", width=CIRCULANT_WIDTH)
    else:
        raise KeyError(name)
    if query is not None:
        (work / "query.aj").write_text(query)
        spec["query"] = str(work / "query.aj")
    spec["out"] = str(work / "out")
    (work / "spec.json").write_text(json.dumps(spec))
    return spec
