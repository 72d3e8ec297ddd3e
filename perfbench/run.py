"""ajar's benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py                         # all workloads, tracing off
    python3 perfbench/run.py --trace 1               # all workloads, traced run
    python3 perfbench/run.py --workload path4 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke                 # seconds-long check of the harness

Each workload runs in its own fresh child process, one at a time, with a
fixed PYTHONHASHSEED; the load is a closed loop with one caller.  Results
print one metric per line; the last line of stdout is one JSON object.
See perfbench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import CLI_METRICS, QUERY_METRICS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

HASH_SEED = "0"  # PYTHONHASHSEED of every child process
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # kept out of tuning; a gain must hold here too
SETUP_RUNS = {"full": 7, "smoke": 2}  # fresh processes timed per set-up metric
RUN_BUDGET_S = 170  # one workload, set-up included, ends within this

END_TO_END = {
    "query_s": "s",
    "query_cpu_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FAIL_LINE = {"query": "query_s", "cli": "cli_s", "setup": "setup_s",
             "traced_query": "trace_overhead", "traced_cli": "dataio.load_s"}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} ran past the {RUN_BUDGET_S} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Generate inputs, time set-up and the measured loop, remove the inputs."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
    try:
        generate(name, seed, scale, work)
        spec = str(work / "spec.json")
        failures: dict[str, list[str]] = {}
        setup_s: list[float] = []
        attempted = 0
        if not trace:
            _child(["setup", spec], deadline)  # warm-up: byte-compiles ajar, fills the file cache
            for _ in range(SETUP_RUNS[scale]):
                attempted += 1
                result = _child(["setup", spec], deadline)
                if result["error"]:
                    failures.setdefault("setup", []).append(result["error"])
                else:
                    setup_s.append(result["setup_s"])
        args = ["measure", spec, "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            args += ["--spans", str(ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json")]
        measured = _child(args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for kind, messages in measured["failures"].items():
        failures.setdefault(kind, []).extend(messages)
    samples = measured["samples"]
    samples["setup_s"] = setup_s
    return {
        "attempted": attempted + measured["attempted"],
        "failed": sum(len(m) for m in failures.values()),
        "failures": failures,
        "samples": samples,
        "peak_rss_mb": measured["peak_rss_mb"],
        "layers": measured.get("layers", {}),
    }


def _median(samples: list[float], name: str) -> float:
    if not samples:
        raise BenchError(f"no successful sample for {name}")
    return statistics.median(samples)


def metrics_of(result: dict, trace: bool) -> dict[str, dict]:
    """Metric name -> {value, unit, n}: end-to-end, or per-layer when traced."""
    samples = result["samples"]
    if trace:
        units = {**QUERY_METRICS, **CLI_METRICS}
        out = {name: {"value": result["layers"][name], "unit": unit}
               for name, unit in units.items() if name in result["layers"]}
        missing = set(units) - set(out)
        if missing:
            raise BenchError(f"no traced repetition produced {sorted(missing)}")
        overhead = _median(samples.get("traced_query_s", []), "traced query_s") / _median(
            samples["query_s"], "query_s")
        out["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        return out
    out = {}
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            out[name] = {"value": result["peak_rss_mb"], "unit": unit}
        else:
            out[name] = {"value": _median(samples[name], name), "unit": unit,
                         "n": len(samples[name])}
    return out


def report(name: str, result: dict, metrics: dict) -> None:
    """One line per metric; FAIL marks the line whose operations failed."""
    failing = {FAIL_LINE.get(kind, "fail_ratio") for kind in result["failures"]}
    for metric, m in metrics.items():
        count = f"median of {m['n']}" if "n" in m else ""
        verdict = "FAIL" if metric in failing else "OK"
        print(f"{name:<15} {metric:<32} {m['value']:>14.6g} {m['unit']:<6} {count:<13} {verdict}")
    ratio = result["failed"] / result["attempted"]
    verdict = "FAIL" if result["failed"] else "OK"
    print(f"{name:<15} {'fail_ratio':<32} {ratio:>14.6g} {'ratio':<6} "
          f"ops_attempted={result['attempted']} {verdict}")
    for kind, messages in result["failures"].items():
        for message in messages[:3]:
            print(f"{name:<15} FAIL [{kind}] {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default 25; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced run for per-layer metrics (default 0; both with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the minimum repetitions, for the harness's tests")
    args = parser.parse_args(argv)
    # A terminated run raises instead, so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "ajar" / "__init__.py").is_file():
        print(f"perfbench: no ajar sources at {ROOT / 'src' / 'ajar'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # ajar.oracle serves the closure reference

    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else 25.0)
    if args.trace is not None:
        traces = [bool(args.trace)]
    else:
        traces = [False, True] if args.smoke else [False]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# perfbench python={platform.python_version()} nproc={os.cpu_count()} "
          f"seed={args.seed} default_seed={DEFAULT_SEED} holdout_seed={HOLDOUT_SEED} "
          f"PYTHONHASHSEED={HASH_SEED} scale={scale} seconds={seconds:g} "
          f"load=closed-loop,1-caller")

    attempted = failed = 0
    combined: dict[str, dict] = {}
    try:
        for trace in traces:
            for name in names:
                result = run_workload(name, args.seed, seconds, trace, scale)
                metrics = metrics_of(result, trace)
                report(name, result, metrics)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, m in metrics.items():
                    key = metric if len(names) == 1 and len(traces) == 1 else f"{name}.{metric}"
                    combined[key] = {"value": m["value"], "unit": m["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
