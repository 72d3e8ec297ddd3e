"""Tests of the benchmark harness itself, at smoke scale (seconds).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit_and_matches_references():
    proc = _run("--smoke")
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        for metric in metrics:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            line = rf"^{re.escape(name)}\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s"
            assert re.search(line, proc.stdout, re.MULTILINE), (name, metric["name"])
        assert re.search(rf"^{name}\s+fail_ratio\s+0\s+ratio\s+ops_attempted=\d+ OK$",
                         proc.stdout, re.MULTILINE)


def test_exact_counters_repeat_across_traced_runs():
    exact = [m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in ("count", "ratio") and m["name"] != "trace_overhead"]
    first, second = (_result(_run("--smoke", "--trace", "1", "--seed", "5")) for _ in range(2))
    for workload in BENCHMARK["workloads"]:
        for name in exact:
            key = f"{workload['name']}.{name}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_single_workload_prints_end_to_end_metrics():
    result = _result(_run("--smoke", "--workload", "closure", "--seed", "3", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "triangle", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
