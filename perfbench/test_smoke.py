"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and twice traced at the "smoke" size and
checks that each run passes its correctness checks, prints every metric of
BENCHMARK.json by name with its unit, repeats its counts exactly, and records
a consistent span tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, seed: int = 2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    assert record_line.startswith("record ")
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines() if line.startswith("  ")}
    for name, metric in result["metrics"].items():
        assert printed[name] == metric["unit"]
    return result, json.loads(record_line.removeprefix("record "))


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, record = _run(workload, trace=0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_ratio"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    (first, record), (second, _) = _run(workload, trace=1), _run(workload, trace=1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == _declared("per_layer")
    counts = [name for name, unit in units.items() if unit in ("count", "solves/call")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert record["span_violations"] == []


def test_tree_violations_flags_inconsistent_spans():
    good = [["root", 0.0, 10.0, -1], ["child", 1.0, 4.0, 0], ["child", 5.0, 9.0, 0]]
    assert spans.tree_violations(good) == []
    outside = [["root", 0.0, 10.0, -1], ["child", 1.0, 11.0, 0]]
    assert spans.tree_violations(outside)
    overlapping = [["root", 0.0, 10.0, -1], ["child", 1.0, 7.0, 0], ["child", 2.0, 8.0, 0]]
    assert spans.tree_violations(overlapping)


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    self_s, calls = tracer.self_times()
    (_, start, end, _), inner = tracer.spans[0], tracer.spans[1:]
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["outer"] == pytest.approx(end - start - sum(e - s for _, s, e, _ in inner))
    assert spans.tree_violations(tracer.spans) == []
