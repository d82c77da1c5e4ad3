"""Runs the benchmark on several seeds and reports each end-to-end metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workload table ...] [--first-seed 1] [--out FILE]

Each run uses the next seed and BENCHMARK.json's run_seconds.  The spread is
the distance between the first and third quartiles of the runs' values
(statistics.quantiles(values, n=4)) as a share of their median: the measure
the bounds in BENCHMARK.json apply to.  One traced run per workload adds the
per-layer metrics.  --out writes every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int):
    """The run's metric values and its record."""
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    *_, record, last = proc.stdout.splitlines()
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, json.loads(record[7:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"run_seconds": BENCHMARK["run_seconds"], "environment": None, "workloads": {}}
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs, records = zip(*(_run(workload, seed, trace=0) for seed in seeds))
        summary["environment"] = records[0]["environment"]
        stats = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bound / 3 else "  (spread >= bound/3)"
            print(f"{workload:9s} {name:12s} median {med:10.5g}  spread {spread:.4f}  bound {bound}{flag}")
        layers = _run(workload, args.first_seed, trace=1)[0]
        summary["workloads"][workload] = {"seeds": list(seeds), "metrics": stats, "runs": runs, "layers": layers}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
