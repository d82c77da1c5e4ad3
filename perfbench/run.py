"""speclab benchmark: times experiment commands in fresh interpreters and checks their output.

    python3 perfbench/run.py --workload table --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout that holds src/speclab; it writes only
to .bench_work/ at the checkout's root and removes what it wrote.  Each
repetition runs the workload's commands (workloads.py) in a fresh interpreter
(worker.py) with SPECLAB_THREADS=1 and BLAS pinned to one thread, then checks
the reports against the seed commit's reference values (check.py).
Repetitions continue while the next one fits in --seconds.

--trace 0 reports the end-to-end metrics: medians over the repetitions of
wall_s and cpu_s (first command call to last report written) and peak_rss_mb,
and setup_s, the median time of several fresh interpreters importing
speclab.cli.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of spans.py, each the lower median of the
traced repetitions' values, so that counts stay whole numbers.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it, "record {...}", adds the seed, the
per-repetition values, fail_ratio, the first failures and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
E2E_METRICS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 5
THREAD_ENV = {
    "SPECLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _setup_time(env) -> float:
    # The child reads the system-wide monotonic clock once speclab.cli is
    # imported; timing the exit from here would add the polling delay of
    # subprocess's wait, up to 50 ms.
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, speclab.cli; print(time.monotonic())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(proc.stdout) - t0


def _repetition(env, outdir: Path, traced: bool, commands, refs: check.References) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(outdir), str(int(traced)), json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = elapsed
    result["traced"] = traced
    result["attempted"] = result["failed"] = 0
    result["failures"] = [result["error"]] if result["error"] else []
    for name, kwargs in commands:
        attempted, failed, messages = refs.check(outdir, name.removeprefix("cmd_"), kwargs)
        result["attempted"] += attempted
        result["failed"] += failed
        result["failures"] += messages
    shutil.rmtree(outdir, ignore_errors=True)
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "threads": THREAD_ENV,
        "git_commit": _git_commit(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=1, help="seed of the ratio scan's pair stream")
    parser.add_argument("--seconds", type=int, default=25, help="time budget of the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.WORKLOADS), default="full", help="smoke: reduced inputs"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> None:
    args = _parse_args(argv)
    if not (ROOT / "src" / "speclab" / "__init__.py").is_file():
        sys.exit(f"no speclab package under {ROOT / 'src'}: run from a checkout of the repository")
    commands = workloads.commands(args.workload, args.size, args.seed)
    refs = check.References(args.size)
    env = _child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    setup, plain, traced = [], [], []
    try:
        if not args.trace:
            _setup_time(env)  # untimed: a fresh checkout compiles its bytecode here
            setup = [_setup_time(env) for _ in range(SETUP_PROBES)]
        kinds = (False, True) if args.trace else (False,)
        deadline = time.perf_counter() + args.seconds
        while True:
            for kind in kinds:
                reps = traced if kind else plain
                outdir = workdir / f"rep{len(plain) + len(traced)}"
                reps.append(_repetition(env, outdir, kind, commands, refs))
            cycle = sum((traced if kind else plain)[-1]["elapsed_s"] for kind in kinds)
            if time.perf_counter() + cycle > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    def median(reps, key):
        return statistics.median(r[key] for r in reps)

    if args.trace:
        overhead = median(traced, "wall_s") / median(plain, "wall_s") - 1.0
        values = {
            name: overhead
            if name == "trace.overhead_ratio"
            else statistics.median_low(r["layers"][name] for r in traced)
            for name in spans.LAYER_METRICS
        }
        units = spans.LAYER_METRICS
    else:
        values = {name: median(plain, name) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup)
        units = E2E_METRICS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": commands,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": [
            {k: r[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "elapsed_s")} for r in reps
        ],
        "setup_runs_s": setup,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [m for r in reps for m in r["failures"]][:10],
        "span_violations": [v for r in traced for v in r["span_violations"]],
        "environment": _environment(reps[0]["versions"]),
    }

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced repetitions")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':30s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
