"""One repetition of a workload, run by run.py in a fresh interpreter.

    python3 perfbench/worker.py OUTDIR TRACE COMMANDS_JSON

Runs the commands in order, writes their reports to OUTDIR and prints one JSON
line: wall and CPU time from the first command call to the last report
written, the process's peak RSS, the error if a command raised, the library
versions in use and, with TRACE=1, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
import speclab
from speclab import experiments

import spans


def _blas(config_module) -> str:
    blas = getattr(config_module, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main(argv) -> None:
    outdir, traced, commands = Path(argv[1]), argv[2] == "1", json.loads(argv[3])
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(speclab.__file__).resolve().parents:
        sys.exit(f"speclab was imported from {speclab.__file__}, not from {src}")

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    span = tracer.span if tracer else (lambda name: nullcontext())

    error = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with span(spans.ROOT_SPAN):
            for name, kwargs in commands:
                report = getattr(experiments, name)(**kwargs)
                with span("experiments.write"):
                    report.write(outdir)
    except Exception:  # the checker fails every operation of a command that raised
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "error": error,
        "versions": {
            "speclab": speclab.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas(np.__config__),
            "scipy_blas": _blas(scipy.__config__),
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["span_count"] = len(tracer.spans)
        result["span_violations"] = spans.tree_violations(tracer.spans)[:10]
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
