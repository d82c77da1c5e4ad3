"""Records the reference reports that check.py compares against.

    python3 perfbench/record_references.py

Run it at the commit whose output is the reference.  It runs every workload
at every size in this process, with the thread settings of run.py, and
writes reference/<size>/<command>.csv.xz and reference/manifest.json.  The
ratio scan is recorded once over the pairs of seeds 1..SCAN_REFERENCE_PAIRS,
so that any benchmark seed finds its pairs.  It refuses to record a failed
verdict.
"""

from __future__ import annotations

import json
import lzma
import os
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    os.environ.update(run.THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(run.ROOT / "src"))
    from speclab import experiments

    manifest = {}
    for size, sizes in workloads.WORKLOADS.items():
        outdir = HERE / "reference" / size
        outdir.mkdir(parents=True, exist_ok=True)
        verdicts = {}
        for commands in sizes.values():
            for name, kwargs in commands:
                if name == "cmd_ratio_scan":
                    kwargs = {**kwargs, "seed": 1, "n_pairs": workloads.SCAN_REFERENCE_PAIRS[size]}
                report = getattr(experiments, name)(**kwargs)
                failed = [v.name for v in report.verdicts if not v.passed]
                if failed:
                    sys.exit(f"{report.command} ({size}): verdicts failed: {failed}")
                verdicts[report.command] = len(report.verdicts)
                csv_path = outdir / f"{report.command}.csv"
                report.write_csv(csv_path)
                with lzma.open(csv_path.with_suffix(".csv.xz"), "wb", preset=9) as fh:
                    fh.write(csv_path.read_bytes())
                csv_path.unlink()
                print(f"{size} {report.command}: {len(report.rows)} rows", flush=True)
        manifest[size] = {"verdicts": verdicts}
    manifest_path = HERE / "reference" / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
