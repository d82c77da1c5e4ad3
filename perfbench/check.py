"""Compares each command's CSV and verdicts with reference values recorded at the seed commit.

An operation is one verdict or one CSV cell checked against its reference.
Every verdict must pass.  A FEM value may differ from its reference by at most
the reference row's Richardson error_estimate (scaled for columns derived
from it); any other number by 1e-12 relative; text must match exactly.  A
command that wrote no report fails all of its operations.
"""

from __future__ import annotations

import json
import lzma
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ANALYTIC_RTOL = 1e-12


def _err(f):
    return f("error_estimate")


# command -> (key columns, free-text column that may hold commas, FEM tolerances)
SPECS = {
    "table_mu1": (
        ("domain",),
        "note",
        {
            "mu1_computed": _err,
            "error_estimate": _err,
            "rel_deviation": lambda f: f("error_estimate") / f("mu1_reference"),
            "ratio_segment": lambda f: f("ratio_segment") * f("error_estimate") / f("mu1_computed"),
        },
    ),
    "rhombus_sweep": (
        ("theta_deg",),
        None,
        {"mu1_normalized": _err, "error_estimate": _err, "tau1_antisymmetric": _err},
    ),
    "ratio_scan": (
        ("pair_id",),
        None,
        {
            "mu1_inner": lambda f: f("err_inner"),
            "err_inner": lambda f: f("err_inner"),
            "mu1_outer": lambda f: f("err_outer"),
            "err_outer": lambda f: f("err_outer"),
            "ratio": lambda f: f("ratio")
            * (f("err_inner") / f("mu1_inner") + f("err_outer") / f("mu1_outer")),
        },
    ),
    "constants": (("name", "k", "d"), "formula", {}),
    "weyl": (("k",), None, {}),
    "dimension_demo": (("ell",), None, {}),
    "counterexamples": (("case",), "description", {}),
}


def parse_csv(text: str, text_column):
    """Header and rows (dicts of strings) of a CSV that speclab writes without quoting."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        extra = len(cells) - len(header)
        if extra > 0 and text_column in header:
            i = header.index(text_column)
            cells[i : i + extra + 1] = [",".join(cells[i : i + extra + 1])]
        if len(cells) != len(header):
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(dict(zip(header, cells)))
    return header, rows


def _key(row, keys):
    return ",".join(row[c] for c in keys)


def _number(text):
    if text in ("true", "false"):
        return None
    try:
        return float(text)
    except (TypeError, ValueError):  # text, or a column missing from the output
        return None


def _cell_ok(got: str, ref: str, tol: float) -> bool:
    a, b = _number(ref), _number(got)
    if a is None or b is None:
        return got == ref
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(b - a) <= max(tol, ANALYTIC_RTOL * abs(a))


class References:
    """Reference reports of one workload size, read from reference/<size>/."""

    def __init__(self, size: str):
        self.dir = REFERENCE_DIR / size
        self.manifest = json.loads((REFERENCE_DIR / "manifest.json").read_text())[size]
        self._rows = {}

    def expected(self, command: str, kwargs: dict) -> dict:
        """Reference rows by key, for the command run with these arguments."""
        if command not in self._rows:
            with lzma.open(self.dir / f"{command}.csv.xz", "rt", encoding="utf-8") as fh:
                self._rows[command] = parse_csv(fh.read(), SPECS[command][1])[1]
        rows = self._rows[command]
        if command != "ratio_scan":
            return {_key(r, SPECS[command][0]): r for r in rows}
        # the references hold the pairs of seeds 1..N; pick this run's window
        seed, n_pairs = kwargs["seed"], kwargs["n_pairs"]
        out = {}
        for r in rows:
            if r["kind"] == "reference":
                out[r["pair_id"]] = {**r, "seed": str(seed)}
            elif 0 <= int(r["seed"]) - seed < n_pairs:
                pair_id = f"pair_{int(r['seed']) - seed:04d}"
                out[pair_id] = {**r, "pair_id": pair_id}
        return out

    def check(self, outdir: Path, command: str, kwargs: dict):
        """(attempted, failed, first failure messages) for one command's report in outdir."""
        keys, text_column, fem_tol = SPECS[command]
        expected = self.expected(command, kwargs)
        n_verdicts = self.manifest["verdicts"][command]
        n_all = n_verdicts + sum(len(r) - len(keys) for r in expected.values())
        try:
            verdicts = json.loads((outdir / f"{command}_verdicts.json").read_text())["verdicts"]
            text = (outdir / f"{command}.csv").read_text(encoding="utf-8")
            rows = parse_csv(text, text_column)[1]
        except (OSError, ValueError, KeyError) as exc:
            return n_all, n_all, [f"{command}: no readable report ({exc})"]

        messages = []
        attempted = max(n_verdicts, len(verdicts))
        failed = attempted - len(verdicts)
        for v in verdicts:
            if not v["passed"]:
                failed += 1
                messages.append(f"{command}: verdict {v['name']} failed ({v['detail']})")

        got = {_key(r, keys): r for r in rows}
        for key in sorted(set(got) | set(expected)):
            ref, row = expected.get(key), got.get(key)
            n = len(ref or row) - len(keys)
            attempted += n
            if ref is None or row is None:
                failed += n
                messages.append(f"{command}: row {key} {'unexpected' if ref is None else 'missing'}")
                continue
            f = lambda c: float(ref[c])
            for column, ref_cell in ref.items():
                if column in keys:
                    continue
                tol = fem_tol[column](f) if column in fem_tol else 0.0
                if not _cell_ok(row.get(column), ref_cell, tol):
                    failed += 1
                    messages.append(
                        f"{command}: {key}.{column} = {row.get(column)}, reference {ref_cell}"
                    )
        return attempted, failed, messages
