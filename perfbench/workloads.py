"""The benchmark's workloads: the speclab commands each one runs, at each size.

A workload is a list of (experiments function, keyword arguments).  "full" is
the benchmark proper; "smoke" is a reduced size for the benchmark's own smoke
test.  Only `scan` depends on the seed: it feeds the ratio scan's pair stream.
"""

from __future__ import annotations

WORKLOADS = {
    "full": {
        # 33 solves, 25 of them sparse shift-invert up to 34,817 dofs: the sparse solver
        "table": [("cmd_table_mu1", {"refinements": 4})],
        # the constrained (Dirichlet base) problem on high-aspect rhombus meshes
        "sweep": [
            ("cmd_rhombus_sweep", {"theta_deg_list": [20.0, 10.0, 5.0], "refinements": 4})
        ],
        # 1,206 tiny dense solves: per-call overhead of meshing and assembly
        "scan": [("cmd_ratio_scan", {"n_pairs": 200, "refinements": 3})],
        # Bessel zeros, closed-form constants and exact spectra; no FEM
        "analytic": [
            ("cmd_constants", {"k_max": 200, "d_max": 120}),
            ("cmd_weyl", {"k_list": [10**3, 10**4, 10**5, 10**6, 10**7]}),
            ("cmd_dimension_demo", {}),
            ("cmd_counterexamples", {}),
        ],
    },
    "smoke": {
        # refinements 2 is too coarse for the table's and the sweep's own verdicts
        "table": [("cmd_table_mu1", {"refinements": 3})],
        "sweep": [
            ("cmd_rhombus_sweep", {"theta_deg_list": [20.0, 10.0, 5.0], "refinements": 3})
        ],
        "scan": [("cmd_ratio_scan", {"n_pairs": 4, "refinements": 2})],
        "analytic": [
            ("cmd_constants", {"k_max": 10, "d_max": 12}),
            ("cmd_weyl", {"k_list": [10**3, 10**4]}),
            ("cmd_dimension_demo", {}),
            ("cmd_counterexamples", {}),
        ],
    },
}

# Reference values of the ratio scan cover the pairs of seeds 1..SCAN_REFERENCE_PAIRS.
SCAN_REFERENCE_PAIRS = {"full": 1000, "smoke": 100}


def scan_seed(seed: int, size: str) -> int:
    """Base seed of the pair stream: `seed` folded into the range the references cover."""
    n_pairs = WORKLOADS[size]["scan"][0][1]["n_pairs"]
    return 1 + (seed - 1) % (SCAN_REFERENCE_PAIRS[size] - n_pairs + 1)


def commands(workload: str, size: str, seed: int) -> list:
    """The workload's commands, with the ratio scan's seed filled in."""
    out = []
    for name, kwargs in WORKLOADS[size][workload]:
        if name == "cmd_ratio_scan":
            kwargs = {**kwargs, "seed": scan_seed(seed, size)}
        out.append((name, kwargs))
    return out
