"""Spans and counters around speclab's public calls, installed from outside the package.

A span records its name, start, end and the span that was open when it began.
A layer's self time is the duration of its spans minus the time their child
spans cover.  Counts are taken from the objects the wrapped calls return.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# per-layer metrics and their units, in the order they are printed
LAYER_METRICS = {
    "fem.eigsh_s": "s",
    "fem.eigsh_calls": "count",
    "fem.linear_solves": "count",
    "fem.linear_solves_per_eigsh": "solves/call",
    "fem.splu_s": "s",
    "fem.factor_nnz": "count",
    "fem.dense_eigh_s": "s",
    "fem.dense_solves": "count",
    "fem.sparse_solves": "count",
    "fem.solve_self_s": "s",
    "fem.ladder_self_s": "s",
    "fem.solve_calls": "count",
    "fem.dofs_total": "count",
    "fem.dofs_max": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.assemble_nnz": "count",
    "geometry.refine_mesh_s": "s",
    "geometry.refine_mesh_calls": "count",
    "geometry.refined_vertices": "count",
    "geometry.triangulate_s": "s",
    "geometry.inclusion_pair_s": "s",
    "specfun.zero_s": "s",
    "specfun.zero_calls": "count",
    "specfun.prime_zero_s": "s",
    "constants.table_s": "s",
    "spectra.rectangle_s": "s",
    "experiments.write_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

ROOT_SPAN = "experiments.command"


class Tracer:
    """Spans kept in memory; `span` nests them by the order calls open and close."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.child_time = []  # time covered by each span's children
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.child_time.append(0.0)
        self._open.append(index)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][2] = end
            if parent >= 0:
                self.child_time[parent] += end - self.spans[index][1]

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a call inside a span named `name`.

        `observe` sees each result and returns what the caller receives.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            return observe(result) if observe else result

        setattr(owner, attr, traced)

    def self_times(self):
        self_s, calls = Counter(), Counter()
        for (name, start, end, _), child in zip(self.spans, self.child_time):
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS entry except trace.overhead_ratio, which needs an untraced run."""
        self_s, calls = self.self_times()
        c = self.counts
        eigsh_calls = calls["fem.eigsh"]
        return {
            "fem.eigsh_s": self_s["fem.eigsh"],
            "fem.eigsh_calls": eigsh_calls,
            "fem.linear_solves": c["linear_solves"],
            "fem.linear_solves_per_eigsh": c["linear_solves"] / eigsh_calls if eigsh_calls else 0.0,
            "fem.splu_s": self_s["fem.splu"],
            "fem.factor_nnz": c["factor_nnz"],
            "fem.dense_eigh_s": self_s["fem.dense_eigh"],
            "fem.dense_solves": calls["fem.solve_smallest"] - calls["fem.splu"],
            "fem.sparse_solves": calls["fem.splu"],
            "fem.solve_self_s": self_s["fem.solve_smallest"],
            "fem.ladder_self_s": self_s["fem.ladder"],
            "fem.solve_calls": calls["fem.solve_smallest"],
            "fem.dofs_total": c["dofs_total"],
            "fem.dofs_max": c["dofs_max"],
            "fem.assemble_s": self_s["fem.assemble"],
            "fem.assemble_calls": calls["fem.assemble"],
            "fem.assemble_nnz": c["assemble_nnz"],
            "geometry.refine_mesh_s": self_s["geometry.refine_mesh"],
            "geometry.refine_mesh_calls": calls["geometry.refine_mesh"],
            "geometry.refined_vertices": c["refined_vertices"],
            "geometry.triangulate_s": self_s["geometry.triangulate"],
            "geometry.inclusion_pair_s": self_s["geometry.inclusion_pair"],
            "specfun.zero_s": self_s["specfun.bessel_j_zero"],
            "specfun.zero_calls": calls["specfun.bessel_j_zero"],
            "specfun.prime_zero_s": self_s["specfun.bessel_j_prime_zero"],
            "constants.table_s": self_s["constants.emit_constant_table"],
            "spectra.rectangle_s": self_s["spectra.rectangle_mu_k"],
            "experiments.write_s": self_s["experiments.write"],
            "experiments.self_s": self_s[ROOT_SPAN],
        }


def tree_violations(spans) -> list:
    """Spans that are unfinished, outlast their parent or cover more than their own duration."""
    bad = []
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if end is None or end < start:
            bad.append(f"{name}: unfinished or negative duration")
            continue
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if p_end is None or start < p_start or end > p_end:
                bad.append(f"{name}: outside its parent {spans[parent][0]}")
            covered[parent] += end - start
    for (name, start, end, _), child in zip(spans, covered):
        if end is not None and child > (end - start) * (1.0 + 1e-9):
            bad.append(f"{name}: children cover more than the span")
    return bad


class _Proxy:
    """Forwards attribute reads to `target`, except the names given as overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def instrument(tracer: Tracer) -> None:
    """Wrap the module attributes through which speclab's layers call each other."""
    from speclab import constants, fem, geometry, specfun, spectra

    t, c = tracer, tracer.counts

    def factorization(lu):
        # L and U are built on access: keep that out of every layer's self time
        with t.span("trace.bookkeeping"):
            c["factor_nnz"] += lu.L.nnz + lu.U.nnz

        def solve(rhs, *args, **kwargs):
            c["linear_solves"] += rhs.shape[1] if rhs.ndim == 2 else 1  # one per right-hand side
            return lu.solve(rhs, *args, **kwargs)

        return _Proxy(lu, solve=solve)

    def eig_result(res):
        c["dofs_total"] += res.dof_count
        c["dofs_max"] = max(c["dofs_max"], res.dof_count)
        return res

    def matrices(km):
        c["assemble_nnz"] += km[0].nnz
        return km

    def refined(mesh):
        c["refined_vertices"] += len(mesh.vertices)
        return mesh

    t.wrap(fem, "splu", "fem.splu", factorization)
    t.wrap(fem, "eigsh", "fem.eigsh")
    t.wrap(fem, "solve_smallest", "fem.solve_smallest", eig_result)
    t.wrap(fem, "assemble", "fem.assemble", matrices)
    for public in ("mu_k", "mu_spectrum", "dirichlet_lambda_k", "dirichlet_spectrum"):
        t.wrap(fem, public, "fem.ladder")
    t.wrap(geometry, "refine_mesh", "geometry.refine_mesh", refined)
    t.wrap(geometry, "triangulate", "geometry.triangulate")
    t.wrap(geometry, "inclusion_pair", "geometry.inclusion_pair")
    t.wrap(specfun, "bessel_j_zero", "specfun.bessel_j_zero")
    t.wrap(specfun, "bessel_j_prime_zero", "specfun.bessel_j_prime_zero")
    t.wrap(constants, "emit_constant_table", "constants.emit_constant_table")
    t.wrap(spectra, "rectangle_mu_k", "spectra.rectangle_mu_k")

    # fem calls scipy.linalg.eigh for the dense solve and again inside the
    # Rayleigh-Ritz step; only the first is the dense_eigh layer.
    in_ritz = [0]
    ritz = fem._rayleigh_ritz_refine

    @functools.wraps(ritz)
    def rayleigh_ritz(*args, **kwargs):
        in_ritz[0] += 1
        try:
            return ritz(*args, **kwargs)
        finally:
            in_ritz[0] -= 1

    eigh = fem.scipy.linalg.eigh

    @functools.wraps(eigh)
    def dense_eigh(*args, **kwargs):
        if in_ritz[0]:
            return eigh(*args, **kwargs)
        with t.span("fem.dense_eigh"):
            return eigh(*args, **kwargs)

    fem._rayleigh_ritz_refine = rayleigh_ritz
    fem.scipy = _Proxy(fem.scipy, linalg=_Proxy(fem.scipy.linalg, eigh=dense_eigh))
