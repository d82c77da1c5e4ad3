"""Reproducible experiments tying constants, spectra, geometry and FEM together.

Every command returns an ExperimentReport: named numeric columns, a list of
verdicts (each citing the invariant it checks), and run metadata.  Reports
serialize to CSV (data; byte-identical across reruns of the same
configuration at the same BLAS thread count, which moves FEM values in their
last digits), JSON (verdicts and metadata, including wall time) and, for the
sweep and trend commands, an SVG line plot.

A verdict's slack is the signed margin of its inequality, and it passed iff
slack >= 0, so a NaN slack fails.  An exact check's slack is -|deviation|;
a compound verdict's slack is the minimum of its parts (NaN if any part is).

Analytic assertions are exact to 1e-12.  FEM assertions allow a per-row
tolerance (the table list in cmd_table_mu1) plus the Richardson estimate.
A FEM row whose solve does not converge gets a failed fem_converged_<row>
verdict and is not written; each verdict that reads it fails through a NaN
slack (null in the JSON), so the verdict names do not depend on which rows
failed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, constants, fem, geometry, spectra, svg
from .specfun import as_index

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class Verdict:
    name: str
    invariant: str
    slack: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.slack >= 0)


# Signed margins: each is >= 0 exactly when its inequality holds.  The strict
# forms compare with the neighbouring float, so equality gives a negative margin.


def at_least(value, bound):
    return value - bound


def at_most(value, bound):
    return bound - value


def above(value, bound):
    return value - math.nextafter(bound, math.inf)


def below(value, bound):
    return math.nextafter(bound, -math.inf) - value


def exactly(value, target):
    return -abs(value - target)


def smallest(parts):
    """Slack of a compound verdict: its smallest part, NaN if any part is NaN
    (min() keeps a NaN only when it comes first), 0.0 if it has no parts."""
    parts = list(parts)
    return math.nan if any(map(math.isnan, parts)) else min(parts, default=0.0)


@dataclass
class ExperimentReport:
    columns: list
    rows: list
    verdicts: list
    metadata: dict = field(default_factory=dict)
    plot_series: list = field(default_factory=list)
    plot_labels: tuple = ("", "", "")
    command: str = ""  # set by _command

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        self.write_csv(outdir / f"{self.command}.csv")
        self.write_verdicts(outdir / f"{self.command}_verdicts.json")
        if self.plot_series:
            title, xlabel, ylabel = self.plot_labels
            svg.polyline_plot(
                outdir / f"{self.command}.svg", self.plot_series, title, xlabel, ylabel
            )

    def write_csv(self, path) -> None:
        """One line per row through a template read off the first row: a float
        cell as 15 significant digits, any other cell as its str().  Each
        column must hold one kind of cell."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            if self.rows:
                kinds = (isinstance(c, (float, np.floating)) for c in self.rows[0])
                line = (",".join("{:.15g}" if f else "{}" for f in kinds) + "\n").format
                fh.writelines(line(*row) for row in self.rows)

    def write_verdicts(self, path) -> None:
        payload = {
            "command": self.command,
            "metadata": self.metadata,
            "all_passed": bool(self.all_passed),
            "verdicts": [
                {
                    "name": v.name,
                    "invariant": v.invariant,
                    "passed": bool(v.passed),
                    "slack": float(v.slack),
                    "detail": v.detail,
                }
                for v in self.verdicts
            ],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_json_values(payload), fh, indent=2, allow_nan=False)
            fh.write("\n")

    def summary_lines(self):
        yield f"[{self.command}] {len(self.rows)} rows, {len(self.verdicts)} verdicts"
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            yield f"  {mark} {v.name} (slack {v.slack:.3e}) [{v.invariant}]"


def _json_values(obj):
    """obj as plain JSON values: numpy scalars and arrays become Python numbers
    and lists, tuples become lists, and every NaN becomes None (JSON has no NaN)."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: _json_values(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_values(value) for value in obj]
    return obj


# Every command by name (cmd_<name> registers as <name>), in definition order.
# The CLI builds each subcommand from its runner's signature: a parameter's
# name, annotation and default are its flag, its parser and its default.
COMMANDS = {}


def _command(fn):
    """Run cmd_<name> as the command <name>: its report gets that name, and its
    metadata the library versions, the call's arguments (defaults applied) as
    params, the command's own keys, and the wall time of the call."""
    name = fn.__name__.removeprefix("cmd_")
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        report = fn(*args, **kwargs)
        report.command = name
        report.metadata = {
            "speclab_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "python_version": platform.python_version(),
            "params": bound.arguments,
            **report.metadata,
            "wall_time_s": round(time.perf_counter() - t0, 3),
        }
        return report

    COMMANDS[name] = run
    return run


# P1 eigenvalues converge at order 2 in h: a ladder whose fitted order falls
# outside this band is not in the regime its Richardson estimate assumes
ORDER_BAND = (1.5, 2.5)


def _ladder_checks(ladders) -> dict:
    """The largest eigenpair backward error (fem.EigResult.residuals; scale-free,
    at most fem.DEFAULT_TOL) over every mesh of the report's ladders, counts
    of their Richardson self-checks: fitted order outside ORDER_BAND (NaN
    counts as outside) and non-monotone, and counts of finest meshes solved
    by spectrum slicing and of slices rejected for the dense eigensolve
    (fem.EigResult.slicing)."""
    lo, hi = ORDER_BAND
    return {
        "max_residual": max((r.residual for r in ladders), default=math.nan),
        "ladders": len(ladders),
        "fitted_order_out_of_band": sum(not lo <= r.fitted_order <= hi for r in ladders),
        "non_monotone": sum(not r.monotone for r in ladders),
        "sliced_rungs": sum(r.slicing == fem.SLICED for r in ladders),
        "slice_fallbacks": sum(r.slicing.startswith("fallback") for r in ladders),
    }


def _solve_rows(jobs):
    """Solve (row name, specs, refinements) jobs in order: {row: its mu_1
    results} for the rows whose ladders all converged, and a failed verdict
    fem_converged_<row> for each row where one raised NonConvergenceError."""
    solved, failed = {}, []
    for row, specs, refinements in jobs:
        try:
            solved[row] = [fem.mu_k(spec, 1, refinements=refinements) for spec in specs]
        except fem.NonConvergenceError as exc:
            name = f"fem_converged_{row}"
            failed.append(Verdict(name, "fem: eigensolver converged", math.nan, str(exc)))
    return solved, failed


# stands in for each ladder of a failed row, so that every verdict reading it fails
NAN_LADDER = fem.ExtrapolationResult(math.nan, math.nan, (math.nan,) * 3, math.nan, math.nan, False)

SYMMETRIC_TIE_TOL = 1e-9  # see _symmetric_lowest


def _symmetric_lowest(symmetric, antisymmetric_floors) -> float:
    """Slack of the claim that a mirror-symmetric domain's mu_1 is the first
    eigenvalue of the symmetry part that the domain is solved on.

    The domain's mesh is the part plus its mirror images (bit for bit for a
    rhombus, to rounding for a regular polygon and a Reuleaux triangle), so
    the pencil splits into the pencils of the part under each combination of
    Neumann (even) and Dirichlet (odd) cuts, and the domain's mu_1 on each
    rung is the smallest of their first nonzero eigenvalues.  symmetric is the
    solved part's ladder (the Neumann-cut half of a rhombus or a Reuleaux
    triangle, the quarter of a regular polygon); antisymmetric_floors holds,
    per rung, a lower bound on every eigenvalue of the other combinations
    that the solved part does not share.  Compared within SYMMETRIC_TIE_TOL
    relative, so that an exact tie (the square's double mu_1) passes.
    """
    return smallest(
        at_least(floor, mu * (1.0 - SYMMETRIC_TIE_TOL))
        for mu, floor in zip(symmetric.values, antisymmetric_floors)
    )


# ---------------------------------------------------------------------------
# constants


@_command
def cmd_constants(k_max: int = 3, d_max: int = 10) -> ExperimentReport:
    """Emit the full constant grid and run the closed-form invariant suite."""
    records = constants.emit_constant_table(k_max, d_max)
    # the verdicts read the grid at k <= 20 (a map of the whole grid would cost
    # more than the calls it saves); c_upper_increasing_toward_one probes beyond it
    grid = {(name, k, d): value for name, k, d, value, _ in records if k <= 20}

    worst = max(r.value for r in records if r.name == "c_upper")
    increasing = [above(constants.c_upper(1000, d), 0.99) for d in (2, 3)]
    for d in (2, 3, 4, 6, 10):
        if d <= d_max:
            seq = [constants.c_upper(k, d) for k in range(1, 31)]
            increasing += [above(b, a) for a, b in zip(seq, seq[1:])]
    dimension = []
    for k in range(1, min(k_max, 20) + 1):
        seq = [grid["c_upper", k, d] for d in range(2, min(d_max, 60) + 1)]
        dimension += [at_most(b - a, 1e-15) for a, b in zip(seq, seq[1:])]
    envelope = [
        at_most(grid["c_upper", k, d] * d * d, PI2 * k * k)
        for k in range(1, min(k_max, 3) + 1)
        for d in range(2, d_max + 1)
    ]
    sandwich = []
    for d in range(2, d_max + 1):
        f, s, a = (grid[name, 1, d] for name in ("funano_lower", "alpha1_simple", "alpha1_sharp"))
        sandwich += [at_least(s, f), at_most(s, a)]
    norm = [grid["alpha1_sharp", 1, d] * d * d for d in range(2, d_max + 1)]
    normalized = [above(b, a) for a, b in zip(norm, norm[1:])] + [at_most(max(norm), PI2)]

    verdicts = [
        Verdict(
            "c_upper_below_one",
            "constants: c_upper(k, d) < 1",
            below(worst, 1.0),
            f"max over grid {worst:.12g}",
        ),
        Verdict(
            "c_upper_increasing_toward_one",
            "constants: c_upper(k, d) increasing in k; c_upper(1000, {2,3}) > 0.99",
            smallest(increasing),
        ),
        Verdict(
            "c_upper_dimension_monotone",
            "constants: c_upper(k, d+1) <= c_upper(k, d)",
            smallest(dimension),
        ),
        Verdict(
            "c_upper_dimension_envelope",
            "constants: c_upper(k, d) d^2 <= pi^2 k^2 (frozen envelope)",
            smallest(envelope),
        ),
        Verdict(
            "sandwich_funano_simple_sharp",
            "constants: funano_lower <= alpha1_simple <= alpha1_sharp",
            smallest(sandwich),
        ),
        Verdict(
            "alpha1_sharp_normalized_increasing",
            "constants: alpha1_sharp(d) d^2 increasing and <= pi^2",
            smallest(normalized),
        ),
    ]

    return ExperimentReport(
        columns=["name", "k", "d", "value", "formula"],
        rows=records,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# table of mu_1 values at diameter 2


SEGMENT_MU1_D2 = PI2 / 4.0

SECTOR_OPENING_GRID = (1.50, 1.58, 1.654, 1.73, 1.81)


@_command
def cmd_table_mu1(refinements: int = 4) -> ExperimentReport:
    """Reproduce the diameter-2 table of mu_1 values and the segment ratios."""
    j01sq = spectra.cone_tau1(1.0, 2)
    disk = spectra.disk_mu1(1.0)
    triangle = spectra.equilateral_triangle_mu1(2.0)
    # each rhombus is solved on its symmetric half (see _symmetric_lowest)
    rhombi = [
        geometry.half_rhombus(2.0, math.radians(deg), geometry.NEUMANN) for deg in (10.0, 5.0)
    ]
    sectors = [geometry.Sector(1.0, opening, 64) for opening in SECTOR_OPENING_GRID]
    # the Reuleaux triangle is solved on its symmetric half, the disk's 256-gon
    # on its quarter (see the symmetric_lowest verdicts below)
    reuleaux = geometry.half_reuleaux_triangle(2.0, 64)
    quarter = geometry.quarter_regular_polygon(256, 1.0)
    n = refinements
    # (row, specs, refinements, mu_1 reference, ratio reference, tolerance)
    table = [
        ("optimal_bound", rhombi, n, j01sq, SEGMENT_MU1_D2 / j01sq, 0.01),
        ("square", [geometry.Rectangle(math.sqrt(2.0), math.sqrt(2.0))], n, PI2 / 2.0, 0.5, 0.002),
        ("optimal_sector", sectors, max(2, n - 1), 4.67, SEGMENT_MU1_D2 / 4.67, 0.02),
        ("equilateral_triangle", [geometry.EquilateralTriangle(2.0)], n, triangle, 0.5625, 0.005),
        ("reuleaux_triangle", [reuleaux], n, 3.487, 0.707, 0.01),
        ("disk", [quarter], n, disk, SEGMENT_MU1_D2 / disk, 0.005),
    ]
    solved, verdicts = _solve_rows([entry[:3] for entry in table])

    rows = []
    for name, specs, _, reference, ratio_ref, tol in table:
        results = solved.get(name, [NAN_LADDER] * len(specs))
        note = ""
        if name == "optimal_bound":
            # the rhombus family's trend toward j_{0,1}^2
            r10, r5 = results
            computed, err = r5.value + (r5.value - r10.value) / 3.0, r5.error_estimate
            note = "rhombus theta->0 trend (10deg, 5deg extrapolation)"
        elif name == "optimal_sector":
            # each sector's mu_1 rescaled to diameter 2; the row is the largest
            scaled = []
            for spec, res in zip(specs, results):
                scale = (geometry.diameter(spec.outline()) / 2.0) ** 2
                scaled.append((res.value * scale, res.error_estimate * scale, spec.opening))
            computed, err, opening = max(scaled, key=lambda item: item[0])
            note = f"extremal opening {opening:g} rad over grid {SECTOR_OPENING_GRID}"
        else:
            (res,) = results
            computed, err = res.value, res.error_estimate
            if name == "reuleaux_triangle":
                note = "reference itself approximate"
        dev = abs(computed - reference) / reference
        ratio = SEGMENT_MU1_D2 / computed
        if name in solved:
            rows.append((name, computed, reference, dev, ratio, ratio_ref, err, note))
        budget = tol + err / reference
        verdicts.append(
            Verdict(
                f"table_{name}",
                f"table: mu_1 within {tol:.1%} (+estimate) of reference",
                at_most(dev, budget),
                f"computed {computed:.6f} vs {reference:.6f}",
            )
        )
        verdicts.append(
            Verdict(
                f"table_{name}_ratio",
                f"table: segment ratio within {tol:.1%} (+estimate) of reference",
                at_most(abs(ratio - ratio_ref) / ratio_ref, budget),
            )
        )

    # a row solved on symmetry cells that all state a floor carries the whole
    # domains' mu_1 when, on every rung, each cell's mu_1 lies below its floor
    for name, specs, *_ in table:
        floors = [getattr(spec, "floor", None) for spec in specs]
        if None in floors:
            continue
        ladders = solved.get(name, [NAN_LADDER] * len(specs))
        verdicts.append(
            Verdict(
                f"table_{name}_symmetric_lowest",
                "fem: the domain's mu_1 is its symmetry cell's, as on every rung it lies below "
                "the cell's floor, a bound on each eigenvalue the cell does not carry (Part.floor)",
                smallest(_symmetric_lowest(res, [floor] * 3) for res, floor in zip(ladders, floors)),
                f"floors {', '.join(f'{floor:.6g}' for floor in floors)}",
            )
        )
    seg = spectra.segment_spectrum(2.0, "neumann", 2).values[1]
    dev = abs(seg - SEGMENT_MU1_D2)
    rows.append(("segment", seg, SEGMENT_MU1_D2, dev, 1.0, 1.0, 0.0, "analytic"))
    verdicts.append(
        Verdict(
            "table_segment_exact",
            "table: segment row analytic, exact",
            exactly(seg, SEGMENT_MU1_D2),
        )
    )

    return ExperimentReport(
        columns=[
            "domain",
            "mu1_computed",
            "mu1_reference",
            "rel_deviation",
            "ratio_segment",
            "ratio_reference",
            "error_estimate",
            "note",
        ],
        rows=rows,
        verdicts=verdicts,
        metadata=_ladder_checks(sum(solved.values(), [])),
    )


# ---------------------------------------------------------------------------
# rhombus sweep


@_command
def cmd_rhombus_sweep(
    theta_deg_list: tuple[float, ...] = (20.0, 10.0, 5.0), refinements: int = 4
) -> ExperimentReport:
    """Squeeze the rhombus mu_1 between the two cone eigenvalues and check the
    divergence of the antisymmetric mode.

    Each rhombus is solved as its two mirror halves: the Neumann-cut half
    gives its mu_1 and the Dirichlet-cut half its antisymmetric tau_1, and
    the symmetric_lowest verdict checks, rung by rung, that the first is the
    rhombus's mu_1."""
    thetas = sorted({float(t) for t in theta_deg_list}, reverse=True)
    if not thetas:
        raise ValueError("theta_deg_list must name at least one angle")
    if any(not (2.0 < t <= 45.0) for t in thetas):
        raise ValueError("sweep angles must lie in (2, 45] degrees")
    if len({f"{t:g}" for t in thetas}) < len(thetas):
        raise ValueError("sweep angles must differ in the 6 significant digits that name their rows")
    j01sq = spectra.cone_tau1(1.0, 2)

    cuts = (geometry.NEUMANN, geometry.DIRICHLET)
    halves = {
        deg: [geometry.half_rhombus(2.0, math.radians(deg), cut) for cut in cuts] for deg in thetas
    }
    solved, verdicts = _solve_rows([(f"theta_{deg:g}", halves[deg], refinements) for deg in thetas])

    columns = [
        "theta_deg",
        "mu1_normalized",
        "band_lo",
        "band_hi",
        "error_estimate",
        "tau1_antisymmetric",
        "tau1_lower_bound",
    ]
    angles = []  # one row per angle, NaN-valued where the solve failed
    for deg in thetas:
        theta = math.radians(deg)
        symmetric, anti = solved.get(f"theta_{deg:g}", [NAN_LADDER] * 2)
        normalized = symmetric.value  # D = 2 so mu_1 D^2/4 = mu_1
        lo = math.cos(theta) ** 2 * j01sq
        eps = symmetric.error_estimate
        tau_bound = halves[deg][0].floor  # the Neumann-cut half's: pi^2/(4 h^2) <= tau_1
        angles.append((deg, normalized, lo, j01sq, eps, anti.value, tau_bound))
        verdicts.append(
            Verdict(
                f"squeeze_band_theta_{deg:g}",
                "fem: cone squeeze, mu_1 D^2/4 within [cos^2(theta) j01^2 - eps, j01^2 + eps]",
                smallest([at_least(normalized, lo - eps), at_most(normalized, j01sq + eps)]),
                f"normalized {normalized:.6f}, band [{lo:.6f}, {j01sq:.6f}], eps {eps:.2e}",
            )
        )
        verdicts.append(
            Verdict(
                f"antisymmetric_lower_theta_{deg:g}",
                "fem: half-rhombus Dirichlet base tau_1 >= 0.995 pi^2/(4 M^2)",
                at_least(anti.value, 0.995 * tau_bound),
            )
        )
        verdicts.append(
            Verdict(
                f"symmetric_lowest_theta_{deg:g}",
                "fem: rhombus mu_1 is its Neumann-cut half's, as on every rung it is at most "
                "the Dirichlet-cut half's tau_1",
                _symmetric_lowest(symmetric, anti.values),
            )
        )
    rows = [row for row in angles if f"theta_{row[0]:g}" in solved]

    values = [row[1] for row in angles]
    approach = [above(b, a) for a, b in zip(values, values[1:])]
    approach += [below(row[1], j01sq + row[4]) for row in angles]
    verdicts.append(
        Verdict(
            "monotone_approach",
            "fem: mu_1 D^2/4 increases toward j01^2 as theta decreases",
            smallest(approach),
        )
    )

    for row_i, row_j in zip(angles, angles[1:]):
        # theta_i > theta_j: the antisymmetric mode diverges at least like
        # 1/sin^2, with 20% slack
        deg_i, deg_j = row_i[0], row_j[0]
        envelope = 0.8 * (math.sin(math.radians(deg_i)) / math.sin(math.radians(deg_j))) ** 2
        ratio = row_j[5] / row_i[5]
        verdicts.append(
            Verdict(
                f"antisymmetric_divergence_{deg_i:g}_to_{deg_j:g}",
                "fem: tau_1 ratio >= 0.8 (sin(theta_i)/sin(theta_j))^2",
                at_least(ratio, envelope),
            )
        )

    series = []
    if rows:
        series = [
            ("mu1 normalized", [r[0] for r in rows], [r[1] for r in rows]),
            ("band low", [r[0] for r in rows], [r[2] for r in rows]),
            ("band high", [r[0] for r in rows], [r[3] for r in rows]),
        ]
    return ExperimentReport(
        columns=columns,
        rows=rows,
        verdicts=verdicts,
        metadata=_ladder_checks(sum(solved.values(), [])),
        plot_series=series,
        plot_labels=("rhombus sweep", "theta (degrees)", "mu_1 D^2 / 4"),
    )


# ---------------------------------------------------------------------------
# ratio scan


@_command
def cmd_ratio_scan(
    n_pairs: int = 200,
    seed: int = 1,
    refinements: int = 3,
    n_outer: int = 12,
    n_inner: int = 6,
) -> ExperimentReport:
    """mu_1 ratios over seeded nested convex pairs, with reference pairs.

    The two reference rows realize the classical configurations: an
    identical pair (ratio exactly 1 between two independent solves of one
    square) and a thin rectangle spanning most of a square's diagonal
    (ratio below 1, witnessing the monotonicity failure).  Random pairs are
    hulls of uniform points, deterministic from the seed.
    """
    n_pairs, seed = as_index(n_pairs, "n_pairs"), as_index(seed, "seed")
    n_outer, n_inner = as_index(n_outer, "n_outer"), as_index(n_inner, "n_inner")
    if not 1 <= n_pairs <= 1000:
        raise ValueError("n_pairs must be 1..1000")
    if n_outer < 3 or n_inner < 3:
        raise ValueError("n_outer and n_inner must be at least 3")
    alpha = constants.alpha1_sharp(2)
    columns = [
        "pair_id",
        "seed",
        "kind",
        "mu1_inner",
        "mu1_outer",
        "ratio",
        "err_inner",
        "err_outer",
    ]
    pairs = []  # (pair_id, pair seed, inner hull, outer hull)
    skipped = 0
    for i in range(n_pairs):
        try:
            inner, outer = geometry.inclusion_pair(seed + i, n_outer, n_inner)
        except RuntimeError:  # no nondegenerate pair in 100 draws: skipped
            skipped += 1
            continue
        hulls = [geometry.ConvexHullPolygon(tuple(map(tuple, poly))) for poly in (inner, outer)]
        pairs.append((f"pair_{i:04d}", seed + i, *hulls))

    jobs = [
        ("ref_identical", [geometry.Rectangle(math.sqrt(2.0), math.sqrt(2.0))] * 2, refinements),
        ("ref_thin_rect_in_square", [geometry.Rectangle(1.9, 0.02)], refinements),
    ]
    jobs += [(pair_id, [inner, outer], refinements) for pair_id, _, inner, outer in pairs]
    solved, verdicts = _solve_rows(jobs)

    def row(pair_id, row_seed, kind, inner, outer):
        return (
            pair_id,
            row_seed,
            kind,
            inner.value,
            outer.value,
            inner.value / outer.value,
            inner.error_estimate,
            outer.error_estimate,
        )

    square, square_again = solved.get("ref_identical", [NAN_LADDER] * 2)
    (thin,) = solved.get("ref_thin_rect_in_square", [NAN_LADDER])
    refs_converged = solved.keys() >= {"ref_identical", "ref_thin_rect_in_square"}
    rows = []
    if "ref_identical" in solved:
        rows.append(row("ref_identical", seed, "reference", square, square_again))
    if refs_converged:  # the thin row reads the square's value too
        rows.append(row("ref_thin_rect_in_square", seed, "reference", thin, square))
    rows += [row(pid, pseed, "random", *solved[pid]) for pid, pseed, _, _ in pairs if pid in solved]

    min_id, min_ratio = min(((r[0], r[5]) for r in rows), key=lambda x: x[1], default=(None, math.nan))
    # the minimum over all rows is known only when both reference rows exist
    scan_min = min_ratio if refs_converged else math.nan
    bound = 0.995 * alpha
    verdicts += [
        Verdict(
            "ratios_above_sharp_constant",
            "constants: mu_1(inner)/mu_1(outer) >= 0.995 alpha1_sharp(2)",
            at_least(scan_min, bound),
            f"minimum ratio {min_ratio:.6f} at {min_id}",
        ),
        Verdict(
            "monotonicity_failure_witnessed",
            "table: at least one scanned pair has ratio < 1",
            below(scan_min, 1.0),
            f"minimum ratio {min_ratio:.6f} at {min_id}",
        ),
        Verdict(
            "identical_pair_ratio_one",
            "fem: identical domains give ratio exactly 1",
            exactly(square.value / square_again.value, 1.0),
        ),
    ]

    return ExperimentReport(
        columns=columns,
        rows=rows,
        verdicts=verdicts,
        metadata={
            "skipped": skipped,
            "min_ratio": min_ratio,
            "min_ratio_pair": min_id,
            **_ladder_checks(sum(solved.values(), [])),
        },
    )


# ---------------------------------------------------------------------------
# Weyl trend


@_command
def cmd_weyl(
    k_list: tuple[int, ...] = (10**3, 10**4, 10**5),
    rect1: tuple[float, float] = (1.0, 1.0),
    rect2: tuple[float, float] = (2.0, 1.3),
) -> ExperimentReport:
    """Eigenvalue-ratio trend toward the area-ratio limit for nested rectangles."""
    ks = [int(k) for k in k_list]
    if not ks:
        raise ValueError("k_list must name at least one index")
    if any(k < 1 or k > spectra.RECT_INDEX_MAX for k in ks):
        raise ValueError("k values outside the lattice-counting budget")
    a1, b1 = map(float, rect1)
    a2, b2 = map(float, rect2)
    if not (a1 <= a2 and b1 <= b2):
        raise ValueError("rect1 must be contained in rect2 componentwise")
    target = spectra.weyl_ratio(a1 * b1, a2 * b2, 2)

    rows = []
    for k in ks:
        m1 = spectra.rectangle_mu_k(a1, b1, k)
        m2 = spectra.rectangle_mu_k(a2, b2, k)
        ratio = m1 / m2
        rows.append((k, m1, m2, ratio, target, abs(ratio - target), abs(ratio - target) / target))

    verdicts = []
    bands = {10**3: 0.05, 10**5: 0.02}
    for k, band in bands.items():
        match = [r for r in rows if r[0] == k]
        if match:
            verdicts.append(
                Verdict(
                    f"weyl_band_k_{k}",
                    f"spectra: |ratio - target|/target <= {band:.0%} at k = {k}",
                    at_most(match[0][6], band),
                )
            )
    devs = [r[5] for r in rows]
    if len(devs) > 1:
        verdicts.append(
            Verdict(
                "weyl_deviation_decreasing",
                "spectra: |ratio - target| decreases from the first to the last sampled k",
                below(devs[-1], devs[0]),
                f"deviations {[f'{d:.3e}' for d in devs]}",
            )
        )
    # mu_k scales as length^-2, and doubling both sides is exact in floats
    scaling = rows[0][1] / (4.0 * spectra.rectangle_mu_k(2.0 * a1, 2.0 * b1, ks[0]))
    verdicts.append(
        Verdict(
            "weyl_equal_rectangles",
            "spectra: mu_k(rect1) = 4 mu_k(2 rect1) exactly, the length^-2 scaling",
            exactly(scaling, 1.0),
        )
    )

    return ExperimentReport(
        columns=["k", "mu_k_inner", "mu_k_outer", "ratio", "target", "abs_dev", "rel_dev"],
        rows=rows,
        verdicts=verdicts,
        plot_series=[
            ("relative deviation", [math.log10(r[0]) for r in rows], [r[6] for r in rows])
        ],
        plot_labels=("ratio trend toward the area-ratio limit", "log10(k)", "|ratio-target|/target"),
    )


# ---------------------------------------------------------------------------
# dimension monotonicity demo


@_command
def cmd_dimension_demo(
    k: int = 1, ell_list: tuple[float, ...] = (0.5, 0.9, 0.99, 1.01, 1.5, 5.0)
) -> ExperimentReport:
    """Product-domain construction: the mu_k ratio of nested segments is
    preserved by short cylinder factors and breaks past the explicit
    threshold."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ells = [float(e) for e in ell_list]
    if not ells:
        raise ValueError("ell_list must name at least one cylinder length")
    d_inner, d_outer = 1.0, 2.0
    mu_inner = spectra.segment_spectrum(d_inner, "neumann", k + 1).values[k]
    mu_outer = spectra.segment_spectrum(d_outer, "neumann", k + 1).values[k]
    base_ratio = mu_inner / mu_outer
    threshold = math.pi / math.sqrt(max(mu_inner, mu_outer))

    def product_mu_k(D, ell):
        # with j = 0 alone, these n_base >= k + 1 base values certify k + 1 product values
        base = spectra.segment_spectrum(D, "neumann", max(64, 4 * k + 8))
        return spectra.product_spectrum(base, ell, k + 1).values[k]

    rows = []
    preserved = []
    exact = []  # relative deviations of the ratio at the ells below threshold
    for ell in ells:
        p_in = product_mu_k(d_inner, ell)
        p_out = product_mu_k(d_outer, ell)
        ratio = p_in / p_out
        dev, tol = abs(ratio - base_ratio), 1e-12 * base_ratio
        predicted_equal = ell <= threshold
        # written as the text true/false: a row template would write True/False
        flags = (str(predicted_equal).lower(), str(dev <= tol).lower())
        rows.append((ell, p_in, p_out, ratio, base_ratio, *flags))
        preserved.append(at_most(dev, tol) if predicted_equal else above(dev, tol))
        if predicted_equal:
            exact.append(at_most(dev / base_ratio, 1e-12))

    verdicts = [
        Verdict(
            "ratio_preservation_matches_threshold",
            "spectra: exact ratio preservation iff ell <= pi/sqrt(max mu_k)",
            smallest(preserved),
            f"threshold {threshold:.12g}",
        )
    ]
    if exact:
        verdicts.append(
            Verdict(
                "ratio_exact_below_threshold",
                "spectra: below threshold the ratio matches to 1e-12",
                smallest(exact),
            )
        )

    return ExperimentReport(
        columns=[
            "ell",
            "mu_k_product_inner",
            "mu_k_product_outer",
            "ratio",
            "base_ratio",
            "predicted_equal",
            "measured_equal",
        ],
        rows=rows,
        verdicts=verdicts,
        metadata={"threshold": threshold},
    )


# ---------------------------------------------------------------------------
# counterexamples


@_command
def cmd_counterexamples() -> ExperimentReport:
    """The two classical failures of Neumann domain monotonicity."""
    rows = []
    verdicts = []

    seg = spectra.segment_spectrum(1.0, "neumann", 2).values[1]
    square = spectra.box_spectrum([1.0 / math.sqrt(2.0)] * 2, "neumann", 2).values[1]
    ratio = seg / square
    rows.append(
        (
            "segment_in_square",
            "unit segment inside the square of diagonal 1: mu_1 ratio",
            ratio,
        )
    )
    verdicts.append(
        Verdict(
            "segment_in_square_ratio_half",
            "spectra: mu_1(segment)/mu_1(square) = 1/2 exactly",
            exactly(ratio, 0.5),
        )
    )

    for j in (2, 3):
        n_parts = j * j
        part = spectra.Spectrum(np.array([0.0, spectra.disk_mu1(1.0 / j)]))
        union = spectra.disjoint_union_spectrum([part] * n_parts, n_parts + 1)
        mu_last_zero = union.values[n_parts - 1]
        mu_first_pos = union.values[n_parts]
        rows.append(
            (
                f"disjoint_disks_j{j}",
                f"{n_parts} disks of radius 1/{j} in the side-2 square: mu_{n_parts - 1}, mu_{n_parts}",
                mu_last_zero,
            )
        )
        rows.append(
            (
                f"disjoint_disks_j{j}_first_positive",
                f"first nonzero eigenvalue of the {n_parts}-disk union",
                mu_first_pos,
            )
        )
        verdicts.append(
            Verdict(
                f"disks_zero_mode_j{j}",
                f"spectra: mu_{n_parts - 1} of the {n_parts}-component union is 0",
                exactly(mu_last_zero, 0.0),
            )
        )
        verdicts.append(
            Verdict(
                f"disks_first_positive_j{j}",
                "spectra: the next eigenvalue is the scaled disk value",
                below(abs(mu_first_pos - spectra.disk_mu1(1.0) * j * j), 1e-12 * mu_first_pos),
            )
        )

    return ExperimentReport(
        columns=["case", "description", "value"],
        rows=rows,
        verdicts=verdicts,
    )
