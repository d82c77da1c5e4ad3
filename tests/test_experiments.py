"""Tests for the experiment commands, report serialization and the CLI."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from speclab import cli, experiments, fem, geometry

# each command as the CLI names it
CLI_COMMANDS = [name.replace("_", "-") for name in experiments.COMMANDS]


def read_verdicts(path):
    """A _verdicts.json payload, parsed as strict JSON: NaN or Infinity raises."""

    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def failing_mu_k(predicate):
    """fem.mu_k, except that it raises NonConvergenceError on each spec the
    predicate accepts."""
    mu_k = fem.mu_k

    def patched(spec, *args, **kwargs):
        if predicate(spec):
            raise fem.NonConvergenceError("forced failure")
        return mu_k(spec, *args, **kwargs)

    return patched


def stub_mu_k(spec, k, refinements):
    """A fixed converged ladder in place of fem.mu_k, for tests of what a
    command records rather than what it computes."""
    return fem.ExtrapolationResult(1.0, 0.0, (1.0, 1.0, 1.0), 1e-12, 2.0, True)


def test_constants_report_and_verdicts():
    report = experiments.cmd_constants(2, 6)
    assert report.all_passed
    by_key = {(r[0], r[1], r[2]): r[3] for r in report.rows}
    assert by_key[("alpha1_sharp", 1, 3)] == pytest.approx(0.25, abs=1e-13)
    names = {v.name for v in report.verdicts}
    assert "c_upper_below_one" in names and "sandwich_funano_simple_sharp" in names


def test_constants_csv_determinism(tmp_path):
    r1 = experiments.cmd_constants(2, 5)
    r2 = experiments.cmd_constants(2, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.write_csv(p1)
    r2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _isinstance_cell_text(c):
    # reference: the isinstance chain alone, without the exact-type shortcut
    if isinstance(c, (bool, np.bool_)):
        return str(bool(c)).lower()
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    if isinstance(c, (float, np.floating)):
        return f"{float(c):.15g}"
    return str(c)


def test_csv_cells_format_as_before(tmp_path):
    # each cell kind as the isinstance chain formats it; bools are written by
    # the commands as the text true/false (test_dimension_demo_threshold_flip)
    class Label(str):
        pass

    cells = [
        0.1, -0.0, 1e-300, 1e300, math.pi, 2.0 / 3.0, math.nan, math.inf, -math.inf,
        0, -7, 10**20, "", "disk", Label("sub"),
        np.float64(math.e), np.float32(0.1), np.float64(math.nan), np.int64(-3),
        np.int32(5), np.uint8(255), None,
    ]
    path = tmp_path / "one.csv"
    for c in cells:
        experiments.ExperimentReport(columns=["cell", "tail"], rows=[(c, "x")], verdicts=[]).write_csv(path)
        assert path.read_text() == f"cell,tail\n{_isinstance_cell_text(c)},x\n", repr(c)


def _cell_kind(c):
    # the CSV writer formats a float or numpy floating cell one way, any other by its str()
    return float if isinstance(c, (float, np.floating)) else type(c)


@pytest.mark.parametrize(
    "runner, params",
    [
        (experiments.cmd_constants, {"k_max": 2, "d_max": 4}),
        (experiments.cmd_table_mu1, {"refinements": 2}),
        (experiments.cmd_rhombus_sweep, {"theta_deg_list": (20.0, 10.0), "refinements": 2}),
        (experiments.cmd_ratio_scan, {"n_pairs": 3, "refinements": 2}),
        (experiments.cmd_weyl, {"k_list": (1000, 10000)}),
        (experiments.cmd_dimension_demo, {}),
        (experiments.cmd_counterexamples, {}),
    ],
    ids=[
        "constants", "table-mu1", "rhombus-sweep", "ratio-scan", "weyl", "dimension-demo",
        "counterexamples",
    ],
)
def test_csv_columns_hold_one_kind_of_cell(runner, params):
    # write_csv formats every row through a template read off the first row
    report = runner(**params)
    assert len(report.rows) > 1
    for column, cells in zip(report.columns, zip(*report.rows)):
        assert len({_cell_kind(c) for c in cells}) == 1, column
        assert not any(isinstance(c, (bool, np.bool_)) for c in cells), column


def test_margin_helpers():
    e = experiments
    # the non-strict forms pass at equality, the strict forms fail there
    assert e.at_least(1.5, 1.5) == 0.0 and e.Verdict("v", "", e.at_least(1.5, 1.5)).passed
    assert e.at_most(1.5, 1.5) == 0.0 and e.Verdict("v", "", e.at_most(1.5, 1.5)).passed
    for bound in (1.5, 0.0, -2.0):
        assert e.above(bound, bound) < 0 and not e.Verdict("v", "", e.above(bound, bound)).passed
        assert e.below(bound, bound) < 0 and not e.Verdict("v", "", e.below(bound, bound)).passed
        assert e.above(math.nextafter(bound, math.inf), bound) == 0.0
        assert e.below(math.nextafter(bound, -math.inf), bound) == 0.0
    assert (e.at_least(3.0, 1.0), e.at_most(3.0, 1.0)) == (2.0, -2.0)
    assert e.exactly(2.5, 2.0) == -0.5 and e.exactly(1.5, 2.0) == -0.5
    assert e.exactly(2.0, 2.0) == 0.0 and e.Verdict("v", "", e.exactly(2.0, 2.0)).passed
    # a NaN value fails through every helper
    for margin in (e.at_least, e.at_most, e.above, e.below, e.exactly):
        verdict = e.Verdict("v", "", margin(math.nan, 1.0))
        assert math.isnan(verdict.slack) and not verdict.passed
    # a compound's slack is its smallest part, NaN wherever a NaN part sits
    parts = [e.at_least(2.0, 1.0), e.below(0.25, 1.0), e.exactly(1.0, 1.0), e.at_most(1.0, 4.0)]
    assert e.smallest(parts) == min(parts) == 0.0
    assert e.smallest(parts[:2] + parts[3:]) == parts[1] == math.nextafter(1.0, 0.0) - 0.25
    for i in range(len(parts) + 1):
        assert math.isnan(e.smallest(parts[:i] + [math.nan] + parts[i:]))
    assert e.smallest([]) == 0.0


def test_weyl_report(tmp_path):
    report = experiments.cmd_weyl(k_list=(1000, 10000))
    assert report.all_passed
    report.write(tmp_path)
    assert (tmp_path / "weyl.csv").exists()
    assert (tmp_path / "weyl_verdicts.json").exists()
    assert (tmp_path / "weyl.svg").exists()
    payload = json.loads((tmp_path / "weyl_verdicts.json").read_text())
    assert payload["all_passed"] is True
    assert "wall_time_s" in payload["metadata"]
    # CSV carries no timing metadata
    assert "wall" not in (tmp_path / "weyl.csv").read_text()


def test_weyl_validates_nesting():
    with pytest.raises(ValueError):
        experiments.cmd_weyl(rect1=(3.0, 1.0), rect2=(2.0, 1.3))


def test_dimension_demo_threshold_flip():
    report = experiments.cmd_dimension_demo(k=1, ell_list=(0.5, 0.999, 1.001, 2.0))
    assert report.all_passed
    predicted = [row[5] for row in report.rows]
    assert predicted == ["true", "true", "false", "false"]
    measured = [row[6] for row in report.rows]
    assert measured == predicted
    below = report.rows[0]
    assert below[3] == pytest.approx(4.0, rel=1e-14)


def test_dimension_demo_huge_ell_ratio_one():
    report = experiments.cmd_dimension_demo(k=1, ell_list=(50.0,))
    row = report.rows[0]
    assert row[3] == pytest.approx(1.0, rel=1e-12)


def test_counterexamples_exact():
    report = experiments.cmd_counterexamples()
    assert report.all_passed
    vals = {r[0]: r[2] for r in report.rows}
    assert vals["segment_in_square"] == 0.5
    assert vals["disjoint_disks_j2"] == 0.0
    assert vals["disjoint_disks_j3"] == 0.0
    assert vals["disjoint_disks_j3_first_positive"] > 0.0


def test_ratio_scan_small(tmp_path):
    report = experiments.cmd_ratio_scan(n_pairs=3, seed=7, refinements=2)
    assert report.columns[0] == "pair_id"
    ref_rows = [r for r in report.rows if r[2] == "reference"]
    assert len(ref_rows) == 2
    assert ref_rows[0][5] == 1.0  # identical pair
    assert ref_rows[1][5] < 1.0  # thin rectangle in square
    random_rows = [r for r in report.rows if r[2] == "random"]
    assert len(random_rows) == 3
    assert report.all_passed


@pytest.mark.parametrize(
    "argv",
    [
        ["table-mu1", "--refinements=2"],
        ["rhombus-sweep", "--theta-deg-list=20,10", "--refinements=2"],
        ["ratio-scan", "--n-pairs=2", "--seed=5", "--refinements=2"],
    ],
    ids=["table-mu1", "rhombus-sweep", "ratio-scan"],
)
def test_fem_commands_report_max_residual(argv, monkeypatch, tmp_path):
    # max_residual is the largest residual over every ladder the command solved
    mu_k = fem.mu_k
    residuals = []

    def recording(*args, **kwargs):
        res = mu_k(*args, **kwargs)
        residuals.append(res.residual)
        return res

    monkeypatch.setattr(experiments.fem, "mu_k", recording)
    cli.main(argv + ["--out", str(tmp_path)])
    (path,) = tmp_path.glob("*_verdicts.json")
    max_residual = read_verdicts(path)["metadata"]["max_residual"]
    assert 0.0 < max_residual <= fem.DEFAULT_TOL
    assert max_residual == max(residuals)


def test_ratio_scan_reports_ladder_checks(tmp_path):
    # 3 reference ladders (the identical pair solves its square twice) and 2
    # per pair; at refinements 3 the fitted order of 6 of these 15 falls
    # outside [1.5, 2.5], and every ladder is monotone
    report = experiments.cmd_ratio_scan(n_pairs=6, seed=1, refinements=3)
    report.write(tmp_path)
    metadata = json.loads((tmp_path / "ratio_scan_verdicts.json").read_text())["metadata"]
    assert metadata["ladders"] == 15
    assert metadata["fitted_order_out_of_band"] == 6
    assert metadata["non_monotone"] == 0


def test_ladder_checks_count_nan_order_out_of_band():
    ladders = [
        fem.ExtrapolationResult(1.0, 0.0, (1.0, 1.0, 1.0), residual, order, monotone, slicing)
        for residual, order, monotone, slicing in [
            (1e-12, 2.0, True, fem.SLICED), (4e-12, 1.5, True, ""),
            (2e-12, 2.5, False, "fallback: count 1 outside 2..20"), (0.0, 1.49, True, fem.SLICED),
            (3e-12, math.nan, False, fem.SLICED),
        ]
    ]
    assert experiments._ladder_checks(ladders) == {
        "max_residual": 4e-12,
        "ladders": 5,
        "fitted_order_out_of_band": 2,
        "non_monotone": 2,
        "sliced_rungs": 3,
        "slice_fallbacks": 1,
    }


@pytest.mark.parametrize(
    "failing, failed_names",
    [
        (
            "Square",
            ["fem_converged_ref_identical", "ratios_above_sharp_constant",
             "monotonicity_failure_witnessed", "identical_pair_ratio_one"],
        ),
        (
            "Rectangle",
            ["fem_converged_ref_thin_rect_in_square", "ratios_above_sharp_constant",
             "monotonicity_failure_witnessed"],
        ),
    ],
)
def test_ratio_scan_reports_reference_failure_as_verdict(monkeypatch, tmp_path, failing, failed_names):
    # a reference solve that fails to converge is a failed verdict, and each
    # verdict that reads its row fails through a NaN slack; the report is
    # still written and the CLI exits 1.  Both references are rectangles:
    # the identical pair's square and the thin rectangle.
    def fails(spec):
        return isinstance(spec, geometry.Rectangle) and (spec.a == spec.b) == (failing == "Square")

    monkeypatch.setattr(experiments.fem, "mu_k", failing_mu_k(fails))
    out = tmp_path / "o"
    assert cli.main(["ratio-scan", "--n-pairs=2", "--refinements=2", "--out", str(out)]) == 1
    payload = read_verdicts(out / "ratio_scan_verdicts.json")
    failed = [v for v in payload["verdicts"] if not v["passed"]]
    assert [v["name"] for v in failed] == failed_names
    assert "forced failure" in failed[0]["detail"]
    assert all(v["slack"] is None for v in failed)
    ids = [line.split(",")[0] for line in (out / "ratio_scan.csv").read_text().splitlines()[1:]]
    assert ids == ["ref_identical"] * (failing == "Rectangle") + ["pair_0000", "pair_0001"]


def test_identical_pair_verdict_compares_two_independent_solves(monkeypatch):
    # the identical pair solves its square twice and divides one solve by the
    # other, so a solver whose repeated solves of one domain differ fails it
    solves = iter(range(1, 100))

    def drifting_mu_k(spec, k, refinements):
        value = 5.0 + next(solves) * 1e-12
        return fem.ExtrapolationResult(value, 0.0, (value,) * 3, 1e-12, 2.0, True)

    monkeypatch.setattr(experiments.fem, "mu_k", drifting_mu_k)
    report = experiments.cmd_ratio_scan(n_pairs=2, seed=1, refinements=2)
    assert report.rows[0][0] == "ref_identical" and report.rows[0][5] < 1.0
    assert [v.name for v in report.verdicts if not v.passed] == ["identical_pair_ratio_one"]
    assert report.metadata["ladders"] == 7


def test_ratio_scan_rejects_impossible_hull_sizes(tmp_path, capsys):
    # a hull needs 3 points: fewer would skip every draw and pass on the
    # two reference rows alone
    for sizes in ({"n_outer": 2}, {"n_inner": 2}):
        with pytest.raises(ValueError, match="at least 3"):
            experiments.cmd_ratio_scan(n_pairs=5, refinements=2, **sizes)
    code = cli.main(
        ["ratio-scan", "--n-pairs=5", "--refinements=2", "--n-outer=2", "--n-inner=2",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "speclab:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ratio_scan_skips_only_degenerate_draws(monkeypatch):
    # inclusion_pair's RuntimeError (no nondegenerate pair) skips the draw;
    # a ValueError from the solver is a bug and propagates
    inclusion_pair = geometry.inclusion_pair

    def degenerate_second_draw(seed, *args):
        if seed == 8:
            raise RuntimeError("no nondegenerate inclusion pair")
        return inclusion_pair(seed, *args)

    monkeypatch.setattr(experiments.geometry, "inclusion_pair", degenerate_second_draw)
    report = experiments.cmd_ratio_scan(n_pairs=3, seed=7, refinements=2)
    assert report.metadata["skipped"] == 1
    assert [r[0] for r in report.rows if r[2] == "random"] == ["pair_0000", "pair_0002"]

    mu_k = fem.mu_k

    def broken_hull_solve(spec, *args, **kwargs):
        if isinstance(spec, geometry.ConvexHullPolygon):
            raise ValueError("not a degenerate draw")
        return mu_k(spec, *args, **kwargs)

    monkeypatch.setattr(experiments.fem, "mu_k", broken_hull_solve)
    with pytest.raises(ValueError, match="not a degenerate draw"):
        experiments.cmd_ratio_scan(n_pairs=3, seed=7, refinements=2)


def _pair_0001_inner_hull(spec):
    # pair_0001 of a scan at seed 7 draws its pair from seed 8
    inner, _ = geometry.inclusion_pair(8, 12, 6)
    return spec == geometry.ConvexHullPolygon(tuple(map(tuple, inner)))


@pytest.mark.parametrize(
    "argv, failing, failed_names, rows, ladders",
    [
        (
            ["table-mu1", "--refinements=3"],
            lambda spec: isinstance(spec, geometry.Rectangle),  # the square row
            ["fem_converged_square", "table_square", "table_square_ratio"],
            ["optimal_bound", "optimal_sector", "equilateral_triangle", "reuleaux_triangle",
             "disk", "segment"],
            10,  # two rhombi, five sectors and three single-domain rows
        ),
        (
            ["table-mu1", "--refinements=3"],
            lambda spec: spec == geometry.half_rhombus(2.0, math.radians(5.0), geometry.NEUMANN),
            ["fem_converged_optimal_bound", "table_optimal_bound", "table_optimal_bound_ratio",
             "table_optimal_bound_symmetric_lowest"],
            ["square", "optimal_sector", "equilateral_triangle", "reuleaux_triangle", "disk",
             "segment"],
            9,  # five sectors and four single-domain rows
        ),
        (
            ["table-mu1", "--refinements=3"],
            lambda spec: spec == geometry.quarter_regular_polygon(256, 1.0),
            ["fem_converged_disk", "table_disk", "table_disk_ratio", "table_disk_symmetric_lowest"],
            ["optimal_bound", "square", "optimal_sector", "equilateral_triangle",
             "reuleaux_triangle", "segment"],
            10,  # two rhombi, five sectors and three single-domain rows
        ),
        (
            ["table-mu1", "--refinements=3"],
            lambda spec: spec == geometry.half_reuleaux_triangle(2.0, 64),
            ["fem_converged_reuleaux_triangle", "table_reuleaux_triangle",
             "table_reuleaux_triangle_ratio", "table_reuleaux_triangle_symmetric_lowest"],
            ["optimal_bound", "square", "optimal_sector", "equilateral_triangle", "disk",
             "segment"],
            10,  # two rhombi, five sectors and three single-domain rows
        ),
        (
            # the antisymmetric (Dirichlet-cut) half of the 10-degree rhombus fails
            ["rhombus-sweep", "--theta-deg-list=20,10,5", "--refinements=3"],
            lambda spec: spec == geometry.half_rhombus(2.0, math.radians(10.0), geometry.DIRICHLET),
            ["fem_converged_theta_10", "squeeze_band_theta_10", "antisymmetric_lower_theta_10",
             "symmetric_lowest_theta_10", "monotone_approach",
             "antisymmetric_divergence_20_to_10", "antisymmetric_divergence_10_to_5"],
            ["20", "5"],
            4,
        ),
        (
            # the symmetric (Neumann-cut) half, which gives the row its mu_1
            ["rhombus-sweep", "--theta-deg-list=20,10,5", "--refinements=3"],
            lambda spec: spec == geometry.half_rhombus(2.0, math.radians(5.0), geometry.NEUMANN),
            ["fem_converged_theta_5", "squeeze_band_theta_5", "antisymmetric_lower_theta_5",
             "symmetric_lowest_theta_5", "monotone_approach", "antisymmetric_divergence_10_to_5"],
            ["20", "10"],
            4,
        ),
        (
            # a failed hull solve is a failed verdict, not a skipped draw
            ["ratio-scan", "--n-pairs=3", "--seed=7", "--refinements=2"],
            _pair_0001_inner_hull,
            ["fem_converged_pair_0001"],
            ["ref_identical", "ref_thin_rect_in_square", "pair_0000", "pair_0002"],
            7,  # the identical pair's two solves, the thin rectangle, two pairs
        ),
    ],
    ids=[
        "table-mu1", "table-mu1-rhombus", "table-mu1-disk", "table-mu1-reuleaux", "rhombus-sweep",
        "rhombus-sweep-symmetric", "ratio-scan",
    ],
)
def test_failed_fem_row_is_not_written_and_fails_its_readers(
    argv, failing, failed_names, rows, ladders, monkeypatch, tmp_path
):
    # a row whose solve fails to converge gets a failed fem_converged verdict
    # and is not written; each verdict that reads it fails with a null slack,
    # every other row is still computed and written, and the CLI exits 1
    monkeypatch.setattr(experiments.fem, "mu_k", failing_mu_k(failing))
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    (path,) = tmp_path.glob("*_verdicts.json")
    payload = read_verdicts(path)
    failed = [v for v in payload["verdicts"] if not v["passed"]]
    assert [v["name"] for v in failed] == failed_names
    assert "forced failure" in failed[0]["detail"]
    assert all(v["slack"] is None for v in failed)
    assert payload["metadata"]["ladders"] == ladders
    assert payload["metadata"].get("skipped", 0) == 0  # not a skipped draw
    (csv,) = tmp_path.glob("*.csv")
    assert [line.split(",")[0] for line in csv.read_text().splitlines()[1:]] == rows


def test_dense_solve_failure_is_a_failed_verdict(monkeypatch, tmp_path):
    # a dense eigensolve that fails is a failed fem_converged verdict, as a
    # sparse one is.  Each square solves its two coarser meshes by the dense
    # eigensolve (the eigh calls given subset_by_index) and slices its finest,
    # so the 3rd dense eigensolve is the second square of ref_identical
    eigh, solve = fem.scipy.linalg.eigh, fem.solve_smallest
    calls = iter(range(1, 1000))
    solves, failed_at = [], []

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def failing_third(*args, **kwargs):
        if "subset_by_index" in kwargs and next(calls) == 3:
            failed_at.append(len(solves))
            raise np.linalg.LinAlgError("forced dense failure")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_smallest", counted_solve)
    monkeypatch.setattr(fem.scipy.linalg, "eigh", failing_third)
    out = tmp_path / "o"
    assert cli.main(["ratio-scan", "--n-pairs=3", "--refinements=2", "--out", str(out)]) == 1
    payload = read_verdicts(out / "ratio_scan_verdicts.json")
    failed = [v for v in payload["verdicts"] if not v["passed"]]
    assert [v["name"] for v in failed] == [
        "fem_converged_ref_identical", "ratios_above_sharp_constant",
        "monotonicity_failure_witnessed", "identical_pair_ratio_one",
    ]
    assert "forced dense failure" in failed[0]["detail"]
    assert failed_at == [4]  # the 4th mesh solved is the second square's coarsest
    ids = [line.split(",")[0] for line in (out / "ratio_scan.csv").read_text().splitlines()[1:]]
    assert ids == ["pair_0000", "pair_0001", "pair_0002"]


def test_table_largest_system_is_the_reuleaux_rung(monkeypatch):
    # at the default refinements 4 the Reuleaux row solves the triangle's
    # half (13,073 unknowns) and the disk row the 256-gon's quarter (8,704
    # after its Dirichlet cut), so the largest system is the half Reuleaux
    # triangle's finest rung, not the whole triangle's 26,113 or the half
    # 256-gon's 17,425
    sizes = []
    solve = fem.solve_smallest

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        sizes.append(result.dof_count)
        return result

    monkeypatch.setattr(fem, "solve_smallest", counted)
    assert experiments.cmd_table_mu1().all_passed
    assert max(sizes) == 13073
    assert 8704 in sizes
    assert not {26113, 17425} & set(sizes)


def test_table_does_not_swallow_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(experiments.fem, "mu_k", broken)
    with pytest.raises(TypeError, match="not a solver failure"):
        experiments.cmd_table_mu1(refinements=2)


def test_ratio_scan_csv_determinism(tmp_path):
    a = experiments.cmd_ratio_scan(n_pairs=4, seed=3, refinements=2)
    b = experiments.cmd_ratio_scan(n_pairs=4, seed=3, refinements=2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_rhombus_sweep_small():
    report = experiments.cmd_rhombus_sweep(theta_deg_list=(20.0, 10.0), refinements=3)
    assert report.all_passed
    degs = [row[0] for row in report.rows]
    assert degs == [20.0, 10.0]
    values = [row[1] for row in report.rows]
    assert values[1] > values[0]
    # compound: strictly increasing, and each value strictly below j01^2 + eps
    parts = [values[1] - math.nextafter(values[0], math.inf)]
    parts += [math.nextafter(row[3] + row[4], -math.inf) - row[1] for row in report.rows]
    approach = next(v for v in report.verdicts if v.name == "monotone_approach")
    assert approach.slack == min(parts)


def test_rhombus_sweep_solves_each_angle_once():
    # an angle named twice is one row, one pair of ladders and one set of verdicts
    report = experiments.cmd_rhombus_sweep(theta_deg_list=(20.0, 20.0), refinements=2)
    assert [row[0] for row in report.rows] == [20.0]
    assert report.metadata["ladders"] == 2
    names = [v.name for v in report.verdicts]
    assert len(names) == len(set(names))


def test_rhombus_sweep_rejects_tiny_angle():
    with pytest.raises(ValueError):
        experiments.cmd_rhombus_sweep(theta_deg_list=(1.0,))


def test_rhombus_45_degrees_is_rotated_square():
    # the opening-45 rhombus of diagonal 2 is the square of side sqrt(2)
    report = experiments.cmd_rhombus_sweep(theta_deg_list=(45.0,), refinements=4)
    normalized = report.rows[0][1]
    assert normalized == pytest.approx(math.pi**2 / 2.0, rel=0.002)
    # its half is that square cut along a Dirichlet diagonal, so its tau_1 is
    # the square's first mode odd about that diagonal: pi^2/2 again
    tau1 = report.rows[0][5]
    assert tau1 == pytest.approx(math.pi**2 / 2.0, rel=1e-5)
    # the square's mu_1 is double, one mode in each half: a tie within the
    # certificate's tolerance, which passes
    (tie,) = [v for v in report.verdicts if v.name == "symmetric_lowest_theta_45"]
    assert 0.0 <= tie.slack <= 1e-8 * normalized
    assert report.all_passed


def test_symmetric_lowest_fails_below_mu1():
    # slack of floor >= mu_1 (1 - SYMMETRIC_TIE_TOL), minimised over the rungs
    symmetric = fem.ExtrapolationResult(4.7, 0.1, (5.0, 4.8, 4.75), 1e-12, 2.0, True)
    tol = experiments.SYMMETRIC_TIE_TOL
    assert tol == 1e-9
    assert experiments._symmetric_lowest(symmetric, (5.0, 4.8, 4.75)) == pytest.approx(4.75 * tol)
    assert experiments._symmetric_lowest(symmetric, (6.0, 4.79, 5.0)) < 0.0
    assert experiments._symmetric_lowest(symmetric, (5.0, 4.8 * (1.0 - 2.0 * tol), 5.0)) < 0.0
    assert math.isnan(experiments._symmetric_lowest(experiments.NAN_LADDER, (5.0,) * 3))


def test_ratio_scan_reference_value():
    # thin rectangle 1.9 x 0.02 inside the square of side sqrt(2):
    # analytic ratio (pi^2/1.9^2) / (pi^2/2) = 2/3.61
    report = experiments.cmd_ratio_scan(n_pairs=1, seed=1, refinements=3)
    thin = next(r for r in report.rows if r[0] == "ref_thin_rect_in_square")
    assert thin[5] == pytest.approx(2.0 / 1.9**2, rel=0.01)


def test_constants_full_dimension_sweep():
    report = experiments.cmd_constants(k_max=1, d_max=120)
    assert report.all_passed
    verdict = next(v for v in report.verdicts if v.name == "alpha1_sharp_normalized_increasing")
    assert verdict.passed


def test_fem_rows_run_on_the_calling_thread(monkeypatch):
    # every row is solved in the caller's thread, whatever SPECLAB_THREADS says
    monkeypatch.setenv("SPECLAB_THREADS", "2")
    threads = set()

    def recording_mu_k(spec, k, refinements):
        threads.add(threading.get_ident())
        return fem.ExtrapolationResult(5.0, 0.0, (5.0,) * 3, 1e-16, 2.0, True)

    monkeypatch.setattr(experiments.fem, "mu_k", recording_mu_k)
    experiments.cmd_table_mu1(refinements=2)
    experiments.cmd_ratio_scan(n_pairs=4, seed=1, refinements=2)
    assert threads == {threading.get_ident()}


# ---------------------------------------------------------------------------
# CLI


def test_cli_runs_and_writes(tmp_path):
    code = cli.main(["constants", "--k-max=2", "--d-max=4", "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "constants.csv").exists()
    assert (tmp_path / "o" / "constants_verdicts.json").exists()


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k_max=2\n# comment\nd_max = 4\n")
    command, params, out = cli.parse_config(["constants", "--config", str(cfg), "--out", str(tmp_path)])
    assert (command, params, out) == ("constants", {"k_max": 2, "d_max": 4}, tmp_path)


def test_cli_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=7\n")
    with pytest.raises(ValueError):
        cli.parse_config(["constants", "--config", str(cfg), "--out", str(tmp_path)])


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k_max=2\nd_max=4\n")
    _, params, _ = cli.parse_config(
        ["constants", "--config", str(cfg), "--k-max=3", "--out", str(tmp_path)]
    )
    assert params == {"k_max": 3, "d_max": 4}


@pytest.mark.parametrize(
    "text, message",
    [
        ("rect1=1\n", "run.cfg:1: rect1: expected AxB rectangle sides"),
        ("# sides\nk_list=1000,x\n", "run.cfg:2: k_list:"),
        ("rect1\n", "run.cfg:1: expected key=value"),
    ],
)
def test_cli_bad_config_line_exits_2(text, message, tmp_path, capsys):
    # a value its parameter's parser rejects is a usage error, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["weyl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"speclab: {tmp_path}/{message}")
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert cli.main(["weyl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"speclab: {cfg}: No such file or directory\n"
    assert not (tmp_path / "o").exists()


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert cli.main(["counterexamples", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"speclab: counterexamples: cannot write {out}:")


def test_cli_failing_verdict_sets_exit_code(tmp_path):
    # equal rectangles cannot show a decreasing deviation, so the trend
    # verdict fails and the process reports it
    code = cli.main(
        ["weyl", "--k-list=1000,10000", "--rect1=1x1", "--rect2=1x1", "--out", str(tmp_path / "o")]
    )
    assert code == 1


def test_cli_process_exit_codes(tmp_path):
    # 0 = every verdict passed, 1 = a verdict failed, 2 = usage or I/O error
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rect1=1\n")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "speclab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    ok = run("counterexamples", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "counterexamples.csv").exists()
    failed = run("weyl", "--k-list=1000,10000", "--rect1=1x1", "--rect2=1x1", "--out", str(tmp_path / "f"))
    assert failed.returncode == 1, failed.stderr
    bad = run("weyl", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert bad.returncode == 2
    assert bad.stderr.startswith(f"speclab: {cfg}:1: rect1:")
    assert "Traceback" not in bad.stderr


def test_weyl_equal_rectangles_checks_the_scaling_law(monkeypatch):
    # mu_k(rect1) = 4 mu_k(2 rect1) holds bit-exactly; a rectangle spectrum
    # that breaks the length^-2 scaling fails the verdict
    def verdict(report):
        return {v.name: v for v in report.verdicts}["weyl_equal_rectangles"]

    assert verdict(experiments.cmd_weyl(k_list=(1000, 10000))).passed
    mu_k = experiments.spectra.rectangle_mu_k
    monkeypatch.setattr(
        experiments.spectra, "rectangle_mu_k", lambda a, b, k: mu_k(a, b, k) * (1.0 + 1e-15 * a)
    )
    broken = verdict(experiments.cmd_weyl(k_list=(1000, 10000)))
    assert not broken.passed and broken.slack < 0


# each command's verdict names at the benchmark's smoke sizes, in order
VERDICT_NAMES = {
    "constants": [
        "c_upper_below_one", "c_upper_increasing_toward_one", "c_upper_dimension_monotone",
        "c_upper_dimension_envelope", "sandwich_funano_simple_sharp",
        "alpha1_sharp_normalized_increasing",
    ],
    "table-mu1": [
        "table_optimal_bound", "table_optimal_bound_ratio", "table_square", "table_square_ratio",
        "table_optimal_sector", "table_optimal_sector_ratio", "table_equilateral_triangle",
        "table_equilateral_triangle_ratio", "table_reuleaux_triangle",
        "table_reuleaux_triangle_ratio", "table_disk", "table_disk_ratio",
        "table_optimal_bound_symmetric_lowest", "table_reuleaux_triangle_symmetric_lowest",
        "table_disk_symmetric_lowest", "table_segment_exact",
    ],
    "rhombus-sweep": [
        "squeeze_band_theta_20", "antisymmetric_lower_theta_20", "symmetric_lowest_theta_20",
        "squeeze_band_theta_10", "antisymmetric_lower_theta_10", "symmetric_lowest_theta_10",
        "squeeze_band_theta_5", "antisymmetric_lower_theta_5", "symmetric_lowest_theta_5",
        "monotone_approach", "antisymmetric_divergence_20_to_10",
        "antisymmetric_divergence_10_to_5",
    ],
    "ratio-scan": [
        "ratios_above_sharp_constant", "monotonicity_failure_witnessed", "identical_pair_ratio_one",
    ],
    "weyl": ["weyl_band_k_1000", "weyl_deviation_decreasing", "weyl_equal_rectangles"],
    "dimension-demo": ["ratio_preservation_matches_threshold", "ratio_exact_below_threshold"],
    "counterexamples": [
        "segment_in_square_ratio_half", "disks_zero_mode_j2", "disks_first_positive_j2",
        "disks_zero_mode_j3", "disks_first_positive_j3",
    ],
}


def test_table_checks_the_floor_of_each_row_solved_on_cells(monkeypatch):
    # table_<row>_symmetric_lowest is emitted, after every row's own verdicts,
    # exactly for the rows whose specs all state a floor (geometry.Part.floor)
    jobs, solve_rows = [], experiments._solve_rows

    def recording(batch):
        jobs.extend(batch)
        return solve_rows(batch)

    monkeypatch.setattr(experiments, "_solve_rows", recording)
    report = experiments.cmd_table_mu1(refinements=2)
    floors = {row: [getattr(spec, "floor", None) for spec in specs] for row, specs, _ in jobs}
    floors = {row: cells for row, cells in floors.items() if None not in cells}
    assert list(floors) == ["optimal_bound", "reuleaux_triangle", "disk"]
    checks = [v for v in report.verdicts if v.name.endswith("_symmetric_lowest")]
    assert [v.name for v in checks] == [f"table_{row}_symmetric_lowest" for row in floors]
    assert [v.detail for v in checks] == [
        "floors " + ", ".join(f"{floor:.6g}" for floor in row) for row in floors.values()
    ]
    names = [v.name for v in report.verdicts]
    assert names.index(checks[0].name) == len(names) - len(checks) - 1  # then the segment's


@pytest.mark.parametrize(
    "argv",
    [
        # the benchmark's smoke sizes, and the equal-rectangle failure
        ["constants", "--k-max=10", "--d-max=12"],
        ["table-mu1", "--refinements=3"],
        ["rhombus-sweep", "--theta-deg-list=20,10,5", "--refinements=3"],
        ["ratio-scan", "--n-pairs=4", "--refinements=2"],
        ["weyl", "--k-list=1000,10000"],
        ["dimension-demo"],
        ["counterexamples"],
        ["weyl", "--k-list=1000,10000", "--rect1=1x1", "--rect2=1x1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_passed_iff_slack_nonnegative(argv, tmp_path):
    code = cli.main(argv + ["--out", str(tmp_path)])
    (path,) = tmp_path.glob("*_verdicts.json")
    payload = read_verdicts(path)
    assert [v["name"] for v in payload["verdicts"]] == VERDICT_NAMES[argv[0]]
    verdicts = {v["name"]: v for v in payload["verdicts"]}
    for v in verdicts.values():
        # a NaN slack is written as null, and fails
        assert v["passed"] == (v["slack"] is not None and v["slack"] >= 0), v
    assert payload["all_passed"] == all(v["passed"] for v in verdicts.values())
    assert code == (0 if payload["all_passed"] else 1)
    if "--rect1=1x1" in argv:
        # equal deviations are not decreasing: the strict margin is negative
        assert verdicts["weyl_deviation_decreasing"]["slack"] < 0
        assert code == 1


def signature_parameters(command):
    return inspect.signature(experiments.COMMANDS[command.replace("-", "_")]).parameters


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_defaults_are_the_signature_defaults(command):
    params = signature_parameters(command)
    assert cli.parse_config([command]) == (
        command, {key: p.default for key, p in params.items()}, Path("speclab_out")
    )


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_help_lists_the_signature_parameters(command, capsys):
    with pytest.raises(SystemExit):
        cli.parse_config([command, "--help"])
    text = capsys.readouterr().out
    flags = set(re.findall(r"(?<![\w-])--[a-z0-9][a-z0-9-]*", text))
    params = signature_parameters(command)
    assert flags == {"--help", "--out", "--config"} | {f"--{key.replace('_', '-')}" for key in params}
    for p in params.values():
        assert f"(default {p.default})" in " ".join(text.split())


def test_cli_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        cli.parse_config(["weyl", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default (1000, 10000, 100000))" in text
    assert "(default (2.0, 1.3))" in text


def test_cli_rejects_unknown_flags():
    with pytest.raises(SystemExit):
        cli.parse_config(["constants", "--bogus=1"])


def test_cli_invalid_parameter_exit_code(tmp_path, capsys):
    # an angle out of range, and two angles whose rows and verdicts would
    # share one name (rows are named by 6 significant digits)
    for angles, reason in [("50", "(2, 45]"), ("20,10.0000001,10.0000002", "significant digits")]:
        code = cli.main(["rhombus-sweep", f"--theta-deg-list={angles}", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "speclab:" in err and reason in err


@pytest.mark.parametrize("ell", ["inf", "nan", "0", "-1"])
def test_dimension_demo_rejects_invalid_cylinder_length(ell, tmp_path, capsys):
    code = cli.main(["dimension-demo", f"--ell-list=0.5,{ell}", "--out", str(tmp_path)])
    assert code == 2
    assert "cylinder length" in capsys.readouterr().err


def test_cli_list_parsers():
    assert cli._floats("20,10,5") == (20.0, 10.0, 5.0)
    assert cli._ints("1000, 10000") == (1000, 10000)
    assert cli._rect("2x1.3") == (2.0, 1.3)


@pytest.mark.parametrize(
    "command, runner, params",
    [
        ("weyl", experiments.cmd_weyl, {"k_list": ()}),
        ("rhombus-sweep", experiments.cmd_rhombus_sweep, {"theta_deg_list": ()}),
        ("dimension-demo", experiments.cmd_dimension_demo, {"ell_list": ()}),
    ],
)
def test_empty_list_parameter_is_rejected(command, runner, params, tmp_path, capsys):
    # an empty list has no rows to check: it must not pass vacuously
    with pytest.raises(ValueError):
        runner(**params)
    (key,) = params
    code = cli.main([command, f"--{key.replace('_', '-')}=,", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "speclab:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# the command runner

VERSION_KEYS = ["speclab_version", "numpy_version", "scipy_version", "python_version"]
LADDER_KEYS = [
    "max_residual", "ladders", "fitted_order_out_of_band", "non_monotone",
    "sliced_rungs", "slice_fallbacks",
]
OWN_KEYS = {
    "constants": [],
    "table-mu1": LADDER_KEYS,
    "rhombus-sweep": LADDER_KEYS,
    "ratio-scan": ["skipped", "min_ratio", "min_ratio_pair"] + LADDER_KEYS,
    "weyl": [],
    "dimension-demo": ["threshold"],
    "counterexamples": [],
}


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_runner_names_the_report_and_records_its_defaults(command, monkeypatch, tmp_path):
    # run at the defaults; the runner's record does not depend on the solver
    monkeypatch.setattr(experiments.fem, "mu_k", stub_mu_k)
    name = command.replace("-", "_")
    runner = experiments.COMMANDS[name]
    cli.main([command, "--out", str(tmp_path)])
    payload = read_verdicts(tmp_path / f"{name}_verdicts.json")
    assert payload["command"] == name
    assert (tmp_path / f"{name}.csv").exists()
    metadata = payload["metadata"]
    assert list(metadata) == VERSION_KEYS + ["params"] + OWN_KEYS[command] + ["wall_time_s"]
    defaults = {key: p.default for key, p in inspect.signature(runner).parameters.items()}
    assert metadata["params"] == json.loads(json.dumps(defaults))


def test_numpy_parameters_write_valid_json(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments.fem, "mu_k", stub_mu_k)
    reports = [
        experiments.cmd_table_mu1(refinements=np.int64(2)),
        experiments.cmd_rhombus_sweep(theta_deg_list=np.array([20.0, 10.0]), refinements=np.int64(2)),
        experiments.cmd_dimension_demo(k=np.int64(1), ell_list=np.array([0.5, 2.0])),
        experiments.cmd_constants(k_max=np.int64(3), d_max=np.int64(10)),
    ]
    params = []
    for report in reports:
        report.write(tmp_path)
        params.append(read_verdicts(tmp_path / f"{report.command}_verdicts.json")["metadata"]["params"])
    assert params == [
        {"refinements": 2},
        {"theta_deg_list": [20.0, 10.0], "refinements": 2},
        {"k": 1, "ell_list": [0.5, 2.0]},
        {"k_max": 3, "d_max": 10},
    ]
    plain = tmp_path / "plain.csv"
    experiments.cmd_constants(k_max=3, d_max=10).write_csv(plain)
    assert (tmp_path / "constants.csv").read_bytes() == plain.read_bytes()
