"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live).  Expensive experiment runs are shared through session fixtures.
"""

import math
import time

import pytest

from speclab import constants, experiments, fem, geometry, specfun, spectra

PI2 = math.pi**2


def _report(criterion: str, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    print(f"{mark} {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="session")
def table_report():
    return experiments.cmd_table_mu1(refinements=4)


@pytest.fixture(scope="session")
def sweep_report():
    return experiments.cmd_rhombus_sweep(theta_deg_list=(20.0, 10.0, 5.0), refinements=4)


@pytest.fixture(scope="session")
def scan_report():
    return experiments.cmd_ratio_scan(n_pairs=200, seed=1, refinements=3)


def test_criterion_1_constants():
    t0 = time.perf_counter()
    ok = 0.4264 <= constants.alpha1_sharp(2) <= 0.4270
    ok &= abs(constants.alpha1_sharp(3) - 0.25) <= 1e-12
    for k in range(1, 21):
        ref = k**2 / (k + 1) ** 2
        ok &= abs(constants.c_upper(k, 3) - ref) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("criterion 1: closed-form constants", bool(ok), f"{elapsed:.3f}s")


def test_criterion_2_bessel_suite():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 21):
        ok &= abs(specfun.bessel_j_zero(0.5, k) - k * math.pi) <= 1e-12 * k * math.pi
    j01 = specfun.bessel_j_zero(0.0, 1)
    ok &= 5.781 <= j01 * j01 <= 5.785
    nus = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    for nu in nus:
        zs = [specfun.bessel_j_zero(nu, k) for k in range(1, 6)]
        ok &= all(a < b for a, b in zip(zs, zs[1:]))  # interlacing
    for k in (1, 2, 3):
        zs = [specfun.bessel_j_zero(nu, k) for nu in nus]
        ok &= all(a < b for a, b in zip(zs, zs[1:]))  # order monotonicity
    for nu in (0.51, 1.0, 5.0, 20.0, 60.0):
        for k in (1, 2, 5):
            ok &= specfun.bessel_j_zero(nu, k) > nu + k * math.pi - 0.5
    nu = 0.0
    while nu <= 30.0:
        z1 = specfun.bessel_j_zero(nu, 1)
        ok &= z1 * z1 <= 2.0 * (nu + 1.0) * (nu + 3.0)
        nu += 1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report("criterion 2: Bessel zero suite", bool(ok), f"{elapsed:.3f}s")


def test_criterion_3_table(table_report):
    rows = {r[0]: r for r in table_report.rows}
    tolerances = {
        "square": 0.002,
        "equilateral_triangle": 0.005,
        "disk": 0.005,
        "reuleaux_triangle": 0.01,
    }
    ok = True
    details = []
    for name, tol in tolerances.items():
        _, computed, reference, dev, ratio, ratio_ref, err, _ = rows[name]
        budget = tol + err / reference
        ok &= dev <= budget
        ok &= abs(ratio - ratio_ref) / ratio_ref <= budget
        details.append(f"{name} {dev:.2e}<= {budget:.2e}")
    seg = rows["segment"]
    ok &= seg[1] == PI2 / 4.0
    elapsed = table_report.metadata["wall_time_s"]
    ok &= elapsed < 600.0
    _report("criterion 3: diameter-2 table reproduction", bool(ok), f"{elapsed:.1f}s")


def test_criterion_4_rhombus_sweep(sweep_report):
    j01sq = spectra.cone_tau1(1.0, 2)
    ok = sweep_report.all_passed
    values = []
    for deg, normalized, lo, hi, eps, tau, tau_bound in sweep_report.rows:
        theta = math.radians(deg)
        ok &= (math.cos(theta) ** 2 * j01sq - eps) <= normalized <= (j01sq + eps)
        ok &= tau >= 0.995 * PI2 / (4.0 * math.tan(theta) ** 2)
        values.append(normalized)
    ok &= all(b > a for a, b in zip(values, values[1:]))  # toward j01^2 as theta drops
    elapsed = sweep_report.metadata["wall_time_s"]
    ok &= elapsed < 900.0
    _report("criterion 4: rhombus squeeze sweep", bool(ok), f"{elapsed:.1f}s")


def test_rhombus_rows_match_full_rhombus_solves(table_report, sweep_report):
    # both commands solve each rhombus on its Neumann-cut half; a ladder on
    # the full rhombus at the same refinements gives the same mu_1
    full = {
        deg: fem.mu_k(geometry.Rhombus(2.0, math.radians(deg)), 1, refinements=4).value
        for deg in (20.0, 10.0, 5.0)
    }
    assert [row[0] for row in sweep_report.rows] == list(full)
    for deg, normalized, *_ in sweep_report.rows:
        assert normalized == pytest.approx(full[deg], rel=1e-9, abs=0.0)
    trend = full[5.0] + (full[5.0] - full[10.0]) / 3.0
    (bound,) = [row for row in table_report.rows if row[0] == "optimal_bound"]
    assert bound[1] == pytest.approx(trend, rel=1e-9, abs=0.0)


def test_disk_row_matches_full_polygon_solve(table_report):
    # the table solves the 256-gon on its quarter; a ladder on the whole
    # 256-gon at the same refinements gives the same mu_1
    full = fem.mu_k(geometry.RegularPolygon(256, 1.0), 1, refinements=4)
    (disk,) = [row for row in table_report.rows if row[0] == "disk"]
    assert disk[1] == pytest.approx(full.value, rel=1e-9, abs=0.0)


def test_criterion_5_ratio_scan(scan_report):
    bound = 0.995 * constants.alpha1_sharp(2)
    ratios = [row[5] for row in scan_report.rows]
    random_rows = [row for row in scan_report.rows if row[2] == "random"]
    ok = len(random_rows) == 200
    ok &= all(r >= bound for r in ratios)
    ok &= any(r < 1.0 for r in ratios)  # monotonicity failure witnessed
    min_ratio = scan_report.metadata["min_ratio"]
    elapsed = scan_report.metadata["wall_time_s"]
    ok &= elapsed < 1800.0
    _report(
        "criterion 5: 200-pair ratio scan",
        bool(ok),
        f"min ratio {min_ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_weyl():
    t0 = time.perf_counter()
    report = experiments.cmd_weyl(k_list=(10**3, 10**4, 10**5))
    devs = [row[5] for row in report.rows]
    rels = [row[6] for row in report.rows]
    ok = rels[0] <= 0.05 and rels[2] <= 0.02
    ok &= devs[2] < devs[0]  # decreasing across the sampled range
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report("criterion 6: rectangle ratio trend", bool(ok), f"devs {devs}, {elapsed:.1f}s")


def test_criterion_7_inequality_suites():
    t0 = time.perf_counter()
    suite = [
        geometry.Rectangle(math.sqrt(2.0), math.sqrt(2.0)),
        geometry.Rhombus(2.0, math.radians(10.0)),
        geometry.EquilateralTriangle(2.0),
        geometry.RegularPolygon(64, 1.0),
    ]
    ok = True
    for spec in suite:
        diam = geometry.diameter(spec.outline())
        mus = fem.mu_spectrum(spec, 5, refinements=4)
        lams = fem.dirichlet_spectrum(spec, 5, refinements=4)
        ok &= mus[0].value >= 0.995 * constants.payne_weinberger_lower(diam)
        for k in range(1, 6):
            ok &= mus[k - 1].value <= 1.005 * constants.kroger_upper(k, 2, diam)
            slack = 1e-10 + mus[k - 1].error_estimate + lams[k - 1].error_estimate
            ok &= mus[k - 1].value <= lams[k - 1].value + slack
    elapsed = time.perf_counter() - t0
    _report("criterion 7: bracketing and diameter bounds", bool(ok), f"{elapsed:.1f}s")


def test_criterion_8_counterexamples():
    t0 = time.perf_counter()
    report = experiments.cmd_counterexamples()
    vals = {r[0]: r[2] for r in report.rows}
    ok = vals["segment_in_square"] == 0.5
    ok &= vals["disjoint_disks_j2"] == 0.0
    ok &= vals["disjoint_disks_j3"] == 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("criterion 8: exact counterexamples", bool(ok), f"{elapsed:.3f}s")


def test_criterion_9_determinism(scan_report, tmp_path):
    rerun = experiments.cmd_ratio_scan(n_pairs=200, seed=1, refinements=3)
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    scan_report.write_csv(p1)
    rerun.write_csv(p2)
    ok = p1.read_bytes() == p2.read_bytes()
    _report("criterion 9: byte-identical rerun CSV", bool(ok))
