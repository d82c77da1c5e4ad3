"""Tests for the analytic spectra, with brute-force lattice oracles."""

import math

import numpy as np
import pytest

from speclab import spectra
from speclab.spectra import MergeCertificationError, Spectrum


PI2 = math.pi**2


def brute_box_values(sides, offset, n, kcap=40):
    """Oracle: enumerate the full lattice box up to kcap per axis."""
    vals = [0.0] if offset == 0 else None
    grids = [np.arange(offset, kcap) for _ in sides]
    mesh = np.meshgrid(*grids, indexing="ij")
    v = sum((math.pi * m / s) ** 2 for m, s in zip(mesh, sides)).ravel()
    v.sort()
    return v[:n]


# ---------------------------------------------------------------------------
# segments


def test_segment_neumann_counterexample_values():
    s = spectra.segment_spectrum(1.0, "neumann", 2)
    assert s.values[0] == 0.0
    assert abs(s.values[1] - PI2) < 1e-14


def test_segment_diameter_two():
    s = spectra.segment_spectrum(2.0, "neumann", 2)
    assert abs(s.values[1] - 2.467) < 1e-3


def test_segment_mixed_quarter():
    for M in (1.0, 0.6, 3.0):
        s = spectra.segment_spectrum(M, "mixed", 1)
        assert abs(s.values[0] - PI2 / (4 * M * M)) < 1e-14


def test_segment_dirichlet():
    s = spectra.segment_spectrum(1.0, "dirichlet", 3)
    assert np.allclose(s.values, [PI2, 4 * PI2, 9 * PI2], rtol=1e-15)


def test_segment_errors():
    with pytest.raises(ValueError):
        spectra.segment_spectrum(-1.0, "neumann", 2)
    with pytest.raises(ValueError):
        spectra.segment_spectrum(1.0, "robin", 2)


# ---------------------------------------------------------------------------
# boxes


def test_box_square_counterexample():
    s = spectra.box_spectrum([1 / math.sqrt(2)] * 2, "neumann", 2)
    assert s.values[0] == 0.0
    assert abs(s.values[1] - 2 * PI2) < 1e-12


def test_box_square_diameter_two():
    s = spectra.box_spectrum([math.sqrt(2)] * 2, "neumann", 2)
    assert abs(s.values[1] - PI2 / 2) < 1e-12
    assert abs(s.values[1] - 4.935) < 1e-3


def test_box_1d_dirichlet():
    s = spectra.box_spectrum([1.0], "dirichlet", 3)
    assert np.allclose(s.values, [PI2, 4 * PI2, 9 * PI2], rtol=1e-15)


@pytest.mark.parametrize("bc,offset", [("neumann", 0), ("dirichlet", 1)])
def test_box_against_brute_oracle(bc, offset):
    for sides in ([1.0, 1.0], [1.3, 0.7], [1.0, 2.0, 0.5]):
        got = spectra.box_spectrum(sides, bc, 25).values
        ref = brute_box_values(sides, offset, 25)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_box_neumann_below_dirichlet():
    for sides in ([1.0], [1.0, 1.0], [2.0, 0.5]):
        n = spectra.box_spectrum(sides, "neumann", 100).values
        d = spectra.box_spectrum(sides, "dirichlet", 100).values
        assert np.all(n <= d + 1e-12)


def test_box_dirichlet_domain_monotonicity():
    lam_small = spectra.box_spectrum([1.0, 1.0], "dirichlet", 100).values
    lam_big = spectra.box_spectrum([1.5, 2.0], "dirichlet", 100).values
    assert np.all(lam_small >= lam_big - 1e-12)


def test_box_scaling():
    c = 1.7
    base = spectra.box_spectrum([1.0, 2.0], "neumann", 50).values
    scaled = spectra.box_spectrum([c, 2.0 * c], "neumann", 50).values
    assert np.allclose(scaled, base / c**2, rtol=1e-12, atol=1e-12)


def test_box_enumeration_budget(monkeypatch):
    monkeypatch.setattr(spectra, "_ENUM_BUDGET", 1000)
    with pytest.raises(OverflowError):
        spectra.box_spectrum([1.0] * 4, "neumann", 5000)


# ---------------------------------------------------------------------------
# products and unions


def test_product_short_cylinder_keeps_base():
    base = Spectrum(np.array([0.0, 5.0]))
    ell = 0.5 * math.pi / math.sqrt(5.0)  # pi^2/ell^2 = 20 > 5
    got = spectra.product_spectrum(base, ell, 2)
    assert np.allclose(got.values, [0.0, 5.0])


def test_product_matches_3d_box_oracle():
    base = spectra.box_spectrum([1.0, 1.0], "neumann", 20)
    got = spectra.product_spectrum(base, 1.0, 20)
    ref = brute_box_values([1.0, 1.0, 1.0], 0, 20)
    assert np.allclose(got.values, ref, rtol=1e-13, atol=1e-13)


def test_product_certification_error():
    base = Spectrum(np.array([0.0, 5.0]))
    with pytest.raises(MergeCertificationError):
        spectra.product_spectrum(base, 10.0, 50)


def test_product_large_cylinder_first_mode():
    # with ell large, the first value beyond base[0] is pi^2/ell^2
    base = Spectrum(np.array([0.0, 5.0]))
    got = spectra.product_spectrum(base, 100.0, 2)
    assert abs(got.values[1] - PI2 / 100.0**2) < 1e-15


def test_product_reads_n_values_whatever_ell():
    # the merge stops at n values: at ell = 1e9 the cutoff admits ~1e10 of them
    base = spectra.segment_spectrum(1.0, "neumann", 64)
    got = spectra.product_spectrum(base, 1e9, 2)
    assert got.values.tolist() == [0.0, (math.pi / 1e9) ** 2]


def test_product_matches_full_enumeration():
    def enumerated(base, ell, n):
        step = (math.pi / ell) ** 2
        cutoff = base.values[-1]
        cands = []
        for bv in base.values:
            j = 0
            while bv + step * j * j <= cutoff:
                cands.append(bv + step * j * j)
                j += 1
        return sorted(cands)[:n]

    for sides in ([1.0], [1.0, 0.7], [1.0, 1.0]):
        for k in (1, 3, 10):
            base = spectra.box_spectrum(sides, "neumann", max(64, 4 * k + 8))
            for ell in (0.1, 0.5, 0.99, 1.0, 1.5, 5.0, 50.0, 300.0):
                for n in (k + 1, 40):
                    got = spectra.product_spectrum(base, ell, n)
                    assert got.values.tolist() == enumerated(base, ell, n)


@pytest.mark.parametrize("ell", [math.inf, math.nan, 0.0, -1.0])
def test_product_rejects_invalid_length(ell):
    base = Spectrum(np.array([0.0, 5.0]))
    with pytest.raises(ValueError, match="cylinder length"):
        spectra.product_spectrum(base, ell, 2)


def test_union_four_disks():
    # four equal disks of radius 1/2: mu_3 of the union is 0
    template = np.array([0.0, spectra.disk_mu1(0.5)])
    parts = [Spectrum(template) for _ in range(4)]
    got = spectra.disjoint_union_spectrum(parts, 4)
    assert np.all(got.values == 0.0)


def test_union_identity_and_merge():
    p = Spectrum(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(spectra.disjoint_union_spectrum([p], 3).values, p.values)
    q = Spectrum(np.array([0.0, 1.5]))
    # certified below the shorter part's last value, 1.5
    got = spectra.disjoint_union_spectrum([p, q], 4)
    assert np.allclose(got.values, [0.0, 0.0, 1.0, 1.5])


def test_union_certification_error():
    p = Spectrum(np.array([0.0, 1.0, 2.0]))
    q = Spectrum(np.array([0.0, 1.5]))
    with pytest.raises(MergeCertificationError):
        spectra.disjoint_union_spectrum([p, q], 5)


# ---------------------------------------------------------------------------
# closed forms


def test_disk_mu1():
    assert abs(spectra.disk_mu1(1.0) - 3.39) < 5e-3
    assert abs(spectra.disk_mu1(2.0) - spectra.disk_mu1(1.0) / 4.0) < 1e-14
    from speclab import specfun

    assert spectra.disk_mu1(1.0) == specfun.bessel_j_prime_zero(1.0, 1) ** 2


def test_equilateral_triangle_mu1():
    assert abs(spectra.equilateral_triangle_mu1(2.0) - 4 * PI2 / 9) < 1e-14
    assert abs(spectra.equilateral_triangle_mu1(2.0) - 4.386) < 1e-3
    assert abs(spectra.equilateral_triangle_mu1(1.0) - 16 * PI2 / 9) < 1e-13


def test_cone_tau1():
    assert abs(spectra.cone_tau1(1.0, 2) - 5.783) < 1e-3
    assert abs(spectra.cone_tau1(1.0, 3) - PI2) < 1e-11
    assert abs(spectra.cone_tau1(2.0, 2) - spectra.cone_tau1(1.0, 2) / 4.0) < 1e-14


# ---------------------------------------------------------------------------
# rectangle lattice counting


def test_rectangle_mu_k_small_against_brute():
    for a, b in ((1.0, 1.0), (math.sqrt(2), math.sqrt(2)), (2.0, 1.3)):
        ref = brute_box_values([a, b], 0, 30)
        for k in (1, 2, 5, 17, 29):
            assert spectra.rectangle_mu_k(a, b, k) == pytest.approx(ref[k], rel=1e-13)


def _rect_count_loop(a, b, t):
    """The lattice count as a plain loop over m (oracle for the array form)."""
    if t < 0:
        return 0
    mmax = int(math.floor(a * math.sqrt(t) / math.pi))
    total = 0
    pi2 = math.pi**2
    for m in range(mmax + 1):
        rem = t - pi2 * m * m / (a * a)
        if rem < 0:
            break
        total += int(math.floor(b * math.sqrt(rem) / math.pi)) + 1
    return total


def test_rect_count_matches_loop():
    rng = np.random.default_rng(4)
    for _ in range(3000):
        a, b = rng.uniform(0.05, 5.0, size=2)
        t = float(rng.choice([-1.0, 0.0, 1.0])) * 10.0 ** rng.uniform(-1, 7)
        assert spectra._rect_count(a, b, t) == _rect_count_loop(a, b, t)
    # thresholds on lattice values, where the floors are ties
    for a, b in ((1.0, 1.0), (math.sqrt(2), math.sqrt(2)), (2.0, 1.3)):
        for k in (1, 2, 3, 17, 10**3, 10**5):
            t = spectra.rectangle_mu_k(a, b, k)
            for tt in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
                assert spectra._rect_count(a, b, tt) == _rect_count_loop(a, b, tt)


def test_rectangle_mu1_values():
    assert spectra.rectangle_mu_k(1.0, 1.0, 1) == pytest.approx(PI2, rel=1e-14)
    assert spectra.rectangle_mu_k(math.sqrt(2), math.sqrt(2), 1) == pytest.approx(
        PI2 / 2, rel=1e-13
    )


def test_rectangle_weyl_first_term():
    # direct lattice count oracle: mu_k ~ 4 pi k / area for the unit square
    k = 10**5
    got = spectra.rectangle_mu_k(1.0, 1.0, k)
    assert abs(got - 4 * math.pi * k) <= 0.02 * 4 * math.pi * k


def test_rectangle_mu_k_tie_counting():
    # unit square: mu_1 = mu_2 = pi^2 (tie), mu_3 = 2 pi^2
    assert spectra.rectangle_mu_k(1.0, 1.0, 2) == pytest.approx(PI2, rel=1e-14)
    assert spectra.rectangle_mu_k(1.0, 1.0, 3) == pytest.approx(2 * PI2, rel=1e-14)


def test_weyl_ratio():
    assert spectra.weyl_ratio(1.0, 2.6, 2) == pytest.approx(2.6, rel=1e-15)
    assert spectra.weyl_ratio(math.pi, math.pi, 2) == 1.0
    assert spectra.weyl_ratio(1.0, 8.0, 3) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        spectra.weyl_ratio(0.0, 1.0, 2)


def test_weyl_ratio_trend_for_rectangles():
    # the mu_k ratio approaches the area ratio within the stated envelopes
    target = 2.6
    for k, tol in ((10**3, 0.05), (10**4, 0.02), (10**5, 0.01)):
        r = spectra.rectangle_mu_k(1.0, 1.0, k) / spectra.rectangle_mu_k(2.0, 1.3, k)
        assert abs(r - target) <= tol * target


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        Spectrum(np.array([-1.0, 0.5]))
