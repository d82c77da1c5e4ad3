"""Tests for the closed-form constant evaluators."""

import math

import numpy as np
import pytest

from speclab import constants, experiments, specfun


def test_alpha1_sharp_planar_value():
    assert abs(constants.alpha1_sharp(2) - 0.427) < 1e-3


def test_alpha1_sharp_d3_is_quarter():
    # j_{1/2,1} = pi makes the constant exactly 1/4
    assert abs(constants.alpha1_sharp(3) - 0.25) <= 1e-12 * 0.25


def test_alpha1_sharp_large_d_envelope():
    # frozen regression envelope around pi^2/d^2
    for d in range(20, 121, 10):
        a = constants.alpha1_sharp(d)
        assert abs(a - math.pi**2 / d**2) <= 5e3 / d**3


def test_alpha1_simple_values():
    assert abs(constants.alpha1_simple(2) - math.pi**2 / 24.0) < 1e-15
    assert abs(constants.alpha1_simple(3) - math.pi**2 / 42.0) < 1e-15


def test_alpha1_simple_below_sharp():
    for d in range(2, 121):
        assert constants.alpha1_simple(d) <= constants.alpha1_sharp(d)


def test_funano_lower_values():
    assert constants.funano_lower(2) == 1.0 / 33856.0
    assert constants.funano_lower(3) == 1.0 / 76176.0


def test_sandwich():
    for d in range(2, 121):
        f = constants.funano_lower(d)
        s = constants.alpha1_simple(d)
        a = constants.alpha1_sharp(d)
        assert f < s <= a


def test_payne_weinberger_values():
    assert abs(constants.payne_weinberger_lower(2.0) - 2.467) < 1e-3
    assert constants.payne_weinberger_lower(1.0) == math.pi**2
    assert abs(constants.payne_weinberger_lower(math.pi) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        constants.payne_weinberger_lower(0.0)


def test_kroger_upper_planar_k1():
    v = constants.kroger_upper(1, 2, 2.0)
    j01 = specfun.bessel_j_zero(0.0, 1)
    assert abs(v - j01 * j01) < 1e-12
    assert abs(v - 5.783) < 1e-3


@pytest.mark.parametrize("k", [1, 3, 5, 9])
def test_kroger_upper_d3_odd_closed_form(k):
    # j_{1/2,m} = m pi gives pi^2 (k+1)^2 / D^2 for odd k
    for D in (1.0, 2.0, 3.7):
        v = constants.kroger_upper(k, 3, D)
        ref = math.pi**2 * (k + 1) ** 2 / D**2
        assert abs(v - ref) <= 1e-12 * ref


@pytest.mark.parametrize("d", [2, 3, 4, 7, 12])
def test_kroger_alpha_consistency(d):
    # alpha1_sharp(d) = pi^2 / (D^2 kroger_upper(1, d, D)) for any D
    for D in (0.5, 1.0, 2.0):
        assert abs(
            constants.alpha1_sharp(d) - math.pi**2 / (D**2 * constants.kroger_upper(1, d, D))
        ) < 1e-14


def test_c_upper_d3_closed_form():
    for k in range(1, 21):
        ref = k**2 / (k + 1) ** 2
        assert abs(constants.c_upper(k, 3) - ref) <= 1e-12 * ref


def test_c_upper_equals_alpha1_sharp_at_k1():
    for d in (2, 3, 5, 10):
        assert abs(constants.c_upper(1, d) - constants.alpha1_sharp(d)) < 1e-14


def test_c_upper_below_one():
    for d in (2, 3, 4, 6, 10, 60, 120):
        for k in (1, 2, 3, 7, 20, 100):
            assert constants.c_upper(k, d) < 1.0
    assert constants.c_upper(7, 5) < 1.0


def test_c_upper_increasing_toward_one():
    for d in (2, 3, 4, 6, 10):
        vals = [constants.c_upper(k, d) for k in range(1, 31)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    assert constants.c_upper(1000, 2) > 0.99
    assert constants.c_upper(1000, 3) > 0.99


def test_c_upper_dimension_decay():
    # frozen uniform bound c(k,d) d^2 <= pi^2 k^2 from the explicit
    # pi k / (d - 3 + (k+1) pi) estimate
    for k in (1, 2, 3):
        for d in range(2, 121):
            assert constants.c_upper(k, d) * d**2 <= math.pi**2 * k**2


def test_c_upper_dimension_monotonicity():
    for k in (1, 2, 3, 7, 20):
        vals = [constants.c_upper(k, d) for d in range(2, 61)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_alpha1_sharp_normalized_increasing_bounded():
    vals = [constants.alpha1_sharp(d) * d**2 for d in range(2, 121)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v <= math.pi**2 for v in vals)


def test_alpha_lower_nonsharp_values():
    # k = 1, d = 2 reduces to the sharp constant
    assert abs(constants.alpha_lower_nonsharp(1, 2) - constants.alpha1_sharp(2)) < 1e-14
    # k = 2, d = 3: pi^2 / (pi + 2 pi)^2 = 1/9
    assert abs(constants.alpha_lower_nonsharp(2, 3) - 1.0 / 9.0) <= 1e-12 / 9.0
    # k = 5, d = 2 arithmetic
    j01 = specfun.bessel_j_zero(0.0, 1)
    ref = math.pi**2 / (2 * j01 + 4 * math.pi) ** 2
    assert abs(constants.alpha_lower_nonsharp(5, 2) - ref) < 1e-14
    assert abs(ref - 0.0327) < 1e-3


def test_alpha_lower_nonsharp_unsupported():
    with pytest.raises(ValueError):
        constants.alpha_lower_nonsharp(3, 4)
    with pytest.raises(ValueError):
        constants.alpha_lower_nonsharp(1001, 2)


def test_polya_bound_values():
    for k in (1, 2, 8):
        assert abs(constants.polya_bound(k, 2) - 4.0 * math.pi * k) < 1e-12 * k
    ref = 4.0 * math.pi**2 / (4.0 * math.pi / 3.0) ** (2.0 / 3.0)
    assert abs(constants.polya_bound(1, 3) - ref) < 1e-12
    # linear in k when d = 2
    assert abs(constants.polya_bound(8, 2) - 2.0 * constants.polya_bound(4, 2)) < 1e-10


def test_emit_constant_table_contents():
    records = constants.emit_constant_table(2, 3)
    by_key = {(r.name, r.k, r.d): r.value for r in records}
    assert abs(by_key[("alpha1_sharp", 1, 3)] - 0.25) < 1e-13
    assert abs(by_key[("alpha1_sharp", 1, 2)] - 0.427) < 1e-3
    assert all(v < 1.0 for (n, _, _), v in by_key.items() if n == "c_upper")
    # lexicographic ordering by (name, k, d)
    keys = [(r.name, r.k, r.d) for r in records]
    assert keys == sorted(keys)


def _reference_table(k_max, d_max):
    """Reference grid: one loop per constant through the public functions
    (c_upper makes its own kroger_upper call), then a sort by (name, k, d)."""
    D = constants.TABLE_DIAMETER
    records = []
    dims = range(2, d_max + 1)
    orders = range(1, k_max + 1)

    for d in dims:
        records.append(
            ("alpha1_sharp", 1, d, constants.alpha1_sharp(d), "pi^2 / (4 j_{d/2-1,1}^2)")
        )
    for d in dims:
        records.append(("alpha1_simple", 1, d, constants.alpha1_simple(d), "pi^2 / (2 d (d+4))"))
    for k in orders:
        for d in dims:
            if d == 2 and k <= 1000:
                records.append(
                    (
                        "alpha_k2_lower",
                        k,
                        2,
                        constants.alpha_lower_nonsharp(k, 2),
                        "pi^2 / (2 j_{0,1} + (k-1) pi)^2",
                    )
                )
            elif d >= 3 and k == 2:
                records.append(
                    (
                        "alpha_2d_lower",
                        2,
                        d,
                        constants.alpha_lower_nonsharp(2, d),
                        "pi^2 / (j_{(d-2)/2,1} + j_{(d-2)/2,2})^2",
                    )
                )
    for k in orders:
        for d in dims:
            records.append(
                ("c_upper", k, d, constants.c_upper(k, d), "pi^2 k^2 / (D^2 kroger_upper)")
            )
    for d in dims:
        records.append(("funano_lower", 1, d, constants.funano_lower(d), "(1/92^2) / d^2"))
    for k in orders:
        for d in dims:
            records.append(
                (
                    "kroger_upper",
                    k,
                    d,
                    constants.kroger_upper(k, d, D),
                    f"diameter upper bound at D={D:g}",
                )
            )
    records.append(
        (
            "payne_weinberger_lower",
            1,
            2,
            constants.payne_weinberger_lower(D),
            f"pi^2 / D^2 at D={D:g}",
        )
    )
    for k in orders:
        for d in dims:
            records.append(
                ("polya_bound", k, d, constants.polya_bound(k, d), "4 pi^2 k^(2/d) / omega_d^(2/d)")
            )
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    return records


@pytest.mark.parametrize("k_max, d_max", [(1, 2), (2, 3), (3, 10), (40, 30), (1001, 3)])
def test_emit_constant_table_matches_reference_loops(k_max, d_max):
    # bit for bit: same rows, same order, same floats; (1001, 3) crosses the
    # k <= 1000 edge of alpha_k2_lower
    got = [tuple(r) for r in constants.emit_constant_table(k_max, d_max)]
    ref = _reference_table(k_max, d_max)
    assert [r[:3] + r[4:] for r in got] == [r[:3] + r[4:] for r in ref]
    assert [r[3].hex() for r in got] == [r[3].hex() for r in ref]


def test_emit_constant_table_evaluates_kroger_once_per_pair(monkeypatch):
    # Kroger's bound once per (k, d), shared by the c_upper and kroger_upper
    # rows; the zeros and the unit-ball volume it reads, once per dimension
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls.setdefault(name, []).append(args[:2])
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    count(constants, "_kroger_unit")
    count(constants, "unit_ball_volume")
    count(constants.specfun, "bessel_j_zeros")
    k_max, d_max = 7, 9
    constants.emit_constant_table(k_max, d_max)
    dims = range(2, d_max + 1)
    assert sorted(calls["_kroger_unit"]) == [(k, d) for k in range(1, k_max + 1) for d in dims]
    assert sorted(calls["unit_ball_volume"]) == [(d,) for d in dims]
    assert sorted(nu for nu, _ in calls["bessel_j_zeros"]) == [d / 2.0 - 1.0 for d in dims]


def test_emit_constant_table_rejects_non_positive_value(monkeypatch):
    polya = constants._polya
    monkeypatch.setattr(
        constants, "_polya", lambda k, d, omega: 0.0 if (k, d) == (2, 3) else polya(k, d, omega)
    )
    with pytest.raises(ValueError, match="polya_bound"):
        constants.emit_constant_table(2, 3)


def test_constant_csv_roundtrip(tmp_path):
    records = constants.emit_constant_table(1, 3)
    path = tmp_path / "constants.csv"
    experiments.cmd_constants(1, 3).write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name,k,d,value,formula"
    assert len(lines) == len(records) + 1
    row = next(l for l in lines if l.startswith("alpha1_sharp,1,3,"))
    assert float(row.split(",")[3]) == pytest.approx(0.25, abs=1e-12)


def test_indices_accept_numpy_integers_only():
    assert constants.kroger_upper(np.int64(3), 3, 1.0) == constants.kroger_upper(3, 3, 1.0)
    assert constants.polya_bound(np.int64(2), np.int8(3)) == constants.polya_bound(2, 3)
    table = constants.emit_constant_table(np.int64(2), np.int64(3))
    assert table == constants.emit_constant_table(2, 3)
    for bad in (True, 3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            constants.kroger_upper(bad, 3, 1.0)
        with pytest.raises(ValueError, match="must be an integer"):
            constants.alpha1_sharp(bad)


def test_dimension_range_errors():
    with pytest.raises(ValueError):
        constants.alpha1_sharp(1)
    with pytest.raises(ValueError):
        constants.alpha1_sharp(121)
    with pytest.raises(ValueError):
        constants.kroger_upper(0, 3, 1.0)
