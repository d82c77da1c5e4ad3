"""Tests for Bessel evaluation and zero finding.

Oracles are kept independent of the implementation: a literal power series
with plain bisection, central finite differences, and mpmath's
arbitrary-precision zero finder.
"""

import math
import random
import sys
import threading

import mpmath
import numpy as np
import pytest

from speclab import constants, specfun


# ---------------------------------------------------------------------------
# independent oracles


def series_j_oracle(nu, x, terms=120):
    """Ascending series of J_nu, summed naively (oracle use only, x <= 8)."""
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * (0.5 * x) ** (nu + 2 * m) / (
            math.factorial(m) * math.gamma(nu + m + 1)
        )
    return total


def bisect_oracle(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# first sign change of the J_0 series on [2, 3]
J01_ORACLE = bisect_oracle(lambda x: series_j_oracle(0.0, x), 2.0, 3.0)


# ---------------------------------------------------------------------------
# bessel_j


def test_j0_at_zero_is_one():
    assert specfun.bessel_j(0.0, 0.0) == 1.0


def test_half_order_at_pi_vanishes():
    # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
    assert abs(specfun.bessel_j(0.5, math.pi)) < 1e-12


def test_j0_vanishes_at_first_zero():
    assert abs(specfun.bessel_j(0.0, 2.404825557695773)) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 13.5, 30.0, 60.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 7.9, 8.0, 8.1, 20.0, 75.0, 200.0])
def test_bessel_j_against_mpmath(nu, x):
    ref = float(mpmath.besselj(nu, x))
    assert abs(specfun.bessel_j(nu, x) - ref) < 1e-13


def test_bessel_j_accurate_near_a_zero():
    # the 81 floats within 40 ulp of j_{1.5,2} = 7.725..., where the zero of
    # kroger_upper(3, 5) is refined: J must be right to well below 1e-15 there
    z = float(mpmath.besseljzero(1.5, 2))
    xs = [z]
    for direction in (math.inf, -math.inf):
        x = z
        for _ in range(40):
            x = math.nextafter(x, direction)
            xs.append(x)
    assert len(set(xs)) == 81
    for x in xs:
        assert abs(specfun.bessel_j(1.5, x) - float(mpmath.besselj(1.5, x))) <= 1e-15, x


def test_bessel_j_small_x_matches_series_oracle():
    for nu in [0.0, 0.3, 1.0, 4.5]:
        for x in [0.05, 0.7, 2.3, 6.0]:
            assert abs(specfun.bessel_j(nu, x) - series_j_oracle(nu, x)) < 1e-13


def test_bessel_j_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(1.0, -2.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(math.nan, 1.0)


# ---------------------------------------------------------------------------
# bessel_j_zero


@pytest.mark.parametrize("k", range(1, 21))
def test_half_order_zeros_are_k_pi(k):
    z = specfun.bessel_j_zero(0.5, k)
    assert abs(z - k * math.pi) <= 1e-12 * k * math.pi


def test_first_j0_zero_squared_matches_table():
    z = specfun.bessel_j_zero(0.0, 1)
    assert abs(z * z - 5.783) < 1e-3


def test_first_j0_zero_against_series_bisection_oracle():
    z = specfun.bessel_j_zero(0.0, 1)
    assert abs(z - J01_ORACLE) < 1e-12
    assert abs(z - 2.404825557695773) < 1e-12


@pytest.mark.parametrize(
    "nu,k",
    [(0.0, 2), (0.0, 40), (1.0, 1), (2.0, 7), (5.5, 3), (17.0, 2), (33.3, 5), (60.0, 1), (60.0, 12), (0.25, 9999)],
)
def test_zeros_against_mpmath(nu, k):
    ref = float(mpmath.besseljzero(nu, k))
    z = specfun.bessel_j_zero(nu, k)
    assert abs(z - ref) <= 1e-12 * ref


def test_zero_residuals():
    for nu in [0.0, 0.5, 1.0, 2.0, 10.0, 41.5]:
        for k in [1, 2, 3, 10, 150]:
            z = specfun.bessel_j_zero(nu, k)
            bound = 1e-10 * max(1.0, abs(specfun._j_derivatives(nu, z)[1]))
            assert abs(specfun.bessel_j(nu, z)) <= bound


def test_interlacing():
    for nu in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 60.0]:
        zs = [specfun.bessel_j_zero(nu, k) for k in range(1, 12)]
        assert all(a < b for a, b in zip(zs, zs[1:]))


def test_order_monotonicity():
    nus = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    for k in (1, 2, 3):
        zs = [specfun.bessel_j_zero(nu, k) for nu in nus]
        assert all(a < b for a, b in zip(zs, zs[1:]))


def test_zero_lower_bound():
    # j_{nu,k} > nu + k*pi - 1/2 for nu > 1/2
    for nu in [0.51, 1.0, 3.0, 12.0, 47.0, 60.0]:
        for k in [1, 2, 5, 20]:
            assert specfun.bessel_j_zero(nu, k) > nu + k * math.pi - 0.5


def test_first_zero_upper_bound():
    # j_{nu,1}^2 <= 2 (nu+1)(nu+3)
    nu = 0.0
    while nu <= 30.0:
        z = specfun.bessel_j_zero(nu, 1)
        assert z * z <= 2.0 * (nu + 1.0) * (nu + 3.0)
        nu += 1.5


MCMAHON_REGRESSION_C = 0.65  # frozen envelope for nu in {0, 1, 2}


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("k", [10, 20, 50, 100, 500])
def test_mcmahon_consistency(nu, k):
    beta = (k + 0.5 * nu - 0.25) * math.pi
    assert abs(specfun.bessel_j_zero(nu, k) - beta) <= MCMAHON_REGRESSION_C / k


def test_zero_range_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j_zero(61.0, 1)
    with pytest.raises(ValueError):
        specfun.bessel_j_zero(1.0, 0)
    with pytest.raises(ValueError):
        specfun.bessel_j_zero(1.0, 10_001)
    with pytest.raises(ValueError):
        specfun.bessel_j_zero(1.0, 2.5)


def test_zero_indices_accept_numpy_integers_only():
    # an index is an int or a numpy integer; a bool or a float is rejected
    assert specfun.bessel_j_zero(0.0, np.int64(2)) == specfun.bessel_j_zero(0.0, 2)
    first_two = [specfun.bessel_j_zero(0.0, k) for k in (1, 2)]
    assert specfun.bessel_j_zeros(0.0, np.int64(2)) == first_two
    assert specfun.bessel_j_prime_zero(1.0, np.int32(2)) == specfun.bessel_j_prime_zero(1.0, 2)
    for fn in (specfun.bessel_j_zero, specfun.bessel_j_zeros, specfun.bessel_j_prime_zero):
        for bad in (True, np.True_, 2.0, np.float64(2.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                fn(0.0, bad)


def _clear_zero_cache():
    specfun._zero_cache.clear()


# orders of the constant table (nu = d/2 - 1), from nu = 59, where Halley
# starts from the extrapolation 3 z_m - 3 z_{m-1} + z_{m-2}, to McMahon's
# window, which nu = 0.5 enters at k = 1 and nu = 1.5 at k = 3
BUDGET_ORDERS = (0.0, 0.5, 1.5, 10.0, 30.0, 59.0)
BUDGET_K = range(1, 102)


def _count_j_calls(monkeypatch):
    calls = [0]
    bessel_j = specfun.bessel_j

    def counted(nu, x):
        calls[0] += 1
        return bessel_j(nu, x)

    monkeypatch.setattr(specfun, "bessel_j", counted)
    return calls


def test_zero_evaluation_budget(monkeypatch):
    calls = _count_j_calls(monkeypatch)
    _clear_zero_cache()
    try:
        for nu in BUDGET_ORDERS:
            calls[0] = 0
            for k in BUDGET_K:
                specfun.bessel_j_zero(nu, k)
            # measured 3.0-3.1 per zero at nu <= 1.5, where McMahon's estimate
            # starts Halley, and 4.0-4.7 at nu >= 10
            per_zero = 3.5 if nu <= 1.5 else 5.5
            assert calls[0] <= per_zero * len(BUDGET_K), f"order {nu}: {calls[0]} evaluations"
            calls[0] = 0
            for k in BUDGET_K:
                specfun.bessel_j_zero(nu, k)
            assert calls[0] == 0, f"order {nu}: repeat requests evaluated J"
    finally:
        _clear_zero_cache()


def test_constant_table_evaluation_count(monkeypatch):
    # a noise-free regression guard on the cost of the zero march: the 589
    # zeros of a 40 x 30 constant table take 3,043 evaluations of J
    calls = _count_j_calls(monkeypatch)
    _clear_zero_cache()
    try:
        constants.emit_constant_table(40, 30)
        assert sum(len(z) for z in specfun._zero_cache.values()) == 589
        assert calls[0] == 3043
    finally:
        _clear_zero_cache()


@pytest.mark.parametrize("nu", BUDGET_ORDERS)
def test_march_skips_no_zero(nu):
    # a skipped zero shows as a gap of about 2 pi next to gaps of about pi:
    # every gap lies in (3.1, 2 pi), and the gaps fall to pi for nu > 1/2
    # and rise to it for nu < 1/2 (they are pi at nu = 1/2)
    zs = [specfun.bessel_j_zero(nu, k) for k in BUDGET_K]
    gaps = [b - a for a, b in zip(zs, zs[1:])]
    assert all(3.1 < g < 2.0 * math.pi for g in gaps)
    if nu == 0.5:
        assert all(abs(g - math.pi) <= 1e-12 for g in gaps)
    elif nu > 0.5:
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
    else:
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_zero_request_order_does_not_matter():
    pairs = [(nu, k) for nu in BUDGET_ORDERS + (2.5, 41.5) for k in BUDGET_K]

    def fill(order):
        _clear_zero_cache()
        return {pair: specfun.bessel_j_zero(*pair) for pair in order}

    try:
        ascending = fill(pairs)
        shuffled = list(pairs)
        random.Random(4).shuffle(shuffled)
        assert fill(reversed(pairs)) == ascending
        assert fill(shuffled) == ascending
    finally:
        _clear_zero_cache()


@pytest.mark.parametrize("d", [2, 3, 5, 10, 41, 120])
@pytest.mark.parametrize("k", [1, 2, 50, 101])
def test_zeros_accurate_over_table_range(d, k):
    # the orders and indices of the constant table; J is evaluated to a few
    # ulp at every x, so the zeros are fixed to a few ulp
    nu = d / 2.0 - 1.0
    ref = mpmath.besseljzero(mpmath.mpf(nu), k)
    z = specfun.bessel_j_zero(nu, k)
    assert abs(z - ref) <= 1e-15 * ref


def test_zero_cache_concurrent_fill():
    # every order fills its shared list of zeros by the sequential march; a
    # tiny switch interval makes two threads that start together interleave
    # inside it
    orders = [20.0 + i for i in range(30)]
    _clear_zero_cache()
    expected = {nu: [specfun.bessel_j_zero(nu, k) for k in (4, 1, 2, 3)] for nu in orders}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for nu in orders:
            _clear_zero_cache()
            barrier = threading.Barrier(2)
            results = [None, None]

            def worker(slot):
                barrier.wait(timeout=10)
                results[slot] = [specfun.bessel_j_zero(nu, k) for k in (4, 1, 2, 3)]

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected[nu], expected[nu]], f"order {nu}"
    finally:
        sys.setswitchinterval(old_interval)
        _clear_zero_cache()


# ---------------------------------------------------------------------------
# bessel_j_prime_zero


def test_first_j1_prime_zero():
    z = specfun.bessel_j_prime_zero(1.0, 1)
    assert abs(z - 1.841183781340659) < 1e-10
    assert abs(z * z - 3.39) < 5e-3


def test_j1_prime_zero_against_finite_difference_oracle():
    # sign-change oracle on a central difference of J_1, then refinement on
    # the analytic identity J_1'(x) = J_0(x) - J_1(x)/x
    fd = lambda x: (series_j_oracle(1.0, x + 1e-6) - series_j_oracle(1.0, x - 1e-6)) / 2e-6
    rough = bisect_oracle(fd, 1.5, 2.5, iters=30)
    ident = lambda x: series_j_oracle(0.0, x) - series_j_oracle(1.0, x) / x
    refined = bisect_oracle(ident, rough - 1e-3, rough + 1e-3)
    z = specfun.bessel_j_prime_zero(1.0, 1)
    assert 1.5 < z < 2.5
    assert abs(z - refined) < 1e-9


def test_sector_order_prime_zero_standard_convention():
    # the standard-convention first derivative zero at order pi/1.654;
    # its square is 8.62..., not the diameter-normalized table entry 4.67
    nu = math.pi / 1.654
    ref = float(mpmath.besseljzero(nu, 1, derivative=1))
    z = specfun.bessel_j_prime_zero(nu, 1)
    assert abs(z - ref) <= 1e-11 * ref
    normalized = (z * math.sin(1.654 / 2.0)) ** 2
    assert abs(normalized - 4.67) < 0.02


def test_j0_prime_zero_standard_convention():
    # x = 0 is not counted: first zero of J_0' is the first zero of J_1
    assert specfun.bessel_j_prime_zero(0.0, 1) == specfun.bessel_j_zero(1.0, 1)
    assert abs(specfun.bessel_j_prime_zero(0.0, 1) - 3.8317059702075123) < 1e-10


@pytest.mark.parametrize(
    "nu,k", [(1.0, 2), (1.0, 5), (2.0, 1), (0.5, 1), (0.5, 4), (7.3, 2), (60.0, 3), (1e-4, 1)]
)
def test_prime_zeros_against_mpmath(nu, k):
    ref = float(mpmath.besseljzero(nu, k, derivative=1))
    z = specfun.bessel_j_prime_zero(nu, k)
    assert abs(z - ref) <= 1e-10 * max(1.0, ref)


def test_first_prime_zero_between_order_and_first_zero():
    for nu in [0.3, 1.0, 2.0, 9.0, 42.0]:
        z = specfun.bessel_j_prime_zero(nu, 1)
        assert nu < z < specfun.bessel_j_zero(nu, 1)


def test_prime_zero_range_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j_prime_zero(1.0, 1001)
    with pytest.raises(ValueError):
        specfun.bessel_j_prime_zero(-1.0, 1)
