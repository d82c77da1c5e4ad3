"""Bessel functions of the first kind and their zeros.

Every sharp constant in this package reduces to a zero of J_nu or of its
derivative, so these are computed to near machine precision.  Supported
ranges: order 0 <= nu <= 60, zero index k <= 10**4 (derivative zeros
k <= 10**3).  All functions are pure and safe for concurrent use.

Zero-counting convention: only strictly positive zeros are counted, and
x = 0 is never counted even for J_0', so the first derivative zero of J_0
is 3.8317... (the first positive stationary point).
"""

from __future__ import annotations

import math
import threading

from scipy import special as _special

NU_MAX = 60.0
ZERO_INDEX_MAX = 10_000
PRIME_ZERO_INDEX_MAX = 1_000

# Power series below, library evaluation (asymptotic/recurrence regime)
# above.  The split is set where the alternating series still carries full
# double precision: at x = 8 the largest term exceeds |J_0(8)| by ~6.6e2,
# so cancellation costs at most ~1e-13 absolute.
SERIES_SPLIT = 8.0

_BISECT_WIDTH = 1e-8
_NEWTON_CAP = 50


def bessel_j(nu: float, x: float) -> float:
    """Evaluate J_nu(x) for nu >= 0, x >= 0.

    Absolute error <= 1e-13 for x <= 200, nu <= 60.  Uses the ascending
    power series for x <= SERIES_SPLIT and the library evaluator beyond.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError("bessel_j requires finite arguments")
    if nu < 0 or x < 0:
        raise ValueError(f"bessel_j requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x <= SERIES_SPLIT:
        return _series_j(nu, x)
    return float(_special.jv(nu, x))


def bessel_j_prime(nu: float, x: float) -> float:
    """Evaluate J_nu'(x) via the identity J_nu' = (nu/x) J_nu - J_{nu+1}."""
    if nu < 0 or x < 0:
        raise ValueError(f"bessel_j_prime requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x == 0.0:
        if nu == 1.0:
            return 0.5
        return 0.0 if (nu == 0.0 or nu > 1.0) else math.inf
    return (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1.0, x)


def _series_j(nu: float, x: float) -> float:
    # J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_m (-x^2/4)^m / (m! (nu+1)_m)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    log_pref = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_pref < -745.0:
        return 0.0  # prefactor underflows; |J_nu(x)| < 5e-324
    pref = math.exp(log_pref)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for m in range(1, 500):
        term *= -q / (m * (nu + m))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            break
    return pref * total


def _validate_order(nu: float) -> None:
    if not math.isfinite(nu) or nu < 0:
        raise ValueError(f"order nu={nu} outside domain (need finite nu >= 0)")
    if nu > NU_MAX:
        raise ValueError(f"order nu={nu} outside supported range nu <= {NU_MAX}")


def _mcmahon(nu: float, k: int) -> float:
    """McMahon's large-index expansion of j_{nu,k} (three correction terms)."""
    mu = 4.0 * nu * nu
    beta = (k + 0.5 * nu - 0.25) * math.pi
    b8 = 8.0 * beta
    return beta - (
        (mu - 1.0) / b8
        + 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
        + 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    )


def _refine_root(f, fprime, lo: float, hi: float, flo: float) -> float:
    """Bisection to width 1e-8, then Newton (cap 50); bisection fallback.

    [lo, hi] must bracket a simple root, flo = f(lo).
    """
    neg = flo < 0.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    guard_lo, guard_hi = lo - _BISECT_WIDTH, hi + _BISECT_WIDTH
    for _ in range(_NEWTON_CAP):
        fx = f(x)
        dfx = fprime(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (guard_lo <= x_new <= guard_hi):
            break
        if abs(step) <= 4.0 * math.ulp(x):
            return x_new
        x = x_new
    # Newton declined to converge: pure bisection to machine width.
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if (f(mid) < 0.0) == neg:
            lo = mid
        else:
            hi = mid


# Per-order lists of the zeros found so far by the sequential march.  Each
# list only grows, one zero at a time from its last entry, so the march runs
# under _zero_lock: two threads extending the same list would append the
# same zero twice.
_zero_cache: dict[float, list[float]] = {}
_zero_lock = threading.Lock()


def _march_bracket(f, start: float, step: float, fstart: float):
    """Walk right from start until f changes sign; return bracket and f(lo)."""
    lo, flo = start, fstart
    for _ in range(10_000):
        hi = lo + step
        fhi = f(hi)
        if (fhi < 0.0) != (flo < 0.0) or fhi == 0.0:
            return lo, hi, flo
        lo, flo = hi, fhi
    raise RuntimeError("sign change not found while bracketing Bessel zero")


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, relative error <= 1e-12.

    Bracketing starts from the McMahon approximation when its leading
    correction is certifiably small; otherwise zeros are generated
    sequentially (with caching per order) by marching in steps of pi/2,
    which cannot skip a zero since consecutive-zero gaps exceed 3.1.
    """
    _validate_order(nu)
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"zero index must be an integer, got {k!r}")
    if k < 1 or k > ZERO_INDEX_MAX:
        raise ValueError(f"zero index k={k} outside supported range 1..{ZERO_INDEX_MAX}")

    f = lambda x: bessel_j(nu, x)
    fp = lambda x: bessel_j_prime(nu, x)

    mu = 4.0 * nu * nu
    beta = (k + 0.5 * nu - 0.25) * math.pi
    if abs(mu - 1.0) / (8.0 * beta) <= 0.125:
        # McMahon error well under the half-gap: bracket the k-th zero directly.
        x0 = _mcmahon(nu, k)
        lo, hi = x0 - 0.5, x0 + 0.5
        flo, fhi = f(lo), f(hi)
        if (flo < 0.0) != (fhi < 0.0):
            return _refine_root(f, fp, lo, hi, flo)
        # fall through to the sequential path on the rare bracket failure

    with _zero_lock:
        zeros = _zero_cache.setdefault(nu, [])
        while len(zeros) < k:
            if zeros:
                start = zeros[-1] + 0.25
            else:
                start = nu + 1e-3 if nu > 0 else 0.5
            lo, hi, flo = _march_bracket(f, start, 0.5 * math.pi, f(start))
            zeros.append(_refine_root(f, fp, lo, hi, flo))
        return zeros[k - 1]


# Keyed by index, not appended to: a race only stores the same root twice.
_prime_zero_cache: dict[float, dict[int, float]] = {}


def bessel_j_prime_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu' in the standard convention.

    For nu = 0 the stationary point at x = 0 is not counted, so
    j'_{0,k} = j_{1,k}.  For nu > 0 the first zero lies in (nu, j_{nu,1})
    and the k-th (k >= 2) in (j_{nu,k-1}, j_{nu,k}); each such interval
    contains exactly one stationary point.
    """
    _validate_order(nu)
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"zero index must be an integer, got {k!r}")
    if k < 1 or k > PRIME_ZERO_INDEX_MAX:
        raise ValueError(
            f"derivative zero index k={k} outside supported range 1..{PRIME_ZERO_INDEX_MAX}"
        )
    if nu == 0.0:
        return bessel_j_zero(1.0, k)

    cache = _prime_zero_cache.setdefault(nu, {})
    if k in cache:
        return cache[k]

    g = lambda x: bessel_j_prime(nu, x)

    def gprime(x: float) -> float:
        # from the Bessel equation: J'' = (nu^2/x^2 - 1) J - J'/x
        return (nu * nu / (x * x) - 1.0) * bessel_j(nu, x) - bessel_j_prime(nu, x) / x

    if k == 1:
        lo = max(nu, 1e-12)
        hi = bessel_j_zero(nu, 1)
    else:
        lo = bessel_j_zero(nu, k - 1)
        hi = bessel_j_zero(nu, k)
    # nudge off the endpoints (J_nu' vanishes nowhere at them, but J(j_{nu,m}) = 0
    # exactly is fine; the derivative there is nonzero with alternating sign)
    width = hi - lo
    lo_in, hi_in = lo + 1e-9 * width, hi - 1e-9 * width
    glo = g(lo_in)
    root = _refine_root(g, gprime, lo_in, hi_in, glo)
    cache[k] = root
    return root
