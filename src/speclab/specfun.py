"""Bessel functions of the first kind and their zeros.

Every sharp constant in this package reduces to a zero of J_nu or of its
derivative, so these are computed to near machine precision.  Supported
ranges: order 0 <= nu <= 60, zero index k <= 10**4 (derivative zeros
k <= 10**3).  All functions are pure and safe for concurrent use.

Zero-counting convention: only strictly positive zeros are counted, and
x = 0 is never counted even for J_0', so the first derivative zero of J_0
is 3.8317... (the first positive stationary point).

Zero finding: each zero is bracketed (at McMahon's estimate, or by marching
from the previous zero of the same order) and refined by one safeguarded
Newton loop, which takes J_nu and J_{nu+1} at each iterate and needs 4-10
evaluations of J per zero.  Every zero is computed once: the McMahon-path
zeros are memoized by (nu, k), the march keeps a list per order and the
derivative zeros a dict per order.  A repeated request evaluates nothing.
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

# A Newton step below sqrt(eps) * x lands within rounding of a simple root,
# so one of that size that failed to shrink is noise of the evaluation.
_NOISE_STEP = 1.5e-8
# Far above the 2-5 iterations a zero takes; reaching it means the bracket
# did not hold a simple root.
_REFINE_CAP = 200


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


def _refine_root(fd, lo: float, hi: float, flo: float, x: float) -> float:
    """Safeguarded Newton iteration for the simple root bracketed by [lo, hi].

    fd(x) returns (f(x), f'(x)) from one pair of Bessel evaluations; flo is
    f(lo), whose sign tells which end each iterate replaces, and x, the start,
    lies inside the bracket.  Every iterate shrinks the bracket.  A Newton
    step that would leave it, or that is no shorter than the step before,
    becomes a bisection step.  The loop stops when a step is at most 4 ulp,
    or when steps stop shrinking below _NOISE_STEP: there the iterate sits
    at the noise floor of the evaluation.
    """
    neg = flo < 0.0
    prev = math.inf
    for _ in range(_REFINE_CAP):
        fx, dfx = fd(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg:
            lo = x
        else:
            hi = x
        step = fx / dfx if dfx != 0.0 else math.inf
        x_new = x - step
        if abs(step) <= 4.0 * math.ulp(x) or prev <= abs(step) <= _NOISE_STEP * x:
            return x_new
        if lo <= x_new <= hi and abs(step) < prev:
            prev = abs(step)
        else:
            x_new = 0.5 * (lo + hi)
            if x_new <= lo or x_new >= hi:
                return x_new
            prev = math.inf
        x = x_new
    raise RuntimeError(f"root refinement did not converge in [{lo!r}, {hi!r}]")


def _j_pair(nu: float, x: float) -> tuple[float, float]:
    """J_nu(x) and J_{nu+1}(x): with J' = (nu/x) J_nu - J_{nu+1} and the Bessel
    equation they give J, J' and J'' at x."""
    return bessel_j(nu, x), bessel_j(nu + 1.0, x)


# Zeros in McMahon's window, keyed by (nu, k): a race only stores the same
# root twice.
_mcmahon_zero_cache: dict[tuple[float, int], float] = {}

# Per-order lists of the zeros found so far by the sequential march.  Each
# list only grows, one zero at a time from its last entry, so the march runs
# under _zero_lock: two threads extending the same list would append the
# same zero twice.
_zero_cache: dict[float, list[float]] = {}
_zero_lock = threading.Lock()


def _march_bracket(f, start: float, step: float, fstart: float):
    """Walk right from start until f changes sign; return the bracket and f
    at both ends."""
    lo, flo = start, fstart
    for _ in range(10_000):
        hi = lo + step
        fhi = f(hi)
        if (fhi < 0.0) != (flo < 0.0) or fhi == 0.0:
            return lo, hi, flo, fhi
        lo, flo = hi, fhi
    raise RuntimeError("sign change not found while bracketing Bessel zero")


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, relative error <= 1e-12.

    When McMahon's leading correction is certifiably small, the k-th zero is
    bracketed at the McMahon estimate +-0.5 and Newton starts from the
    estimate; these zeros are memoized by (nu, k).  Otherwise zeros are
    generated sequentially, with a cache per order, by marching from the
    last zero in steps of pi/2, which cannot skip a zero since
    consecutive-zero gaps exceed 3.1; Newton starts from the linear
    extrapolation 2 z_m - z_{m-1}.  Both paths refine with `_refine_root`,
    at 4-10 evaluations of J per new zero; a repeated request evaluates
    nothing.  Each (nu, k) takes one path whatever was requested before, so
    results do not depend on the order of requests.
    """
    _validate_order(nu)
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"zero index must be an integer, got {k!r}")
    if k < 1 or k > ZERO_INDEX_MAX:
        raise ValueError(f"zero index k={k} outside supported range 1..{ZERO_INDEX_MAX}")
    root = _mcmahon_zero_cache.get((nu, k))
    if root is not None:
        return root
    mu = 4.0 * nu * nu
    beta = (k + 0.5 * nu - 0.25) * math.pi
    # McMahon error well under the half-gap: bracket the k-th zero directly.
    mcmahon = abs(mu - 1.0) / (8.0 * beta) <= 0.125
    zeros = _zero_cache.get(nu, ())
    if not mcmahon and len(zeros) >= k:
        return zeros[k - 1]

    f = lambda x: bessel_j(nu, x)

    def fd(x: float) -> tuple[float, float]:
        j, j_next = _j_pair(nu, x)
        return j, (nu / x) * j - j_next

    if mcmahon:
        x0 = _mcmahon(nu, k)
        lo, hi = x0 - 0.5, x0 + 0.5
        flo, fhi = f(lo), f(hi)
        if (flo < 0.0) != (fhi < 0.0):
            root = _refine_root(fd, lo, hi, flo, x0)
            _mcmahon_zero_cache[(nu, k)] = root
            return root
        # fall through to the sequential path on the rare bracket failure

    with _zero_lock:
        zeros = _zero_cache.setdefault(nu, [])
        while len(zeros) < k:
            if zeros:
                start = zeros[-1] + 0.25
            else:
                start = nu + 1e-3 if nu > 0 else 0.5
            lo, hi, flo, fhi = _march_bracket(f, start, 0.5 * math.pi, f(start))
            x0 = 2.0 * zeros[-1] - zeros[-2] if len(zeros) >= 2 else math.nan
            if not lo < x0 < hi:
                # at small k the gaps change fastest and the extrapolation
                # can leave the bracket: start from its secant instead
                x0 = lo - flo * (hi - lo) / (fhi - flo)
            zeros.append(_refine_root(fd, lo, hi, flo, x0))
        root = zeros[k - 1]
    if mcmahon:
        _mcmahon_zero_cache[(nu, k)] = root
    return root


# Keyed by index, not appended to: a race only stores the same root twice.
_prime_zero_cache: dict[float, dict[int, float]] = {}


def bessel_j_prime_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu' in the standard convention.

    For nu = 0 the stationary point at x = 0 is not counted, so
    j'_{0,k} = j_{1,k}.  For nu > 0 the first zero lies in (nu, j_{nu,1})
    and the k-th (k >= 2) in (j_{nu,k-1}, j_{nu,k}); each such interval
    contains exactly one stationary point, refined by `_refine_root` from
    the interval's midpoint and memoized by (nu, k).
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

    def gd(x: float) -> tuple[float, float]:
        # J' from the pair, J'' from the Bessel equation
        j, j_next = _j_pair(nu, x)
        jp = (nu / x) * j - j_next
        return jp, (nu * nu / (x * x) - 1.0) * j - jp / x

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
    root = _refine_root(gd, lo_in, hi_in, bessel_j_prime(nu, lo_in), 0.5 * (lo_in + hi_in))
    cache[k] = root
    return root
