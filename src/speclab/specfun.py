"""Bessel functions of the first kind and their zeros.

Every sharp constant in this package reduces to a zero of J_nu or of its
derivative, so these are computed to near machine precision.  Supported
ranges: order 0 <= nu <= 60, zero index k <= 10**4 (derivative zeros
k <= 10**3).  All functions are pure and safe for concurrent use.

Zero-counting convention: only strictly positive zeros are counted, and
x = 0 is never counted even for J_0', so the first derivative zero of J_0
is 3.8317... (the first positive stationary point).

J_nu is evaluated by scipy's `jv` at every x.  Zero finding: the zeros of
each order are found in order, each bracketed by walking right from the
previous zero and refined by one safeguarded Newton loop, which takes J_nu
and J_{nu+1} at each iterate; a new zero costs 4-9 evaluations of J.  Every
zero is computed once: the zeros of J_nu are kept in a list per order and
the derivative zeros in a dict per order, so a repeated request evaluates
nothing, and the first request for index k computes zeros 1..k of that
order.
"""

from __future__ import annotations

import math
import threading

from scipy import special as _special

NU_MAX = 60.0
ZERO_INDEX_MAX = 10_000
PRIME_ZERO_INDEX_MAX = 1_000

# A Newton step below sqrt(eps) * x lands within rounding of a simple root,
# so one of that size that failed to shrink is noise of the evaluation.
_NOISE_STEP = 1.5e-8
# Far above the 2-5 iterations a zero takes; reaching it means the bracket
# did not hold a simple root.
_REFINE_CAP = 200


def bessel_j(nu: float, x: float) -> float:
    """Evaluate J_nu(x) for nu >= 0, x >= 0 with scipy's `jv`.

    Absolute error <= 1e-13 for x <= 200, nu <= 60.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError("bessel_j requires finite arguments")
    if nu < 0 or x < 0:
        raise ValueError(f"bessel_j requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
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


def _validate_order(nu: float) -> None:
    if not math.isfinite(nu) or nu < 0:
        raise ValueError(f"order nu={nu} outside domain (need finite nu >= 0)")
    if nu > NU_MAX:
        raise ValueError(f"order nu={nu} outside supported range nu <= {NU_MAX}")


def _mcmahon(nu: float, k: int) -> float | None:
    """McMahon's large-index expansion of j_{nu,k} (three correction terms),
    or None where his leading correction is not certifiably small."""
    mu = 4.0 * nu * nu
    beta = (k + 0.5 * nu - 0.25) * math.pi
    b8 = 8.0 * beta
    if abs(mu - 1.0) / b8 > 0.125:
        return None
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


# Per-order lists of the zeros found so far.  Each list only grows, one zero
# at a time from its last entry, so it is extended under _zero_lock: two
# threads extending the same list would append the same zero twice.
_zero_cache: dict[float, list[float]] = {}
_zero_lock = threading.Lock()

# The walk to the next zero starts this far right of the last one: just
# below the smallest gap between consecutive zeros of any order nu >= 0,
# j_{0,2} - j_{0,1} = 3.115, so it never starts past the next zero.
_WALK_OFFSET = 3.1
# Shorter than every gap, so no step can step over a zero.
_WALK_STEP = 0.5 * math.pi


def _march_bracket(f, start: float):
    """Walk right from start in steps of _WALK_STEP until f changes sign;
    return the bracket and f at both ends."""
    lo, flo = start, f(start)
    for _ in range(10_000):
        hi = lo + _WALK_STEP
        fhi = f(hi)
        if (fhi < 0.0) != (flo < 0.0) or fhi == 0.0:
            return lo, hi, flo, fhi
        lo, flo = hi, fhi
    raise RuntimeError("sign change not found while bracketing Bessel zero")


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, relative error <= 1e-12.

    The zeros of each order are found in order and kept in a list per
    order, so the first request for index k computes zeros 1..k of that
    order and a repeated request evaluates nothing.  Each new zero is
    bracketed by walking right from the last one in steps of pi/2, which
    cannot skip a zero since consecutive-zero gaps exceed 3.1, and refined
    by `_refine_root` at 4-9 evaluations of J.  Newton starts from
    McMahon's estimate where his leading correction is certifiably small,
    otherwise from the linear extrapolation 2 z_m - z_{m-1}; when that start
    is missing or outside the bracket, from the bracket's secant point.
    Each zero is computed one way whatever was requested before, so results
    do not depend on the order of requests.
    """
    _validate_order(nu)
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"zero index must be an integer, got {k!r}")
    if k < 1 or k > ZERO_INDEX_MAX:
        raise ValueError(f"zero index k={k} outside supported range 1..{ZERO_INDEX_MAX}")
    zeros = _zero_cache.get(nu, ())
    if len(zeros) >= k:
        return zeros[k - 1]

    f = lambda x: bessel_j(nu, x)

    def fd(x: float) -> tuple[float, float]:
        j, j_next = _j_pair(nu, x)
        return j, (nu / x) * j - j_next

    with _zero_lock:
        zeros = _zero_cache.setdefault(nu, [])
        while len(zeros) < k:
            if zeros:
                start = zeros[-1] + _WALK_OFFSET
            else:
                start = nu + 1e-3 if nu > 0 else 0.5
            lo, hi, flo, fhi = _march_bracket(f, start)
            x0 = _mcmahon(nu, len(zeros) + 1)
            if x0 is None:
                x0 = 2.0 * zeros[-1] - zeros[-2] if len(zeros) >= 2 else math.nan
            if not lo < x0 < hi:
                # at small k the gaps change fastest and the extrapolation
                # can leave the bracket: start from its secant instead
                x0 = lo - flo * (hi - lo) / (fhi - flo)
            zeros.append(_refine_root(fd, lo, hi, flo, x0))
        return zeros[k - 1]


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
