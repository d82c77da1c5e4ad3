"""Bessel functions of the first kind and their zeros.

Every sharp constant in this package reduces to a zero of J_nu or of its
derivative, so these are computed to near machine precision.  Supported
ranges: order 0 <= nu <= 60, zero index k <= 10**4 (derivative zeros
k <= 10**3).  All functions are pure and safe to call from several threads:
speclab's own commands run on the calling thread, and the zero cache's lock
serves library callers that share it between threads.

Zero-counting convention: only strictly positive zeros are counted, and
x = 0 is never counted even for J_0', so the first derivative zero of J_0
is 3.8317... (the first positive stationary point).

J_nu is evaluated by scipy's `jv` at every x.  Zero finding: the zeros of
each order are found in order, each bracketed by walking right from the
previous zero, where the sign of J_nu is known, and refined by one
safeguarded Halley loop, which takes J_nu and J_{nu+1} at each iterate and
J'' from the Bessel equation.  A new zero costs about 4 evaluations of J
(4.29 over the 11,919 zeros of a 200 x 120 constant table).  Against
mpmath the zeros are within 6.5e-16 relative over 152 (nu, k) cases with
nu <= 60 and k <= 10**4.  Every zero of J_nu is computed once: the zeros
are kept in a list per order, so a repeated request evaluates nothing, and
the first request for index k computes zeros 1..k of that order.  A
derivative zero is refined afresh on each request, between two cached
zeros of J_nu.
"""

from __future__ import annotations

import math
import operator
import threading

from scipy import special as _special

NU_MAX = 60.0
ZERO_INDEX_MAX = 10_000
PRIME_ZERO_INDEX_MAX = 1_000

# Halley's iteration converges cubically, to an error of about e^3 / 6 after
# a step of size e near a Bessel zero: after a step of at most 1e-7 * x the
# next one would be below rounding (for x up to ~500; beyond that McMahon's
# start makes the steps far shorter).
_HALLEY_STOP = 1e-7
# Far above the 1-3 iterations a zero takes; reaching it means the bracket
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


def _validate_order(nu: float) -> None:
    if not math.isfinite(nu) or nu < 0:
        raise ValueError(f"order nu={nu} outside domain (need finite nu >= 0)")
    if nu > NU_MAX:
        raise ValueError(f"order nu={nu} outside supported range nu <= {NU_MAX}")


def as_index(value, name: str) -> int:
    """value as a Python int: an int or a numpy integer, never a bool or a
    float.  Raises ValueError naming the index otherwise."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


def _refine_root(fd, lo: float, hi: float, negative_at_lo: bool, x: float) -> float:
    """Safeguarded Halley iteration for the simple root bracketed by [lo, hi].

    fd(x) returns (f(x), f'(x), f''(x)) from one pair of Bessel evaluations;
    negative_at_lo, the sign of f at lo, tells which end each iterate
    replaces, and x, the start, lies inside the bracket.  Every iterate
    shrinks the bracket.  A Halley step that would leave it, or that is no
    shorter than the step before, becomes a bisection step.  The loop stops
    after a step of at most _HALLEY_STOP * x that stays inside the bracket.
    """
    prev = math.inf
    for _ in range(_REFINE_CAP):
        f, df, d2f = fd(x)
        if f == 0.0:
            return x
        if (f < 0.0) == negative_at_lo:
            lo = x
        else:
            hi = x
        den = df * df - 0.5 * f * d2f
        step = f * df / den if den != 0.0 else math.inf
        x_new = x - step
        if lo <= x_new <= hi and abs(step) < prev:
            if abs(step) <= _HALLEY_STOP * x:
                return x_new
            prev = abs(step)
        else:
            x_new = 0.5 * (lo + hi)
            if x_new <= lo or x_new >= hi:
                return x_new
            prev = math.inf
        x = x_new
    raise RuntimeError(f"root refinement did not converge in [{lo!r}, {hi!r}]")


def _j_derivatives(nu: float, x: float) -> tuple[float, float, float]:
    """J_nu, J_nu' and J_nu'' at x > 0 from one pair of evaluations: the
    identity J' = (nu/x) J_nu - J_{nu+1} and the Bessel equation
    x^2 J'' = -x J' - (x^2 - nu^2) J."""
    j = bessel_j(nu, x)
    jp = (nu / x) * j - bessel_j(nu + 1.0, x)
    return j, jp, (nu * nu / (x * x) - 1.0) * j - jp / x


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


def bessel_j_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, to a few ulp (see the module docstring).

    The zeros of each order are found in order and kept in a list per
    order, so the first request for index k computes zeros 1..k of that
    order and a repeated request evaluates nothing.  Each new zero is
    bracketed by walking right from the last one in steps of pi/2, which
    cannot skip a zero since consecutive-zero gaps exceed 3.1.  The walk
    starts inside the gap after the last zero, where J_nu has the known
    sign (-1)^m after m zeros, so the start is not evaluated.  The zero is
    refined by `_refine_root`'s Halley steps from McMahon's estimate where
    his leading correction is certifiably small, otherwise from the
    quadratic extrapolation 3 z_m - 3 z_{m-1} + z_{m-2}; when that start is
    missing or outside the bracket, from the bracket's secant point.  A new
    zero costs 3.1 evaluations of J at nu <= 1.5 and 4.0-4.7 at
    nu = 10-59, over the first 101 zeros of each order.  Each zero is
    computed one way whatever was requested before, so results do not
    depend on the order of requests.
    """
    k = _validate_zero_request(nu, k)
    return _zeros(nu, k)[k - 1]


def bessel_j_zeros(nu: float, k: int) -> list[float]:
    """The first k positive zeros of J_nu, each as `bessel_j_zero` gives it,
    validated once: for a caller that reads many zeros of one order."""
    k = _validate_zero_request(nu, k)
    return _zeros(nu, k)[:k]


def _validate_zero_request(nu: float, k) -> int:
    _validate_order(nu)
    k = as_index(k, "zero index")
    if k < 1 or k > ZERO_INDEX_MAX:
        raise ValueError(f"zero index k={k} outside supported range 1..{ZERO_INDEX_MAX}")
    return k


def _zeros(nu: float, k: int) -> list[float]:
    """The cached list of the zeros of J_nu, extended to at least k entries
    (see `bessel_j_zero`); the caller must not modify it."""
    zeros = _zero_cache.get(nu, ())
    if len(zeros) >= k:
        return zeros

    fd = lambda x: _j_derivatives(nu, x)
    with _zero_lock:
        zeros = _zero_cache.setdefault(nu, [])
        while len(zeros) < k:
            m = len(zeros)
            lo = zeros[-1] + _WALK_OFFSET if m else (nu + 1e-3 if nu > 0 else 0.5)
            negative = m % 2 == 1
            flo = None  # J_nu(lo), evaluated only for a secant start
            for _ in range(10_000):
                hi = lo + _WALK_STEP
                fhi = bessel_j(nu, hi)
                if (fhi < 0.0) != negative or fhi == 0.0:
                    break
                lo, flo = hi, fhi
            else:
                raise RuntimeError("sign change not found while bracketing Bessel zero")
            x0 = _mcmahon(nu, m + 1)
            if x0 is None:
                x0 = 3.0 * (zeros[-1] - zeros[-2]) + zeros[-3] if m >= 3 else math.nan
            if not lo < x0 < hi:
                # at small k the gaps change fastest and the extrapolation
                # can leave the bracket: start from its secant instead
                if flo is None:
                    flo = bessel_j(nu, lo)
                x0 = lo - flo * (hi - lo) / (fhi - flo)
            zeros.append(_refine_root(fd, lo, hi, negative, x0))
        return zeros


def bessel_j_prime_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu' in the standard convention.

    For nu = 0 the stationary point at x = 0 is not counted, so
    j'_{0,k} = j_{1,k}.  For nu > 0 the first zero lies in (nu, j_{nu,1})
    and the k-th (k >= 2) in (j_{nu,k-1}, j_{nu,k}); each such interval
    contains exactly one stationary point, where J_nu' changes sign from
    (-1)^(k-1) to (-1)^k.  It is refined by `_refine_root` from the
    interval's midpoint.  It is not cached: a call costs a few Halley steps.
    """
    _validate_order(nu)
    k = as_index(k, "zero index")
    if k < 1 or k > PRIME_ZERO_INDEX_MAX:
        raise ValueError(
            f"derivative zero index k={k} outside supported range 1..{PRIME_ZERO_INDEX_MAX}"
        )
    if nu == 0.0:
        return bessel_j_zero(1.0, k)

    def gd(x: float) -> tuple[float, float, float]:
        # J''' from the differentiated Bessel equation
        # x^2 J''' = -3x J'' - (x^2 - nu^2 + 1) J' - 2x J
        j, jp, jpp = _j_derivatives(nu, x)
        return jp, jpp, (-3.0 * x * jpp - (x * x - nu * nu + 1.0) * jp - 2.0 * x * j) / (x * x)

    if k == 1:
        lo = max(nu, 1e-12)
        hi = bessel_j_zero(nu, 1)
    else:
        lo = bessel_j_zero(nu, k - 1)
        hi = bessel_j_zero(nu, k)
    # nudge off the endpoints, where J_nu' is nonzero
    width = hi - lo
    lo_in, hi_in = lo + 1e-9 * width, hi - 1e-9 * width
    return _refine_root(gd, lo_in, hi_in, k % 2 == 0, 0.5 * (lo_in + hi_in))
