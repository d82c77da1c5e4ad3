"""Exact eigenvalue sequences for domains with closed-form spectra.

Segments, boxes and their products cover the separable cases; disks,
equilateral triangles and cones use known closed forms through the Bessel
machinery.  Merge operations certify the returned prefix: a value is
emitted only if no unseen tail entry of an input spectrum could rank below
it, and an explicit error is raised otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun

BOX_DIM_MAX = 6
BOX_COUNT_MAX = 10**6
RECT_INDEX_MAX = 10**7

_ENUM_BUDGET = 3 * 10**7  # lattice entries held at once


class MergeCertificationError(ValueError):
    """A merged prefix could not be certified from the given inputs."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalue sequence with multiplicity."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        if np.any(vals < 0):
            raise ValueError("spectrum values must be nonnegative")
        if np.any(np.diff(vals) < 0):
            raise ValueError("spectrum values must be ascending")


def segment_spectrum(D: float, bc: str, n: int) -> Spectrum:
    """First n eigenvalues of an interval of length D.

    neumann:   pi^2 k^2 / D^2,          k = 0, 1, ...
    dirichlet: pi^2 k^2 / D^2,          k = 1, 2, ...
    mixed:     pi^2 (2k-1)^2 / (4 D^2), k = 1, 2, ...
    """
    if not D > 0:
        raise ValueError(f"segment length must be positive, got {D}")
    if n < 1:
        raise ValueError("need n >= 1")
    if bc == "neumann":
        ks = np.arange(0, n)
        vals = (math.pi * ks / D) ** 2
    elif bc == "dirichlet":
        ks = np.arange(1, n + 1)
        vals = (math.pi * ks / D) ** 2
    elif bc == "mixed":
        ks = np.arange(1, n + 1)
        vals = (math.pi * (2 * ks - 1) / (2.0 * D)) ** 2
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return Spectrum(vals)


def box_spectrum(sides: Sequence[float], bc: str, n: int) -> Spectrum:
    """First n eigenvalues of a box, by bounded lattice enumeration.

    Values are pi^2 sum_i (k_i/l_i)^2 over integer multi-indices, k_i >= 0
    for Neumann and k_i >= 1 for Dirichlet, with multiplicity.
    """
    sides = [float(s) for s in sides]
    if not 1 <= len(sides) <= BOX_DIM_MAX:
        raise ValueError(f"box dimension must be 1..{BOX_DIM_MAX}, got {len(sides)}")
    if any(s <= 0 for s in sides):
        raise ValueError("box sides must be positive")
    if not 1 <= n <= BOX_COUNT_MAX:
        raise ValueError(f"n must be 1..{BOX_COUNT_MAX}")
    if bc == "neumann":
        offset = 0
    elif bc == "dirichlet":
        offset = 1
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")

    # initial threshold: n-th 1d value on the largest side always suffices
    # as a starting point; double until the enumeration holds n values
    t = math.pi**2 * ((n + offset) / max(sides)) ** 2 / max(1, len(sides)) + 1.0
    while True:
        vals = _box_values_upto(sides, offset, t)
        if vals.size >= n:
            return Spectrum(vals[:n])
        t *= 2.0


def _box_values_upto(sides, offset, t):
    vals = np.zeros(1)
    for length in sides:
        kmax = int(math.floor(length * math.sqrt(t) / math.pi))
        ks = np.arange(offset, kmax + 1)
        if ks.size == 0:
            return np.empty(0)
        axis = (math.pi * ks / length) ** 2
        if vals.size * axis.size > _ENUM_BUDGET:
            raise OverflowError("box enumeration exceeds memory budget")
        vals = (vals[:, None] + axis[None, :]).ravel()
        vals = vals[vals <= t]
    vals.sort()
    return vals


def product_spectrum(base: Spectrum, ell: float, n: int) -> Spectrum:
    """First n eigenvalues of base x [0, ell]: merge of base[m] + pi^2 j^2/ell^2.

    With prefix semantics the merge only emits values that cannot be
    undercut by unseen base entries (all >= base[-1]).  The merge is lazy,
    one increasing sequence per base value, so it reads n values whatever ell.
    """
    if not 0 < ell < math.inf:
        raise ValueError(f"cylinder length must be positive and finite, got {ell}")
    if n < 1:
        raise ValueError("need n >= 1")
    step = (math.pi / ell) ** 2
    cutoff = base.values[-1]

    def shifted(bv):  # bv + pi^2 j^2/ell^2 for j = 0, 1, ... up to the cutoff
        j = 0
        while bv + step * j * j <= cutoff:
            yield bv + step * j * j
            j += 1

    # the first n base values are n candidates, none above base[n-1], so no
    # later base value can undercut the nth smallest
    merged = list(itertools.islice(heapq.merge(*map(shifted, base.values[:n])), n))
    if len(merged) < n:
        raise MergeCertificationError(
            f"cannot certify {n} merged values from a base prefix of "
            f"{base.values.size} entries (only {len(merged)} certified)"
        )
    return Spectrum(np.array(merged))


def disjoint_union_spectrum(parts: Sequence[Spectrum], n: int) -> Spectrum:
    """First n eigenvalues of a disjoint union: ascending merge of the parts.

    Leading zeros count the connected components.  Prefix semantics as in
    product_spectrum: certified up to the smallest last-seen part value.
    """
    if not parts:
        raise ValueError("need at least one part")
    if n < 1:
        raise ValueError("need n >= 1")
    cutoff = min(p.values[-1] for p in parts)
    merged = np.sort(np.concatenate([p.values[p.values <= cutoff] for p in parts]))
    if merged.size < n:
        raise MergeCertificationError(
            f"cannot certify {n} merged values below the shortest part "
            f"(cutoff {cutoff:g}, {merged.size} certified)"
        )
    return Spectrum(merged[:n])


def disk_mu1(R: float) -> float:
    """First nonzero Neumann eigenvalue of a disk: (j'_{1,1})^2 / R^2."""
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    z = specfun.bessel_j_prime_zero(1.0, 1)
    return z * z / R**2


def equilateral_triangle_mu1(side: float) -> float:
    """First nonzero Neumann eigenvalue of an equilateral triangle:
    16 pi^2 / (9 side^2)."""
    if not side > 0:
        raise ValueError(f"side must be positive, got {side}")
    return 16.0 * math.pi**2 / (9.0 * side**2)


def cone_tau1(R: float, d: int) -> float:
    """First mixed eigenvalue of the spherical cone of radius R in R^d
    (Dirichlet cap, Neumann sides): j_{d/2-1,1}^2 / R^2, independent of
    the opening angle since the eigenfunction is radial."""
    if not R > 0:
        raise ValueError(f"radius must be positive, got {R}")
    j = specfun.bessel_j_zero(d / 2.0 - 1.0, 1)
    return j * j / R**2


def _rect_count(a: float, b: float, t: float) -> int:
    """#{(m,n) >= 0 : pi^2 (m^2/a^2 + n^2/b^2) <= t}."""
    if t < 0:
        return 0
    mmax = int(math.floor(a * math.sqrt(t) / math.pi))
    m = np.arange(mmax + 1)
    rem = t - math.pi**2 * m * m / (a * a)
    rem = rem[rem >= 0]
    return int(np.floor(b * np.sqrt(rem) / math.pi).astype(np.int64).sum()) + len(rem)


def rectangle_mu_k(a: float, b: float, k: int) -> float:
    """k-th Neumann eigenvalue of an a x b rectangle, exact up to counting
    ties, via lattice counting and bisection on the threshold."""
    if not (a > 0 and b > 0):
        raise ValueError("rectangle sides must be positive")
    if not 0 <= k <= RECT_INDEX_MAX:
        raise ValueError(f"index k={k} outside supported range 0..{RECT_INDEX_MAX}")
    if k == 0:
        return 0.0
    lo, hi = 0.0, 4.0 * math.pi * (k + 1) / (a * b) + 4.0 * math.pi**2 * (1 / a**2 + 1 / b**2)
    while _rect_count(a, b, hi) < k + 1:
        hi *= 2.0
    # bisect to adjacent floats: hi is the smallest t with count >= k+1,
    # i.e. exactly the k-th eigenvalue as a lattice value
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _rect_count(a, b, mid) >= k + 1:
            hi = mid
        else:
            lo = mid


def weyl_ratio(vol1: float, vol2: float, d: int) -> float:
    """High-order eigenvalue ratio limit for fixed nested domains:
    (vol2/vol1)^(2/d), >= 1 when vol1 <= vol2."""
    if not (vol1 > 0 and vol2 > 0):
        raise ValueError("volumes must be positive")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return (vol2 / vol1) ** (2.0 / d)
