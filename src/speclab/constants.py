"""Closed-form bounds on Neumann eigenvalue ratios of nested convex domains.

All quantities are indexed by the eigenvalue order k and the dimension d.
Ratio bounds are dimensionless; the diameter bounds (`kroger_upper`,
`payne_weinberger_lower`) carry 1/length^2 units through an explicit
diameter argument, keeping the scaling mu_k(c*Omega) = c^-2 mu_k(Omega)
explicit.

`emit_constant_table` writes every constant as a grid of (name, k, d)
records from one table that gives each constant's formula, index set and
value, in name order; each index set runs through (k, d) lexicographically,
so the grid comes out sorted.  The grid evaluates each bound once per
(k, d), from what it reads per dimension evaluated once per dimension (the
zeros of J_{d/2-1} and the unit-ball volume): `c_upper` and the
`kroger_upper` rows share one evaluation of Kroger's bound, and every
emitted value is checked to be positive.

The improved lower bound of the form pi^2/(16 j^2) is deliberately not
implemented: the zero index it requires is not pinned down, so it is
recorded here as documentation only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import specfun

D_MAX = 120

# diameter used for the dimensional rows of the emitted table
TABLE_DIAMETER = 2.0


class ConstantRecord(NamedTuple):
    """One named bound value with its indices and display formula."""

    name: str
    k: int
    d: int
    value: float
    formula: str


def _validate_dimension(d: int, d_min: int = 2) -> int:
    d = specfun.as_index(d, "dimension")
    if d < d_min or d > D_MAX:
        raise ValueError(f"dimension d={d} outside supported range {d_min}..{D_MAX}")
    return d


def _validate_order_index(k: int) -> int:
    k = specfun.as_index(k, "eigenvalue order")
    if k < 1:
        raise ValueError(f"eigenvalue order k={k} must be >= 1")
    return k


def alpha1_sharp(d: int) -> float:
    """Sharp infimum of mu_1(inner)/mu_1(outer) over nested convex domains:
    pi^2 / (4 j_{d/2-1,1}^2)."""
    d = _validate_dimension(d)
    j = specfun.bessel_j_zero(d / 2.0 - 1.0, 1)
    return math.pi**2 / (4.0 * j * j)


def alpha1_simple(d: int) -> float:
    """Non-sharp first-eigenvalue comparison constant pi^2 / (2 d (d+4))."""
    d = _validate_dimension(d)
    return math.pi**2 / (2.0 * d * (d + 4.0))


def funano_lower(d: int) -> float:
    """Universal all-order lower bound (1/92^2) / d^2."""
    d = _validate_dimension(d)
    return 1.0 / (92.0**2 * d * d)


def payne_weinberger_lower(diameter: float) -> float:
    """Diameter lower bound pi^2 / D^2 for mu_1 of a convex domain."""
    if not diameter > 0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    return math.pi**2 / diameter**2


def kroger_upper(k: int, d: int, diameter: float) -> float:
    """Diameter upper bound for mu_k of a convex domain in dimension d.

    d = 2:             (2 j_{0,1} + pi (k-1))^2 / D^2
    d >= 3, k odd:     4 j_{d/2-1,(k+1)/2}^2 / D^2
    d >= 3, k even:    (j_{d/2-1,k/2} + j_{d/2-1,k/2+1})^2 / D^2
    """
    k = _validate_order_index(k)
    d = _validate_dimension(d)
    if not diameter > 0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    zeros = specfun.bessel_j_zeros(d / 2.0 - 1.0, _kroger_zeros(k, d))
    return _kroger_unit(k, d, zeros) / diameter**2


def _kroger_zeros(k: int, d: int) -> int:
    """How many zeros of J_{d/2-1} `_kroger_unit` reads."""
    return 1 if d == 2 else k // 2 + 1


def _kroger_unit(k: int, d: int, zeros) -> float:
    """kroger_upper(k, d, 1) from zeros[m - 1] = j_{d/2-1,m}."""
    if d == 2:
        return (2.0 * zeros[0] + math.pi * (k - 1)) ** 2
    if k % 2 == 1:
        j = zeros[(k + 1) // 2 - 1]
        return 4.0 * j * j
    return (zeros[k // 2 - 1] + zeros[k // 2]) ** 2


def c_upper(k: int, d: int) -> float:
    """Upper bound on the k-th ratio infimum: segment mu_k over the diameter
    upper bound.  The diameter cancels; c(k,3) = k^2/(k+1)^2 in closed form."""
    return _c_upper(k, kroger_upper(k, d, 1.0))


def _c_upper(k: int, kroger_unit: float) -> float:
    return math.pi**2 * k**2 / kroger_unit


def alpha_lower_nonsharp(k: int, d: int) -> float:
    """Non-sharp lower bounds available in two index families only:
    d = 2 (any k <= 1000) and k = 2 (any d >= 3)."""
    k = _validate_order_index(k)
    d = _validate_dimension(d)
    if d == 2:
        if k > 1000:
            raise ValueError(f"k={k} outside supported range for d=2 (k <= 1000)")
        j01 = specfun.bessel_j_zero(0.0, 1)
        return math.pi**2 / (2.0 * j01 + (k - 1) * math.pi) ** 2
    if k == 2:
        nu = (d - 2) / 2.0
        return math.pi**2 / (specfun.bessel_j_zero(nu, 1) + specfun.bessel_j_zero(nu, 2)) ** 2
    raise ValueError(
        f"no lower bound formula for (k={k}, d={d}); supported: d=2 with k<=1000, or k=2 with d>=3"
    )


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    d = _validate_dimension(d, d_min=1)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def polya_bound(k: int, d: int) -> float:
    """Conjectured bound 4 pi^2 k^(2/d) / omega_d^(2/d) for unit-volume mu_k."""
    k = _validate_order_index(k)
    d = _validate_dimension(d)
    return _polya(k, d, unit_ball_volume(d))


def _polya(k: int, d: int, omega: float) -> float:
    """polya_bound(k, d), given omega = unit_ball_volume(d)."""
    return 4.0 * math.pi**2 * k ** (2.0 / d) / omega ** (2.0 / d)


def emit_constant_table(k_max: int, d_max: int) -> list[ConstantRecord]:
    """Full grid of the constants above, ordered lexicographically by
    (name, k, d).

    Constants that do not depend on k are emitted at k = 1 only; the
    diameter bounds are evaluated at D = TABLE_DIAMETER.  A non-positive
    value raises ValueError naming its constant.
    """
    k_max = _validate_order_index(k_max)
    d_max = _validate_dimension(d_max)
    D = TABLE_DIAMETER
    dims = range(2, d_max + 1)
    grid = [(k, d) for k in range(1, k_max + 1) for d in dims]
    per_dim = [(1, d) for d in dims]
    # what the grid reads per dimension, evaluated once per dimension
    zeros = {d: specfun.bessel_j_zeros(d / 2.0 - 1.0, _kroger_zeros(k_max, d)) for d in dims}
    omega = {d: unit_ball_volume(d) for d in dims}
    u = {(k, d): _kroger_unit(k, d, zeros[d]) for k, d in grid}
    table = (
        ("alpha1_sharp", "pi^2 / (4 j_{d/2-1,1}^2)", per_dim, lambda k, d: alpha1_sharp(d)),
        ("alpha1_simple", "pi^2 / (2 d (d+4))", per_dim, lambda k, d: alpha1_simple(d)),
        (
            "alpha_2d_lower",
            "pi^2 / (j_{(d-2)/2,1} + j_{(d-2)/2,2})^2",
            [(2, d) for d in dims[1:]] if k_max >= 2 else [],
            alpha_lower_nonsharp,
        ),
        (
            "alpha_k2_lower",
            "pi^2 / (2 j_{0,1} + (k-1) pi)^2",
            [(k, 2) for k in range(1, min(k_max, 1000) + 1)],
            alpha_lower_nonsharp,
        ),
        (
            "c_upper",
            "pi^2 k^2 / (D^2 kroger_upper)",
            grid,
            lambda k, d: _c_upper(k, u[k, d]),
        ),
        ("funano_lower", "(1/92^2) / d^2", per_dim, lambda k, d: funano_lower(d)),
        # bit-identical to kroger_upper(k, d, D), which divides by D^2 last
        ("kroger_upper", f"diameter upper bound at D={D:g}", grid, lambda k, d: u[k, d] / D**2),
        (
            "payne_weinberger_lower",
            f"pi^2 / D^2 at D={D:g}",
            [(1, 2)],
            lambda k, d: payne_weinberger_lower(D),
        ),
        (
            "polya_bound",
            "4 pi^2 k^(2/d) / omega_d^(2/d)",
            grid,
            lambda k, d: _polya(k, d, omega[d]),
        ),
    )
    records = [
        ConstantRecord(name, k, d, value(k, d), formula)
        for name, formula, index, value in table
        for k, d in index
    ]
    for r in records:
        if not r.value > 0:
            raise ValueError(f"constant {r.name} must be positive, got {r.value}")
    return records
