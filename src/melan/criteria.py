"""Scalar criteria: solvability, positivity, contraction and uniqueness checks.

Each check returns a ConditionReport carrying both sides of the inequality
and a signed relative margin, so callers can display how close a
configuration sits to the boundary instead of a bare boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError
from .kernel import _product

__all__ = [
    "ConditionReport",
    "sigma",
    "xi",
    "check_positivity",
    "check_smallness",
    "check_uniqueness",
    "contraction_rho",
    "check_sine_conditions",
]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one inequality check: lhs <= rhs (or < when strict).

    `margin` is (rhs - lhs) / max(|rhs|, 1e-30): positive when satisfied,
    with magnitude showing how much slack or violation there is.  Positivity
    and smallness, whose bound rhs can leave the float range, take both from
    lhs/rhs formed scale-free: satisfied is lhs/rhs <= 1, margin 1 - lhs/rhs.
    """

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    strict: bool = False


def _report(name: str, lhs: float, rhs: float, strict: bool = False) -> ConditionReport:
    """The one place that turns an inequality's two sides into a report."""
    satisfied = bool(lhs < rhs) if strict else bool(lhs <= rhs)
    margin = (rhs - lhs) / max(abs(rhs), 1e-30)
    return ConditionReport(name, float(lhs), float(rhs), satisfied, float(margin), strict)


# 1/(x**2*sigma(x)) = sum_j (4j + 6)/(2j + 5)! x**(2j), highest term first
_INVERSE_SERIES = tuple((4 * j + 6) / math.factorial(2 * j + 5) for j in reversed(range(12)))


def _inverse_z2sigma(x: float):
    """1/(x**2*sigma(x)), rising from 1/20 like exp(x)/x**4, as _product factors.

    Below x = 3 the series, whose twelve terms are all positive; then the
    direct form, which cancels less than fourfold; past x = 650
    (1 - 2/x) x**-4 exp(x/8)**8.
    """
    if x < 3.0:
        x2, q = x * x, 0.0
        for coef in _INVERSE_SERIES:
            q = coef + x2 * q
        return ((q, 1),)
    if x <= 650.0:
        den = 6.0 * x * math.cosh(x) + 6.0 * x - 12.0 * math.sinh(x) - x**3
        return ((den / (3.0 * x**5), 1),)
    return ((1.0 - 2.0 / x, 1), (x, -4), (math.exp(x / 8.0) if x < 5600.0 else math.inf, 8))


def sigma(x: float) -> float:
    """3*x**3 / (6*x*cosh(x) + 6*x - 12*sinh(x) - x**3), for x > 0 (_inverse_z2sigma).

    Decreases from +infinity (like 20/x**2, so inf below 3.3e-154) toward 0.
    """
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"sigma requires x > 0, got {x}")
    return _product(*((base, -power) for base, power in _inverse_z2sigma(x)), (x, -2))


# xi(x)/x**4 = sum_j (j + 1)/(2j + 4)! x**(2j), highest term first
_XI_SERIES = tuple((j + 1) / math.factorial(2 * j + 4) for j in reversed(range(12)))


def xi(x: float) -> float:
    """(x/2)*sinh(x) - cosh(x) + 1, for x >= 0.

    Starts at x**4/24.  Below x = 2 the series, whose twelve terms are all
    positive; then the factored form (x-2)*exp(x)/4 - (x+2)*exp(-x)/4 + 1,
    which cancels less than twofold and only overflows when the value
    itself does.
    """
    x = float(x)
    if not (x >= 0.0 and np.isfinite(x)):
        raise ValueError(f"xi requires x >= 0, got {x}")
    if x < 2.0:
        x2, q = x * x, 0.0
        for coef in _XI_SERIES:
            q = coef + x2 * q
        return x2 * x2 * q
    return (x - 2.0) * np.exp(x) / 4.0 - (x + 2.0) * np.exp(-x) / 4.0 + 1.0


def check_positivity(M: float, N: float, L: float) -> ConditionReport:
    """N <= 4*M*sigma(sqrt(M)*L)/L**3, the positivity condition.

    Under it (with N >= 0) the solution operator of the linear model maps
    nonnegative loads to nonnegative deflections, which is what the
    two-sided iteration needs to preserve ordering.  The bound is
    (4/L**5)*z**2*sigma(z), z = sqrt(M)*L: verdict and margin come from the
    ratio N*L**5/(4*z**2*sigma(z)), finite even where the bound (rhs) is not.
    """
    inverse = _inverse_z2sigma(math.sqrt(M) * L)
    ratio = _product((N, 1), (4.0, -1), (L, 5), *inverse) if N else 0.0
    bound = _product((4.0, 1), (L, -5), *((base, -power) for base, power in inverse))
    return ConditionReport("positivity", float(N), bound, ratio <= 1.0, 1.0 - ratio)


def check_smallness(M: float, N: float, L: float) -> ConditionReport:
    """|N| <= 8*M/L**3 = 8*z**2/L**5, the coupling bound that guarantees solvability.

    Since zeta < L**3/(12*M), this keeps |N*zeta| < 2/3, so the resolvent
    denominator 1 + N*zeta stays away from zero for either sign of N.
    Verdict and margin come from the ratio |N|*L**3/(8*M), as in positivity.
    """
    ratio = _product((abs(N), 1), (8.0, -1), (L, 3), (M, -1))
    bound = _product((8.0, 1), (M, 1), (L, -3))
    return ConditionReport("smallness", float(abs(N)), bound, ratio <= 1.0, 1.0 - ratio)


def check_uniqueness(a: float, b: float, c: float, M: float, N: float,
                     L: float) -> ConditionReport:
    """Strict uniqueness condition for the nonlinear model within a bracket.

    L**3*N/4 + M - 4/L**2 < a + (L**3/4)*c, where (M, N) are the
    linearization coefficients of a bracket whose lower bound is zero.
    """
    lhs = _product((L, 3), (N, 1), (4.0, -1)) + M - _product((4.0, 1), (L, -2))
    rhs = a + _product((L, 3), (4.0, -1), (c, 1))
    return _report("uniqueness", lhs, rhs, strict=True)


def contraction_rho(a: float, b: float, c: float, M: float, N: float, L: float) -> float:
    """Contraction factor of the two-sided iteration started from a bracket.

    rho = L*tanh(mu*L/2)/(2*mu) * [(M - a) + (L**3/4)*(N - c)], with
    mu = sqrt(M), for a bracket whose lower bound is zero.  Values below 1
    certify geometric shrinking of the bracket.
    """
    mu = math.sqrt(M)
    lead = L * float(np.tanh(0.5 * mu * L)) / (2.0 * mu)
    return lead * ((M - a) + _product((L, 3), (4.0, -1), (N - c, 1)))


def check_sine_conditions(a: float, b: float, c: float, L: float,
                          lam: float) -> Tuple[float, float]:
    """The linearization coefficients (M, N) of the bracket lam*sin(pi*x/L).

    M = a + 2*b*lam*L/pi and N = c + b*lam*pi**2/L**2 (the sine's own
    integral and curvature), returned as Python floats; this is the one
    place they are computed.  The bracket's conditions are checked at these
    values: positivity by check_positivity(M, N, L), uniqueness within the
    bracket by check_uniqueness.  lam = 0 is the flat bracket M = a, N = c.
    An M or N whose value overflows raises ConfigError.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    M = a + _product((2.0, 1), (b, 1), (lam, 1), (L, 1), (np.pi, -1))
    N = c + _product((b, 1), (lam, 1), (np.pi, 2), (L, -2))
    for name, value in (("M", M), ("N", N)):
        if not math.isfinite(value):
            raise ConfigError(f"the sine bracket's coefficient {name} = {value} overflows "
                              f"(a = {a:.6g}, b = {b:.6g}, lam = {lam:.6g}, L = {L:.6g})")
    return M, N
