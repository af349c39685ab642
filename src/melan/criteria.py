"""Scalar criteria: solvability, positivity, contraction and uniqueness checks.

Each check returns a ConditionReport carrying both sides of the inequality
and a signed relative margin, so callers can display how close a
configuration sits to the boundary instead of a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ConditionReport",
    "SineCheck",
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

    `margin` is (rhs - lhs) / max(|rhs|, tiny): positive when satisfied,
    with magnitude showing how much slack or violation there is.
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


def sigma(x: float) -> float:
    """3*x**3 / (6*x*cosh(x) + 6*x - 12*sinh(x) - x**3), for x > 0.

    The denominator starts at (3/20)*x**5, so the direct form cancels badly
    for small x and overflows for large x; a series below x = 0.05 and an
    exp(-x)-factored form above x = 650 keep full accuracy at every scale.
    The function decreases from +infinity (like 20/x**2) toward 0.
    """
    x = float(x)
    if not (x > 0.0 and np.isfinite(x)):
        raise ValueError(f"sigma requires x > 0, got {x}")
    if x < 0.05:
        x2 = x * x
        den = x2 * (
            3.0 / 20.0
            + x2 * (1.0 / 168.0 + x2 * (1.0 / 8640.0 + x2 / 739200.0))
        )
        return 3.0 / den
    if x <= 650.0:
        den = 6.0 * x * np.cosh(x) + 6.0 * x - 12.0 * np.sinh(x) - x**3
        return 3.0 * x**3 / den
    e = np.exp(-x)
    if e == 0.0:  # the value has underflowed too; x**3 would overflow past 5.6e102
        return 0.0
    den = (3.0 * x - 6.0) + (6.0 * x - x**3) * e + (3.0 * x + 6.0) * e * e
    return 3.0 * x**3 * e / den


def xi(x: float) -> float:
    """(x/2)*sinh(x) - cosh(x) + 1, for x >= 0.

    Starts at x**4/24, so small arguments use the series; otherwise the
    factored form (x-2)*exp(x)/4 - (x+2)*exp(-x)/4 + 1 is exact and only
    overflows when the value itself does.
    """
    x = float(x)
    if not (x >= 0.0 and np.isfinite(x)):
        raise ValueError(f"xi requires x >= 0, got {x}")
    if x < 0.1:
        x2 = x * x
        return x2 * x2 * (
            1.0 / 24.0
            + x2 * (1.0 / 360.0 + x2 * (1.0 / 13440.0 + x2 / 907200.0))
        )
    return (x - 2.0) * np.exp(x) / 4.0 - (x + 2.0) * np.exp(-x) / 4.0 + 1.0


def check_positivity(M: float, N: float, L: float) -> ConditionReport:
    """N <= 4*M*sigma(sqrt(M)*L)/L**3, the positivity condition.

    Under it (with N >= 0) the solution operator of the linear model maps
    nonnegative loads to nonnegative deflections, which is what the
    two-sided iteration needs to preserve ordering.
    """
    return _report("positivity", N, 4.0 * M * sigma(np.sqrt(M) * L) / L**3)


def check_smallness(M: float, N: float, L: float) -> ConditionReport:
    """|N| <= 8*M/L**3, the coupling bound that guarantees solvability.

    Since zeta < L**3/(12*M), this keeps |N*zeta| < 2/3, so the resolvent
    denominator 1 + N*zeta stays away from zero for either sign of N.
    """
    return _report("smallness", abs(N), 8.0 * M / L**3)


def check_uniqueness(a: float, b: float, c: float, M: float, N: float,
                     L: float) -> ConditionReport:
    """Strict uniqueness condition for the nonlinear model within a bracket.

    L**3*N/4 + M - 4/L**2 < a + (L**3/4)*c, where (M, N) are the
    linearization coefficients of a bracket whose lower bound is zero.
    """
    lhs = L**3 * N / 4.0 + M - 4.0 / L**2
    rhs = a + (L**3 / 4.0) * c
    return _report("uniqueness", lhs, rhs, strict=True)


def contraction_rho(a: float, b: float, c: float, M: float, N: float, L: float) -> float:
    """Contraction factor of the two-sided iteration started from a bracket.

    rho = L*tanh(mu*L/2)/(2*mu) * [(M - a) + (L**3/4)*(N - c)], with
    mu = sqrt(M), for a bracket whose lower bound is zero.  Values below 1
    certify geometric shrinking of the bracket.
    """
    mu = np.sqrt(M)
    lead = L * np.tanh(0.5 * mu * L) / (2.0 * mu)
    return float(lead * ((M - a) + (L**3 / 4.0) * (N - c)))


@dataclass(frozen=True)
class SineCheck:
    """The sine bracket's linearization coefficients and its positivity report."""

    M: float
    N: float
    positivity: ConditionReport


def check_sine_conditions(a: float, b: float, c: float, L: float, lam: float) -> SineCheck:
    """Check the condition under which lam*sin(pi*x/L) brackets the solution.

    The induced linearization coefficients are M = a + 2*b*lam*L/pi and
    N = c + b*lam*pi**2/L**2 (the sine's own integral and curvature); this
    is the one place they are computed.  The reported condition is the
    positivity of the linear solution operator; uniqueness within the
    bracket is check_uniqueness at these (M, N).

    lam = 0 is the degenerate flat bracket: M = a, N = c.  An overflowing
    M or N raises ConfigError.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    M = a + 2.0 * b * lam * L / np.pi
    N = c + b * lam * np.pi**2 / L**2
    for name, value in (("M", M), ("N", N)):
        if not np.isfinite(value):
            raise ConfigError(f"the sine bracket's coefficient {name} = {value} overflows "
                              f"(a = {a:.6g}, b = {b:.6g}, lam = {lam:.6g}, L = {L:.6g})")
    return SineCheck(M=float(M), N=float(N), positivity=check_positivity(M, N, L))
