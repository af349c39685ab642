"""Green kernels for the beam operator y'''' - M y'' on [0, L] with hinged ends.

The fourth-order operator factors through -d2/dx2 and -d2/dx2 + M, so its
Green function is a scaled difference of the two second-order kernels:

    green_g(t, s) = (green_g0(t, s) - green_gm(t, s)) / M

Everything here is written in forms that stay finite and fully accurate for
stiff parameters: ratios of hyperbolic sines are evaluated through expm1
products so that no intermediate exceeds exp(0), and quantities that suffer
subtractive cancellation for small sqrt(M)*L switch to explicit series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelParams",
    "sinh_ratio",
    "sinh_frac",
    "green_g0",
    "green_gm",
    "green_g",
    "theta",
    "gm_row_integral",
    "psi",
    "zeta",
]

# Relative slack allowed when checking that abscissae lie inside [0, L].
_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the shifted beam operator: coefficient M > 0, span L > 0."""

    M: float
    L: float
    mu: float = field(init=False)  # derived: sqrt(M)
    muL: float = field(init=False)  # derived: sqrt(M) * L

    def __post_init__(self):
        if not (self.M > 0.0 and math.isfinite(self.M)):
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        object.__setattr__(self, "mu", float(np.sqrt(self.M)))
        object.__setattr__(self, "muL", float(self.mu * self.L))


def _clip_domain(x, length: float) -> np.ndarray:
    """Validate that x lies in [0, length] up to roundoff slack, then clip."""
    x = np.asarray(x, dtype=float)
    slack = _DOMAIN_SLACK * length
    if np.any(x < -slack) or np.any(x > length + slack):
        raise ValueError(f"abscissa outside [0, {length}]")
    return np.clip(x, 0.0, length)


def sinh_ratio(a, b, c):
    """sinh(a)*sinh(b)/sinh(c) for a, b >= 0 and c > 0, without overflow.

    Uses sinh(t) = -exp(t)*expm1(-2t)/2 so only exp(a + b - c) appears; for
    the kernel use cases a + b <= c, keeping every factor bounded by 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = float(c)
    if c <= 0.0:
        raise ValueError(f"sinh_ratio requires c > 0, got {c}")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("sinh_ratio requires a, b >= 0")
    num = np.expm1(-2.0 * a) * np.expm1(-2.0 * b)
    den = -2.0 * np.expm1(-2.0 * c)
    return np.exp(a + b - c) * num / den


def sinh_frac(a, c):
    """sinh(a)/sinh(c) for 0 <= a, c > 0, overflow-free; exactly 1 at a == c."""
    a = np.asarray(a, dtype=float)
    c = float(c)
    if c <= 0.0:
        raise ValueError(f"sinh_frac requires c > 0, got {c}")
    if np.any(a < 0.0):
        raise ValueError("sinh_frac requires a >= 0")
    return np.exp(a - c) * np.expm1(-2.0 * a) / np.expm1(-2.0 * c)


def green_g0(t, s, length: float):
    """Green function of -d2/dx2 with zero ends: min(t,s)*(L - max(t,s))/L."""
    t = _clip_domain(t, length)
    s = _clip_domain(s, length)
    lo = np.minimum(t, s)
    hi = np.maximum(t, s)
    return lo * (length - hi) / length


def green_gm(t, s, params: KernelParams):
    """Green function of -d2/dx2 + M with zero ends.

    green_gm(t, s) = sinh(mu*min)*sinh(mu*(L - max))/(mu*sinh(mu*L)).
    """
    t = _clip_domain(t, params.L)
    s = _clip_domain(s, params.L)
    lo = np.minimum(t, s)
    hi = np.maximum(t, s)
    return sinh_ratio(params.mu * lo, params.mu * (params.L - hi), params.muL) / params.mu


def green_g(t, s, params: KernelParams):
    """Green function of the hinged beam operator d4/dx4 - M d2/dx2.

    Partial fractions of the factored operator give green_g = (green_g0 - green_gm)/M exactly.
    The difference loses relative accuracy only when mu*L is far below 1;
    for mu*L >= 0.05 the result carries at least 12 significant digits.
    """
    return (green_g0(t, s, params.L) - green_gm(t, s, params)) / params.M


def theta(s, params: KernelParams):
    """4*sinh(mu*s/2)*sinh(mu*(L-s)/2)*sinh(mu*L/2), evaluated as an exact product.

    theta(s) = 0.5*exp(mu*L)*(1 - exp(-mu*s))*(1 - exp(-mu*(L-s)))*(1 - exp(-mu*L)),
    which is cancellation-free at every scale (each factor is computed with
    expm1).  The value itself grows like exp(mu*L)/2, so it overflows for
    mu*L above roughly 709; the bounded ratios below are what solvers use.
    """
    s = _clip_domain(s, params.L)
    mu = params.mu
    prod = (
        np.expm1(-mu * s)
        * np.expm1(-mu * (params.L - s))
        * np.expm1(-params.muL)
    )
    return -0.5 * np.exp(params.muL) * prod


def _const_profile(x, params: KernelParams):
    """Solution of -v'' + M v = M with zero ends: 1 - cosh(mu*(x-L/2))/cosh(mu*L/2).

    Evaluated as (1 - exp(-mu*x))*(1 - exp(-mu*(L-x)))/(1 + exp(-mu*L)), a
    bounded product with no cancellation; x must lie in [0, L].
    """
    mu = params.mu
    num = np.expm1(-mu * x) * np.expm1(-mu * (params.L - x))
    return num / (1.0 + np.exp(-params.muL))


def _row_integrals(x, params: KernelParams):
    """(psi(x), gm_row_integral(x)) from one _const_profile, for x already in [0, L]."""
    const = _const_profile(x, params)
    M, L, z = params.M, params.L, params.muL
    if z >= 0.05:
        return x * (L - x) / (2.0 * M) - const / M**2, const / M
    d2 = (params.mu * (2.0 * x - L)) ** 2
    z2 = z * z
    poly = (
        (5.0 * z2 - d2) / 384.0
        + (14.0 * z2**2 - z2 * d2 - d2**2) / 46080.0
        + (27.0 * z2**3 - z2**2 * d2 - z2 * d2**2 - d2**3) / 10321920.0
    )
    return 4.0 * x * (L - x) * poly / (M * np.cosh(0.5 * z)), const / M


def gm_row_integral(x, params: KernelParams):
    """Integral of green_gm(x, s) over s in [0, L], in closed form."""
    return _const_profile(_clip_domain(x, params.L), params) / params.M


def psi(x, params: KernelParams):
    """Integral of g(x, s) over s in [0, L].

    Closed form x*(L-x)/(2M) - gm_row_integral(x)/M, replaced below
    mu*L = 0.05 by a series in mu*L and mu*(2x - L) that avoids the
    subtractive cancellation of the closed form.
    """
    return _row_integrals(_clip_domain(x, params.L), params)[0]


def _gap_to_tanh(z: float) -> float:
    """z - 2*tanh(z/2), with a series below z = 0.1 to defeat cancellation."""
    if z >= 0.1:
        return z - 2.0 * np.tanh(0.5 * z)
    z2 = z * z
    return z * z2 * (
        1.0 / 12.0
        + z2 * (-1.0 / 120.0 + z2 * (17.0 / 20160.0 - z2 * 31.0 / 362880.0))
    )


def zeta(params: KernelParams) -> float:
    """Double integral of g over [0, L]^2.

    Equals (z^3 - 12 z + 24 tanh(z/2))/(12 M^2 mu) with z = mu*L; below
    z = 0.25 the bracket is evaluated by its series to preserve accuracy.
    """
    z = params.muL
    if z >= 0.25:
        bracket = z**3 - 12.0 * z + 24.0 * np.tanh(0.5 * z)
    else:
        z2 = z * z
        bracket = z2 * z2 * z * (
            1.0 / 10.0
            + z2 * (
                -17.0 / 1680.0
                + z2 * (
                    31.0 / 30240.0
                    + z2 * (
                        -691.0 / 6652800.0
                        + z2 * (5461.0 / 518918400.0 - z2 * 929569.0 / 871796224000.0)
                    )
                )
            )
        )
    return bracket / (12.0 * params.M**2 * params.mu)
