"""Green kernels for the beam operator y'''' - M y'' on [0, L] with hinged ends.

The fourth-order operator factors through -d2/dx2 and -d2/dx2 + M, so its
Green function is a scaled difference of the two second-order kernels:

    green_g(t, s) = (green_g0(t, s) - green_gm(t, s)) / M

Everything here is written in forms that stay finite and fully accurate for
stiff parameters: ratios of hyperbolic sines are evaluated through expm1
products so that no intermediate exceeds exp(0), and quantities that suffer
subtractive cancellation for small sqrt(M)*L switch to explicit series.
zeta, and the row integrals below sqrt(M)*L = 0.05, are a power of L times
a function of z = sqrt(M)*L, the power applied last, so they over- or
underflow only when the value itself does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelParams",
    "sinh_ratio",
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
        object.__setattr__(self, "mu", math.sqrt(self.M))
        object.__setattr__(self, "muL", float(self.mu * self.L))


def _product(*factors) -> float:
    """Product of base**power over (base, power) pairs (int power; a negative one divides).

    Bases enter as math.frexp mantissas, so the rounding is the plain
    left-to-right product's, and the result is inf or 0 only if the value is.
    """
    x, e = 1.0, 0
    for base, power in factors:
        m, k = math.frexp(base)
        # x stays within 2**(sum of |power|) of 1
        x = x * m if power == 1 else x * m**power if power > 0 else x / m**-power
        e += k * power
    try:
        return math.ldexp(x, e)
    except OverflowError:  # beyond the float range
        return x * math.inf


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


# Decorates a function whose callers check its results: numpy does not warn inside it.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def _row_integrals(x, params: KernelParams):
    """(psi(x), gm_row_integral(x)) for x in [0, L]; unwarned inf or NaN past the float range.

    From z = sqrt(M)*L = 0.05 up, gm_row = _const_profile/M and
    psi = x*((L - x)/(2M)) - gm_row/M, whose terms leave the float range
    only with psi.  Below z = 0.05 that cancels, and psi = L**4 Psi
    with Psi a series in z**2 and w = (2x/L - 1)**2, and gm_row = L**2 G with
    G = x*(L - x)/(2 L**2) - z**2 Psi, in which nothing cancels.
    """
    M, L, z = params.M, params.L, params.muL
    if z >= 0.05:
        const = _const_profile(x, params)
        gm_row = const / M
        return x * ((L - x) / (2.0 * M)) - gm_row / M, gm_row
    u = x / L
    v, w, z2 = 4.0 * u * (1.0 - u), (2.0 * u - 1.0) ** 2, z * z
    Psi = v / math.cosh(0.5 * z) * (
        (5.0 - w) / 384.0
        + z2 * (14.0 - w * (1.0 + w)) / 46080.0
        + z2 * z2 * (27.0 - w * (1.0 + w * (1.0 + w))) / 10321920.0
    )
    return Psi * (L * L) * (L * L), (v / 8.0 - z2 * Psi) * (L * L)


def gm_row_integral(x, params: KernelParams):
    """Integral of green_gm(x, s) over s in [0, L] (see _row_integrals)."""
    return _row_integrals(_clip_domain(x, params.L), params)[1]


def psi(x, params: KernelParams):
    """Integral of g(x, s) over s in [0, L]: x*(L-x)/(2M) - gm_row_integral(x)/M."""
    return _row_integrals(_clip_domain(x, params.L), params)[0]


def _zeta_factors(mu: float, L: float):
    """Z(z) = zeta/L**5 at z = mu*L as _product factors; Z = (z**3 - 12z + 24 tanh(z/2))/(12 z**5).

    Below z = 3, ten levels of Lambert's continued fraction tanh(u) =
    u/(1 + u**2/(3 + u**2/(5 + ...))), u = z/2, all positive; above, w/z**2,
    w = (1 - 12/z**2 + 24 tanh(z/2)/z**3)/12 (cancels under threefold).
    """
    z = mu * L
    if z < 3.0:
        u2 = 0.25 * z * z
        e = 21.0
        for k in range(19, 3, -2):
            e = k + u2 / e
        # e = 5 + u2/(7 + ...) and 3 + u2/e the level above it
        return (((1.0 + e) / (48.0 * e * (3.0 + u2 / e + u2)), 1),)
    z2 = z * z
    w = (1.0 - 12.0 / z2 + 24.0 * math.tanh(0.5 * z) / (z2 * z)) / 12.0
    return (w, 1), (mu, -2), (L, -2)  # z**-2 as factors, which cannot overflow


def zeta(params: KernelParams) -> float:
    """Double integral of g over [0, L]^2: L**5 * Z(sqrt(M)*L), inf or 0 only if its value is."""
    return _product(*_zeta_factors(params.mu, params.L), (params.L, 5))
