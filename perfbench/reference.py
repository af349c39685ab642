"""Exact solutions of the linear and nonlinear Melan models, in mpmath.

Nothing here imports melan.  For a load p(x) = c0 + c1*x + A*sin(k*x),
k = pi/L, the linear model y'''' - M*y'' + N*I = p (I = integral of y,
hinged ends) reduces to one scalar equation in I, because u = y'' solves
u'' - M*u = p - N*I with zero ends:

    I = r0*Z0(M) + c1*Z1(M) + A*Z2(M),    r0 = c0 - N*I,

with Z0 = L^3/(12M) + (2T - L)/M^2 (this is zeta), Z1 = L^4/(24M) +
L*(T - L/2)/M^2, Z2 = (2L/pi)/(k^2*(k^2 + M)) and T = tanh(mu*L/2)/mu.
The nonlinear model y'''' - (a + b*I)*y'' + c*I = p is the same equation
with M = a + b*I and c in place of N; its root is bracketed by
[0, Lambda(a)] because every Z decreases in M.  Once I is known, y and y''
follow in closed form at any abscissa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import mpmath as mp

# Working precision.  The soft end of the linear workload (sqrt(M)*L = 0.01)
# cancels about eight digits in zeta and y; forty leave more than thirty.
DPS = 40


@dataclass(frozen=True)
class Exact:
    """Exact integral of the solution and its samples at the check abscissae."""

    integral: float
    w: Tuple[float, ...]
    wpp: Tuple[float, ...]


def _moments(M, L):
    mu = mp.sqrt(M)
    T = mp.tanh(mu * L / 2) / mu
    k = mp.pi / L
    Z0 = L**3 / (12 * M) + (2 * T - L) / M**2
    Z1 = L**4 / (24 * M) + L * (T - L / 2) / M**2
    Z2 = (2 * L / mp.pi) / (k**2 * (k**2 + M))
    return Z0, Z1, Z2


def _profile(xs, M, L, r0, c1, amp):
    """y and y'' of the hinged beam u'' - M*u = r0 + c1*x + amp*sin(pi*x/L), y'' = u."""
    mu = mp.sqrt(M)
    k = mp.pi / L
    sh = mp.sinh(mu * L)
    q0, qL = r0, r0 + c1 * L
    w, wpp = [], []
    for xf in xs:
        x = mp.mpf(xf)
        s_x = mp.sinh(mu * x) / sh
        s_r = mp.sinh(mu * (L - x)) / sh
        sn = mp.sin(k * x)
        y = (
            -r0 * (x * x - L * x) / 2
            - c1 * (x**3 - L * L * x) / 6
            + (qL * (s_x - x / L) + q0 * (s_r - (L - x) / L)) / M
        ) / M + amp * sn / (k**2 * (k**2 + M))
        ypp = (-(r0 + c1 * x) + qL * s_x + q0 * s_r) / M - amp * sn / (k**2 + M)
        w.append(float(y))
        wpp.append(float(ypp))
    return tuple(w), tuple(wpp)


def linear_exact(M, N, L, xs: Sequence[float], c0=0.0, c1=0.0, amp=0.0) -> Exact:
    """Exact solution of y'''' - M*y'' + N*I = c0 + c1*x + amp*sin(pi*x/L)."""
    with mp.workdps(DPS):
        M, N, L = mp.mpf(M), mp.mpf(N), mp.mpf(L)
        c0, c1, amp = mp.mpf(c0), mp.mpf(c1), mp.mpf(amp)
        Z0, Z1, Z2 = _moments(M, L)
        integral = (c0 * Z0 + c1 * Z1 + amp * Z2) / (1 + N * Z0)
        w, wpp = _profile(xs, M, L, c0 - N * integral, c1, amp)
        return Exact(float(integral), w, wpp)


def melan_exact(a, b, c, L, xs: Sequence[float], p0=0.0, amp=0.0) -> Exact:
    """Exact solution of y'''' - (a + b*I)*y'' + c*I = p0 + amp*sin(pi*x/L), p0, amp >= 0."""
    with mp.workdps(DPS):
        a, b, c, L = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(L)
        p0, amp = mp.mpf(p0), mp.mpf(amp)

        def f(i):
            Z0, _, Z2 = _moments(a + b * i, L)
            return i - (p0 - c * i) * Z0 - amp * Z2

        Z0a, _, Z2a = _moments(a, L)
        hi = p0 * Z0a + amp * Z2a
        integral = mp.findroot(f, (mp.mpf(0), hi), solver="anderson")
        w, wpp = _profile(xs, a + b * integral, L, p0 - c * integral, 0, amp)
        return Exact(float(integral), w, wpp)


def cable_length(L: float, qh: float) -> float:
    """Arc length of the parabolic cable with slope qh*(L/2 - x)."""
    with mp.workdps(DPS):
        t = mp.mpf(L) * qh / 2
        return float(L / 2 * mp.sqrt(1 + t * t) + mp.asinh(t) / qh)


def bridge_coefficients(L, EI, EcAc, n, H, Lc: Optional[float] = None):
    """(a, b, c, Lc) from physical data: q/H = 8n/L, a = H/EI, b = (q/H)(EcAc/EI)/Lc, c = (q/H)b."""
    qh = 8.0 * n / L
    if Lc is None:
        Lc = cable_length(L, qh)
    a = H / EI
    b = qh * (EcAc / EI) / Lc
    return a, b, qh * b, Lc


def sigma(x: float) -> float:
    """3x^3/(6x*cosh x + 6x - 12 sinh x - x^3), the positivity kernel bound."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        return float(3 * x**3 / (6 * x * mp.cosh(x) + 6 * x - 12 * mp.sinh(x) - x**3))


def positivity_bound(M: float, L: float) -> float:
    """Largest N keeping the linear solution operator sign-preserving: 4M*sigma(sqrt(M)L)/L^3."""
    return 4.0 * M * sigma(M**0.5 * L) / L**3


def load_envelope(L, EI, EcAc, n, H, Lc) -> Tuple[float, float]:
    """(A, B) with 0 <= p <= A*sin(pi*x/L) + B admissible for the L/100 sine bracket."""
    pi = float(mp.pi)
    A = pi**4 * EI / (100.0 * L**3) + H * pi**2 / (100.0 * L) + (n * pi / 625.0) * EcAc / Lc
    B = (32.0 * n**2 / (25.0 * pi)) * EcAc / Lc
    return A, B
