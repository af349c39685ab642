"""The scale-free kernel and criterion functions against mpmath.

zeta = L**5 * Z(z), the positivity bound is (4/L**5) * z**2 sigma(z), and
below z = 0.05 psi = L**4 * Psi(z, x/L) and gm_row_integral = L**2 * G(z, x/L),
with z = sqrt(M)*L.  Each function of z is checked here against its own
closed form at 60 to 400 digits, over z in [1e-300, 1e3] and densely
around each switch between a series and a closed form.
"""

import mpmath as mp
import numpy as np
import pytest

from melan.criteria import _inverse_z2sigma
from melan.kernel import KernelParams, _product, _zeta_factors, gm_row_integral, psi

TINY = 2.2250738585072014e-308  # the smallest normal float


def _scan(switches):
    """log-spaced z over [1e-300, 1e3], plus a dense scan 5% either side of each switch."""
    zs = list(np.logspace(-300, 3, 400))
    for s in switches:
        zs.extend(np.linspace(0.95 * s, 1.05 * s, 301))
    return [float(z) for z in zs]


def _digits(z: float) -> int:
    # the closed forms cancel like z**-5 below z = 1, so ask for that many more digits
    return 40 + max(0, int(-5 * np.log10(z)))


def mp_Z(z: float):
    with mp.workdps(_digits(z)):
        z = mp.mpf(z)
        return (z**3 - 12 * z + 24 * mp.tanh(z / 2)) / (12 * z**5)


def mp_z2sigma(z: float):
    with mp.workdps(_digits(z)):
        z = mp.mpf(z)
        return 3 * z**5 / (6 * z * mp.cosh(z) + 6 * z - 12 * mp.sinh(z) - z**3)


def _agrees(got: float, ref) -> bool:
    # relative, or at the spacing of the subnormals where the value is below them
    return abs(mp.mpf(got) - ref) <= 1e-14 * abs(ref) + 5e-324


def test_Z_is_accurate_at_every_scale():
    bad = [z for z in _scan([3.0]) if not _agrees(_product(*_zeta_factors(z, 1.0)), mp_Z(z))]
    assert not bad, f"Z off by more than 1e-14 at z = {bad[:5]}"


def test_z2sigma_is_accurate_at_every_scale():
    bad = []
    for z in _scan([3.0, 650.0]):
        got = _product(*((base, -power) for base, power in _inverse_z2sigma(z)))
        if not _agrees(got, mp_z2sigma(z)):
            bad.append(z)
    assert not bad, f"z**2*sigma off by more than 1e-14 at z = {bad[:5]}"


def mp_profiles(z: float, u):
    """(Psi, G) at z and the positions u in [0, 1]: psi and gm_row_integral for L = 1."""
    with mp.workdps(_digits(z)):
        z, M = mp.mpf(z), mp.mpf(z) ** 2
        out = []
        for x in u:
            x = mp.mpf(float(x))
            const = 1 - mp.cosh(z * (x - mp.mpf(1) / 2)) / mp.cosh(z / 2)
            out.append((x * (1 - x) / (2 * M) - const / M**2, const / M))
        return [float(p) for p, _ in out], [float(g) for _, g in out]


@pytest.mark.parametrize("L", [1.0, 1e-60, 1e60, 3.5e76])
def test_psi_and_gm_row_are_L_powers_of_functions_of_z(L):
    # both within 2e-12 of their largest value, on both sides of the series
    # switch at z = 0.05 and wherever psi = L**4 * Psi is finite; at L = 3.5e76
    # M*M is subnormal from z = 0.05 (M = 2e-156) to 4.3, so the closed form
    # must not divide by it
    u = np.linspace(0.0, 1.0, 11)
    zs = [float(z) for z in np.logspace(-150, 2.8, 40)]
    zs += [0.049, 0.0499999, 0.05, 0.0500001, 0.051]
    for z in zs:
        M = (z / L) ** 2
        if M < TINY:  # a subnormal M cannot carry z
            continue
        params = KernelParams(M, L)
        Psi_ref, G_ref = mp_profiles(params.muL, u)
        Psi = psi(u * L, params) / L**4
        G = gm_row_integral(u * L, params) / L**2
        assert np.max(np.abs(Psi - Psi_ref)) <= 2e-12 * max(np.abs(Psi_ref)), z
        assert np.max(np.abs(G - G_ref)) <= 2e-12 * max(np.abs(G_ref)), z
