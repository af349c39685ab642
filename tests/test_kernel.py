"""Green-function building blocks: closed forms, identities, and stability.

Reference values are computed with mpmath at 50 significant digits from the
defining formulas, so every comparison here is against an independent
evaluation path, not against the implementation itself.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melan import (
    KernelParams,
    gm_row_integral,
    green_g,
    green_g0,
    green_gm,
    psi,
    sinh_ratio,
    theta,
    xi,
    zeta,
)
from melan.quadrature import simpson_weights, uniform_grid

mp.mp.dps = 50


def mp_theta(s, M, L):
    M = mp.mpf(M)
    mu = mp.sqrt(M)
    return mp.sinh(mu * L) - mp.sinh(mu * (L - s)) - mp.sinh(mu * s)


def mp_psi(x, M, L):
    M = mp.mpf(M)
    return (L * x - x ** 2) / (2 * M) - mp_theta(x, M, L) / (
        M ** 2 * mp.sinh(mp.sqrt(M) * L)
    )


def mp_zeta(M, L):
    M = mp.mpf(M)
    z = mp.sqrt(M) * L
    num = z ** 3 * mp.sinh(z) + 24 * (mp.cosh(z) - 1) - 12 * z * mp.sinh(z)
    return num / (12 * M ** 2 * mp.sqrt(M) * mp.sinh(z))


# ---------------------------------------------------------------------------
# KernelParams and sinh_ratio


def test_kernel_params_derived_quantities():
    kp = KernelParams(M=0.25, L=2.0)
    assert kp.mu == 0.5
    assert kp.muL == 1.0


def test_kernel_params_rejects_bad_input():
    with pytest.raises(Exception):
        KernelParams(M=-1.0, L=2.0)
    with pytest.raises(Exception):
        KernelParams(M=1.0, L=0.0)


def test_kernel_params_derived_quantities_are_not_arguments():
    # mu and muL always come from M and L; passing one is an error, not a
    # value silently replaced
    with pytest.raises(TypeError):
        KernelParams(1.0, 2.0, mu=5.0)
    with pytest.raises(TypeError):
        KernelParams(1.0, 2.0, 1.0)


def test_sinh_ratio_moderate_arguments():
    got = sinh_ratio(1.0, 1.0, 2.0)
    ref = float(mp.sinh(1) ** 2 / mp.sinh(2))
    assert got == pytest.approx(ref, rel=1e-14)


def test_sinh_ratio_huge_arguments_do_not_overflow():
    # naive evaluation of sinh(300)**2 overflows double precision
    got = sinh_ratio(300.0, 300.0, 600.0)
    ref = float(mp.sinh(300) ** 2 / mp.sinh(600))
    assert np.isfinite(got)
    assert got == pytest.approx(ref, rel=1e-13)

    got = sinh_ratio(500.0, 150.0, 700.0)
    ref = float(mp.sinh(500) * mp.sinh(150) / mp.sinh(700))
    assert got == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# green_g0 — hinged-beam kernel


def test_green_g0_closed_form_values():
    assert green_g0(0.5, 0.5, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert green_g0(0.3, 0.7, 1.0) == pytest.approx(0.09, rel=1e-14)
    # t <= s branch: t*(L - s)/L
    assert green_g0(0.2, 0.9, 2.0) == pytest.approx(0.2 * 1.1 / 2.0, rel=1e-14)


def test_green_g0_vanishes_on_boundary():
    for s in (0.0, 0.3, 1.0, 2.0):
        assert green_g0(0.0, s, 2.0) == 0.0
        assert green_g0(2.0, s, 2.0) == 0.0


@given(
    t=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0),
    L=st.floats(0.5, 10.0),
)
def test_green_g0_symmetric_and_bounded(t, s, L):
    tv, sv = t * L, s * L
    a = green_g0(tv, sv, L)
    b = green_g0(sv, tv, L)
    assert a == pytest.approx(b, abs=1e-12)
    assert -1e-15 <= a <= L / 4.0 + 1e-12
    # diagonal dominance: row maximum sits on the diagonal
    assert a <= green_g0(tv, tv, L) + 1e-12


# ---------------------------------------------------------------------------
# green_gm — tension-modified kernel


def test_green_gm_midpoint_identity():
    # at t = s = L/2 the closed form collapses to tanh(mu*L/2)/(2*mu)
    for M, L in ((1.0, 2.0), (0.01, 0.5), (100.0, 10.0)):
        kp = KernelParams(M, L)
        want = np.tanh(kp.muL / 2.0) / (2.0 * kp.mu)
        assert green_gm(L / 2.0, L / 2.0, kp) == pytest.approx(want, rel=1e-13)


def test_green_gm_small_tension_limit_is_g0():
    kp = KernelParams(1e-10, 1.0)
    pts = np.linspace(0.05, 0.95, 7)
    for t in pts:
        for s in pts:
            a = green_gm(t, s, kp)
            b = green_g0(t, s, 1.0)
            assert a == pytest.approx(b, rel=1e-6)


def test_green_gm_bounds():
    rng = np.random.default_rng(11)
    for _ in range(6):
        M = float(rng.uniform(0.05, 50.0))
        L = float(rng.uniform(0.5, 6.0))
        kp = KernelParams(M, L)
        cap = np.tanh(kp.muL / 2.0) / (2.0 * kp.mu)
        pts = np.linspace(0.0, L, 41)
        for t in pts:
            diag_t = green_gm(t, t, kp)
            for s in pts:
                v = green_gm(t, s, kp)
                lower = kp.mu / np.sinh(kp.muL) * diag_t * green_gm(s, s, kp)
                assert lower - 1e-12 <= v <= diag_t + 1e-12
                assert v <= cap + 1e-12


@given(
    M=st.floats(0.01, 50.0),
    L=st.floats(0.5, 8.0),
    t=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0),
)
def test_green_gm_symmetric_nonnegative(M, L, t, s):
    kp = KernelParams(M, L)
    a = green_gm(t * L, s * L, kp)
    b = green_gm(s * L, t * L, kp)
    assert a == pytest.approx(b, abs=1e-13)
    assert a >= -1e-15


# ---------------------------------------------------------------------------
# green_g — composed kernel


def test_green_g_matches_quadrature_composition():
    # g(x, s) must equal the integral of g0(x, t) * gm(t, s) over t; Simpson
    # at 2001 points with sample points on the quadrature grid resolves the
    # derivative kinks of both factors exactly.
    tq = uniform_grid(2.0, 2001)
    wq = simpson_weights(2001, tq[1] - tq[0])
    idx = np.arange(200, 2000, 200)
    for M in (0.0025, 1.0, 225.0):
        kp = KernelParams(M, 2.0)
        for i in idx:
            for j in idx:
                quad = float(wq @ (green_g0(tq[i], tq, 2.0) * green_gm(tq, tq[j], kp)))
                assert green_g(tq[i], tq[j], kp) == pytest.approx(quad, rel=1e-8)


def test_green_g_nonnegative():
    for M in (0.01, 1.0, 100.0):
        for L in (0.5, 2.0, 10.0):
            kp = KernelParams(M, L)
            xs = np.linspace(0.0, L, 101)
            vals = green_g(xs[:, None], xs[None, :], kp)
            assert np.all(vals >= 0.0)


@given(
    M=st.floats(0.01, 50.0),
    L=st.floats(0.5, 8.0),
    t=st.floats(0.01, 0.99),
    s=st.floats(0.01, 0.99),
)
@settings(max_examples=50)
def test_green_g_symmetric(M, L, t, s):
    kp = KernelParams(M, L)
    a = green_g(t * L, s * L, kp)
    b = green_g(s * L, t * L, kp)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-18)


# ---------------------------------------------------------------------------
# theta


def test_theta_golden_value():
    got = theta(1.0, KernelParams(0.2, 2.0))
    assert got == pytest.approx(0.09400531078616622, rel=1e-13)
    assert got == pytest.approx(float(mp_theta(1.0, 0.2, 2.0)), rel=1e-13)


def test_theta_stable_across_scales():
    # the defining expression cancels catastrophically for small mu*L and
    # overflows for large mu*L; the implementation must stay at full
    # precision at every scale
    L = 2.0
    for muL in (1e-5, 1e-4, 1e-3, 0.04, 0.06, 0.2, 0.9, 5.0, 30.0, 300.0):
        M = (muL / L) ** 2
        got = theta(0.7, KernelParams(M, L))
        ref = float(mp_theta(0.7, M, L))
        assert got == pytest.approx(ref, rel=1e-12)


def test_theta_endpoints_vanish():
    kp = KernelParams(1.3, 2.0)
    assert theta(0.0, kp) == pytest.approx(0.0, abs=1e-15)
    assert theta(2.0, kp) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# psi


def test_psi_golden_value():
    got = float(psi(1.0, KernelParams(1.0, 2.0)))
    ref = float(0.5 - (mp.sinh(2) - 2 * mp.sinh(1)) / mp.sinh(2))
    assert got == pytest.approx(ref, rel=1e-13)
    assert got == pytest.approx(0.14805427366388546, rel=1e-13)


def test_psi_stable_across_scales():
    L = 2.0
    for muL in (1e-5, 1e-3, 0.04, 0.06, 0.9, 30.0, 300.0, 700.0):
        M = (muL / L) ** 2
        got = float(psi(0.7, KernelParams(M, L)))
        ref = float(mp_psi(mp.mpf("0.7"), M, L))
        assert got == pytest.approx(ref, rel=1e-12)


def test_psi_boundary_and_sign():
    kp = KernelParams(0.7, 3.0)
    assert float(psi(0.0, kp)) == pytest.approx(0.0, abs=1e-14)
    assert float(psi(3.0, kp)) == pytest.approx(0.0, abs=1e-13)
    xs = np.linspace(0.05, 2.95, 59)
    assert np.all(psi(xs, kp) > 0.0)


def test_psi_is_row_integral_of_green_g():
    rng = np.random.default_rng(7)
    for _ in range(3):
        L = float(rng.uniform(0.5, 8.0))
        M = (float(rng.uniform(0.05, 40.0)) / L) ** 2
        kp = KernelParams(M, L)
        s = uniform_grid(L, 4001)
        w = simpson_weights(4001, s[1] - s[0])
        x0 = float(rng.uniform(0.1, 0.9)) * L
        quad = float(w @ green_g(x0, s, kp))
        assert float(psi(x0, kp)) == pytest.approx(quad, rel=1e-10)


# ---------------------------------------------------------------------------
# zeta


def test_zeta_golden_values():
    assert zeta(KernelParams(1.0, 2.0)) == pytest.approx(0.18985497857819636, rel=1e-13)
    assert zeta(KernelParams(0.2, 2.0)) == pytest.approx(0.2466977453302932, rel=1e-13)
    for M, L in ((1.0, 2.0), (0.2, 2.0), (2.0, 3.0)):
        assert zeta(KernelParams(M, L)) == pytest.approx(float(mp_zeta(M, L)), rel=1e-13)


def test_zeta_stable_across_scales():
    L = 2.0
    for muL in (1e-5, 1e-3, 0.04, 0.06, 0.25, 0.9, 30.0, 300.0, 700.0):
        M = (muL / L) ** 2
        got = zeta(KernelParams(M, L))
        assert got == pytest.approx(float(mp_zeta(M, L)), rel=1e-12)


def test_zeta_is_integral_of_psi():
    for M, L in ((0.7, 2.0), (4.0, 3.0)):
        kp = KernelParams(M, L)
        s = uniform_grid(L, 4001)
        w = simpson_weights(4001, s[1] - s[0])
        quad = float(w @ psi(s, kp))
        assert zeta(kp) == pytest.approx(quad, rel=1e-12)


# ---------------------------------------------------------------------------
# gm_row_integral


def test_gm_row_integral_golden():
    got = float(gm_row_integral(1.0, KernelParams(1.0, 2.0)))
    ref = float((mp.sinh(2) - 2 * mp.sinh(1)) / mp.sinh(2))
    assert got == pytest.approx(ref, rel=1e-13)
    assert got == pytest.approx(0.35194572633611454, rel=1e-13)


def test_gm_row_integral_matches_quadrature():
    for M, L in ((0.3, 2.0), (9.0, 4.0)):
        kp = KernelParams(M, L)
        s = uniform_grid(L, 4001)
        w = simpson_weights(4001, s[1] - s[0])
        for x0 in (0.31 * L, 0.5 * L, 0.77 * L):
            quad = float(w @ green_gm(x0, s, kp))
            # x0 off the quadrature grid leaves a kink mid-panel; 1e-8 is
            # the Simpson floor for that, the identity itself is exact
            assert float(gm_row_integral(x0, kp)) == pytest.approx(quad, rel=1e-7)


# ---------------------------------------------------------------------------
# xi


def test_xi_closed_form():
    for z in (0.894427, 2.0, 6.0):
        ref = float((mp.mpf(z) / 2) * mp.sinh(z) - mp.cosh(z) + 1)
        assert xi(z) == pytest.approx(ref, rel=1e-13)
    assert xi(2.0) == pytest.approx(0.8646647167633873, rel=1e-13)


def test_xi_is_supremum_of_theta_ratio():
    # xi(mu*L) dominates [s(L-s)M sinh(mu L)/2 - theta(s)] / sinh(mu s)
    # everywhere on (0, L) and is approached in the limit s -> 0; the same
    # holds with sinh(mu(L-s)) in the denominator by symmetry
    for M, L in ((0.2, 2.0), (1.0, 2.0), (4.0, 3.0)):
        kp = KernelParams(M, L)
        s = np.linspace(1e-6, L - 1e-6, 20001)
        num = 0.5 * s * (L - s) * M * np.sinh(kp.muL) - theta(s, kp)
        for denom in (np.sinh(kp.mu * s), np.sinh(kp.mu * (L - s))):
            ratio = num / denom
            bound = xi(kp.muL)
            assert np.max(ratio) <= bound * (1.0 + 1e-9) + 1e-15
            assert np.max(ratio) >= bound * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# extreme arguments


def test_kernel_finite_at_extreme_tension():
    kp = KernelParams((700.0 / 3.0) ** 2, 3.0)
    values = [
        green_gm(1.5, 1.5, kp),
        float(psi(1.5, kp)),
        zeta(kp),
        green_g(1.5, 1.5, kp),
    ]
    assert all(np.isfinite(v) for v in values)
    assert all(v > 0.0 for v in values)
