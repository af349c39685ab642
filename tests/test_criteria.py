"""Certification functionals: sigma, xi, and the condition checks."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from melan import (
    BridgeParams,
    Constant,
    LoadSpec,
    MelanProblem,
    SineShape,
    ZeroShape,
    applicability,
    check_positivity,
    check_sine_conditions,
    check_smallness,
    check_uniqueness,
    contraction_rho,
    sigma,
    verify_lower,
    verify_upper,
    xi,
)

mp.mp.dps = 50

SINE_N = (16.0 + np.pi ** 3) / 160.0  # frozen N of the standard sine pair below


def mp_sigma(x):
    x = mp.mpf(x)
    return 3 * x ** 3 / (6 * x * mp.cosh(x) + 6 * x - 12 * mp.sinh(x) - x ** 3)


# ---------------------------------------------------------------------------
# sigma


def test_sigma_golden_values():
    assert sigma(0.894427) == pytest.approx(24.21907879452194, rel=1e-12)
    assert sigma(0.9653) == pytest.approx(20.684877954880584, rel=1e-12)
    assert sigma(32.0) == pytest.approx(1.383264589048734e-11, rel=1e-12)


def test_sigma_against_reference_evaluation():
    # the closed form cancels to rubble below x ~ 0.05 and overflows above
    # x ~ 710; every branch must agree with 50-digit evaluation
    for x in (1e-4, 1e-3, 0.01, 0.049, 0.051, 0.1, 1.0, 10.0, 100.0):
        assert sigma(x) == pytest.approx(float(mp_sigma(x)), rel=1e-8)
    for x in (600.0, 649.0, 651.0, 700.0, 705.0):
        assert sigma(x) == pytest.approx(float(mp_sigma(x)), rel=1e-12)


def test_sigma_continuous_across_branch_switches():
    for x0 in (0.05, 650.0):
        lo = sigma(x0 * (1.0 - 1e-9))
        hi = sigma(x0 * (1.0 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-7)


def test_sigma_positive_and_decreasing():
    xs = np.logspace(-3, 2, 200)
    vals = np.array([sigma(float(x)) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_sigma_underflows_to_zero_for_huge_arguments():
    # exp(-x) underflows past x = 745; x**3 alone overflows past 5.6e102
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = np.array([sigma(float(x)) for x in np.logspace(2.8, 308, 200)])
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 0.0)


def test_x_squared_sigma_asymptotics():
    xs = np.logspace(-3, np.log10(50.0), 400)
    vals = xs ** 2 * np.array([sigma(float(x)) for x in xs])
    assert np.all(np.diff(vals) < 0.0)
    assert np.max(vals) <= 20.0 + 1e-9
    assert vals[0] >= 19.99
    assert vals[0] == pytest.approx(19.999999206349226, rel=1e-10)


# ---------------------------------------------------------------------------
# xi


def test_xi_golden_and_reference():
    assert xi(2.0) == pytest.approx(0.8646647167633873, rel=1e-13)
    for z in (0.1, 0.894427, 2.0, 10.0):
        ref = float((mp.mpf(z) / 2) * mp.sinh(z) - mp.cosh(z) + 1)
        assert xi(z) == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# positivity


def test_positivity_standard_instance():
    rep = check_positivity(0.2, SINE_N, 2.0)
    assert rep.satisfied
    assert rep.lhs == pytest.approx(0.2937892292518739, rel=1e-13)
    assert rep.rhs == pytest.approx(2.421906812267554, rel=1e-12)


def test_positivity_rhs_uses_sigma():
    # rhs = 4 M sigma(sqrt(M) L) / L**3, equal to 4 x^2 sigma(x) / L^5 on the
    # series (x < 0.05), direct (x <= 650) and exp-factored (x > 650) branches
    xs = (1e-3, 0.02, 0.049, 0.051, 0.5, 3.0, 32.0, 300.0, 650.0, 651.0, 700.0)
    cases = [(0.7, 3.0)] + [((x / L) ** 2, L) for L in (1.0, 2.0, 100.0, 460.0) for x in xs]
    for M, L in cases:
        rep = check_positivity(M, 0.0, L)
        x = np.sqrt(M) * L
        scaled = (4.0 / L ** 5) * x * x * sigma(x)
        assert rep.rhs > 0.0
        assert rep.rhs == pytest.approx(4.0 * M * sigma(x) / L ** 3, rel=1e-12)
        assert abs(rep.rhs - scaled) <= 1e-12 * max(abs(rep.rhs), abs(scaled))


def test_positivity_margin_sign_matches_verdict():
    good = check_positivity(0.2, 1e-3, 2.0)
    bad = check_positivity(0.2, 10.0, 2.0)
    assert good.satisfied and good.margin > 0.0
    assert not bad.satisfied and bad.margin < 0.0


# ---------------------------------------------------------------------------
# smallness and uniqueness


def test_smallness_boundary_counts_as_satisfied():
    rep = check_smallness(1.0, 1.0, 2.0)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-14)
    assert rep.satisfied  # non-strict comparison


def test_uniqueness_standard_instance():
    rep = check_uniqueness(0.1, 0.1, 0.1, 0.2, SINE_N, 2.0)
    assert rep.satisfied
    assert rep.lhs == pytest.approx(-0.21242154149625225, rel=1e-12)
    assert rep.rhs == pytest.approx(0.3, rel=1e-13)


def test_uniqueness_margin_at_identical_coefficients():
    # with M = a and N = c the criterion reduces to a clear 4/L**2 margin
    rep = check_uniqueness(0.3, 0.1, 0.2, 0.3, 0.2, 100.0)
    assert rep.rhs - rep.lhs == pytest.approx(4.0 / 100.0 ** 2, rel=1e-6)


# ---------------------------------------------------------------------------
# contraction factor


def test_contraction_rho_standard_instance():
    rho = contraction_rho(0.1, 0.1, 0.1, 0.2, SINE_N, 2.0)
    assert rho == pytest.approx(0.45747891806452123, rel=1e-12)


def test_contraction_rho_vanishes_at_identical_coefficients():
    assert contraction_rho(0.1, 0.1, 0.1, 0.1, 0.1, 2.0) == 0.0


def test_contraction_rho_signed():
    # over-relaxed frozen coefficients give a negative bracket; the factor
    # is reported signed so callers can clamp it themselves
    rho = contraction_rho(0.2, 0.1, 0.1, 0.1, 0.05, 2.0)
    assert rho == pytest.approx(-0.19358962670294902, rel=1e-12)


# ---------------------------------------------------------------------------
# sine-pair conditions


def test_sine_conditions_standard_instance():
    M, N = check_sine_conditions(0.1, 0.1, 0.1, 2.0, np.pi / 4.0)
    assert M == pytest.approx(0.2, rel=1e-14)
    assert N == pytest.approx(SINE_N, rel=1e-14)
    positivity = check_positivity(M, N, 2.0)
    assert positivity.satisfied
    assert positivity.name == "positivity"


def test_sine_frozen_coefficients_formulas():
    a, b, c, L, lam = 0.37, 0.21, 0.05, 3.0, 0.4
    M, N = check_sine_conditions(a, b, c, L, lam)
    assert M == pytest.approx(a + 2.0 * b * lam * L / np.pi, rel=1e-14)
    assert N == pytest.approx(c + b * lam * np.pi ** 2 / L ** 2, rel=1e-14)


@given(
    a=st.floats(0.01, 2.0),
    b=st.floats(0.01, 2.0),
    c=st.floats(0.01, 2.0),
    L=st.floats(0.5, 5.0),
    lam=st.floats(0.01, 2.0),
)
@settings(max_examples=100)
def test_sine_uniqueness_agrees_with_direct_smallness_form(a, b, c, L, lam):
    # for the frozen sine coefficients the uniqueness check is equivalent to
    # lam * (L**3/4) * (2b/pi + b*pi**2/4) <= 1
    M = a + 2.0 * b * lam * L / np.pi
    N = c + b * lam * np.pi ** 2 / L ** 2
    q = lam * (L ** 3 / 4.0) * (2.0 * b / np.pi + b * np.pi ** 2 / 4.0)
    assume(abs(q - 1.0) > 1e-9)  # away from the boundary, where roundoff decides
    assert check_uniqueness(a, b, c, M, N, L).satisfied == (q <= 1.0)


# ---------------------------------------------------------------------------
# report mechanics


def test_condition_report_margin_definition():
    # every report, whichever module builds it, carries the relative margin
    up = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(0.1),)))
    down = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(-0.1),)))
    bridges = (
        BridgeParams(L=100.0, EI=4.557e8, EcAc=4121700.0, Lc=103.2, n=1.0 / 9.0, H=19850.4),
        BridgeParams(L=460.0, EI=5.7e7, EcAc=3.6e7, Lc=472.0, n=0.1, H=97750.0),
    )
    reports = [
        check_positivity(0.2, 1e-3, 2.0),
        verify_lower(ZeroShape(), up),
        verify_lower(ZeroShape(), down),
        verify_upper(SineShape(np.pi / 4.0), up),
        verify_upper(ZeroShape(), up),
    ]
    for bp in bridges:
        reports.extend(applicability(bp).reports)
    assert {r.satisfied for r in reports} == {True, False}
    for rep in reports:
        expected = (rep.rhs - rep.lhs) / max(abs(rep.rhs), 1e-300)
        assert rep.margin == pytest.approx(expected, rel=1e-12), rep.name
        assert rep.satisfied == (rep.margin > 0.0 if rep.strict else rep.margin >= 0.0)
    assert reports[0].strict is False
