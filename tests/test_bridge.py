"""Physical-parameter layer: coefficient derivation, applicability, full runs.

Three reference configurations are used throughout (all quantities kN, m):

* span-150: L=150, EI=4.557e8, EcAc=4121730, Lc=163.2, n=0.2,   H=16542
* span-100: L=100, EI=4.557e8, EcAc=4121700, Lc=103.2, n=1/9,   H=19850.4
* span-460: L=460, EI=5.7e7,   EcAc=3.6e7,   Lc=472,   n=0.1,   H=97750
"""

import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import melan.bridge
import melan.criteria
import melan.linear
import melan.monotone
from melan import (
    Affine,
    BridgeParams,
    Constant,
    LinearProblem,
    LoadSpec,
    MelanProblem,
    Sampled,
    SineHalfWave,
    SineShape,
    SinhTerm,
    applicability,
    cable_length,
    check_positivity,
    derive_coefficients,
    iterate_melan,
    load_envelope,
    make_sine_pair,
    solve_bridge,
    solve_linear,
    verify_upper,
)
from melan.errors import ConfigError, EnvelopeViolation, NonFiniteSolution, NotApplicable
from melan.monotone import _apply_model
from melan.quadrature import integrate, uniform_grid


def span_150():
    return BridgeParams(L=150.0, EI=4.557e8, EcAc=4121730.0, Lc=163.2, n=0.2,
                        H=16542.0)


def span_100():
    return BridgeParams(L=100.0, EI=4.557e8, EcAc=4121700.0, Lc=103.2,
                        n=1.0 / 9.0, H=19850.4)


def span_460():
    return BridgeParams(L=460.0, EI=5.7e7, EcAc=3.6e7, Lc=472.0, n=0.1,
                        H=97750.0)


# ---------------------------------------------------------------------------
# coefficient derivation


def test_coefficients_span_150():
    a, b, c = derive_coefficients(span_150())
    assert a == pytest.approx(3.630019749835418e-05, rel=1e-12)
    assert b == pytest.approx(5.911654984574476e-07, rel=1e-12)
    assert c == pytest.approx(6.305765316879442e-09, rel=1e-12)


def test_coefficients_span_100():
    a, b, c = derive_coefficients(span_100())
    assert a == pytest.approx(4.356023699802502e-05, rel=1e-12)
    assert b == pytest.approx(7.7904963769287e-07, rel=1e-12)
    assert c == pytest.approx(6.9248856683810665e-09, rel=1e-12)


def test_coefficients_span_460():
    a, b, c = derive_coefficients(span_460())
    assert a == pytest.approx(0.0017149122807017545, rel=1e-12)
    assert b == pytest.approx(2.327114765543187e-06, rel=1e-12)
    assert c == pytest.approx(4.047156113988152e-09, rel=1e-12)


def test_coefficient_structure():
    # a = H/EI; b = (q/H)(EcAc/EI)/Lc; c = (q/H) b, with q/H = 8n/L
    bp = span_100()
    a, b, c = derive_coefficients(bp)
    qh = 8.0 * bp.n / bp.L
    assert a == pytest.approx(bp.H / bp.EI, rel=1e-14)
    assert b == pytest.approx(qh * (bp.EcAc / bp.EI) / bp.Lc, rel=1e-14)
    assert c == pytest.approx(qh * b, rel=1e-14)


def test_tension_resolved_from_dead_load_and_sag():
    bp = BridgeParams(L=100.0, EI=1e8, EcAc=1e7, Lc=103.0, n=0.125, q=100.0)
    rep = applicability(bp)
    assert rep.H == pytest.approx(100.0 * 100.0 / (8.0 * 0.125), rel=1e-14)
    assert rep.qh == pytest.approx(8.0 * 0.125 / 100.0, rel=1e-14)


# ---------------------------------------------------------------------------
# cable length


def test_cable_length_golden():
    assert cable_length(100.0, 0.008888) == pytest.approx(103.20029917657345,
                                                          rel=1e-12)


def test_cable_length_flat_limit():
    assert cable_length(100.0, 1e-9) == pytest.approx(100.0, rel=1e-12)


def test_cable_length_matches_arc_quadrature():
    qh = 0.008888
    xs = uniform_grid(100.0, 4001)
    slope = qh * (50.0 - xs)
    arc = integrate(np.sqrt(1.0 + slope ** 2), xs[1] - xs[0])
    assert cable_length(100.0, qh) == pytest.approx(arc, rel=1e-12)


def test_cable_length_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        cable_length(100.0, 0.0)
    with pytest.raises(ValueError):
        cable_length(-1.0, 0.01)


# ---------------------------------------------------------------------------
# applicability reports


def test_applicability_span_150_not_applicable():
    rep = applicability(span_150())
    assert rep.verdict == "not-applicable"
    assert rep.M == pytest.approx(0.00012097841763675248, rel=1e-12)
    assert rep.N == pytest.approx(6.694736623902629e-09, rel=1e-12)
    assert rep.positivity.rhs == pytest.approx(9.457578018438466e-10, rel=1e-10)
    assert not rep.positivity.satisfied
    assert not rep.necessary_b.satisfied
    assert not rep.necessary_c.satisfied
    assert rep.sag_ratio.satisfied


def test_applicability_span_100_certified():
    rep = applicability(span_100())
    assert rep.verdict == "certified-unique"
    assert np.sqrt(rep.M) * 100.0 == pytest.approx(0.9651739599633486, rel=1e-12)
    assert rep.N == pytest.approx(7.693776841665128e-09, rel=1e-12)
    assert rep.positivity.rhs == pytest.approx(7.70977593395008e-09, rel=1e-10)
    assert rep.positivity.satisfied
    assert rep.necessary_b.satisfied and rep.necessary_c.satisfied
    assert rep.uniqueness_sine.satisfied
    assert rep.sag_ratio.satisfied


def test_applicability_span_460_not_applicable():
    rep = applicability(span_460())
    assert rep.verdict == "not-applicable"
    assert np.sqrt(rep.M) * 460.0 == pytest.approx(32.03443219772737, rel=1e-12)
    assert rep.N == pytest.approx(4.546453986419566e-09, rel=1e-12)
    assert rep.positivity.rhs == pytest.approx(2.6690666924501385e-21, rel=1e-9)
    assert not rep.positivity.satisfied


def assert_positivity_b_form(rep, L):
    # with lam = L/100 the sine coefficients restated through b alone match
    # (M, N) to 1e-12, and the b-form verdict is the positivity verdict
    lhs_b = rep.b * (800.0 * rep.n + np.pi ** 2) / (100.0 * L)
    M_b = rep.a + rep.b * L ** 2 / (50.0 * np.pi)
    assert abs(lhs_b - rep.N) <= 1e-12 * abs(rep.N)
    assert abs(M_b - rep.M) <= 1e-12 * abs(rep.M)
    assert (lhs_b <= rep.positivity.rhs) == rep.positivity.satisfied


def test_positivity_two_forms_agree_on_reference_configs():
    for bp in (span_150(), span_100(), span_460()):
        assert_positivity_b_form(applicability(bp), bp.L)


def test_report_positivity_is_the_bound_at_its_own_coefficients():
    for bp in (span_150(), span_100(), span_460()):
        rep = applicability(bp)
        assert rep.positivity == check_positivity(rep.M, rep.N, bp.L)


def test_positivity_two_forms_agree_randomized():
    # the verdict stated through N and through b must never disagree
    rng = np.random.default_rng(41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            L = float(rng.uniform(50.0, 500.0))
            bp = BridgeParams(
                L=L,
                EI=float(10 ** rng.uniform(7.0, 9.0)),
                EcAc=float(10 ** rng.uniform(6.0, 8.0)),
                Lc=L * 1.03,
                n=float(rng.uniform(0.05, 0.25)),
                q=float(rng.uniform(50.0, 500.0)),
            )
            assert_positivity_b_form(applicability(bp), bp.L)


# ---------------------------------------------------------------------------
# load envelopes


def test_envelope_span_100():
    A, B = load_envelope(span_100())
    assert A == pytest.approx(485.79090698382237, rel=1e-12)
    assert B == pytest.approx(200.89621711302212, rel=1e-12)


def test_envelope_span_460():
    A, B = load_envelope(span_460())
    assert A == pytest.approx(59.88141721411616, rel=1e-12)
    assert B == pytest.approx(310.75677024044654, rel=1e-12)


def test_envelope_is_scaled_sine_condition_envelope():
    # A*sin(pi*x/L) + B is EI times the model applied to the L/100 sine, so
    # the envelope holds exactly the loads the standard upper bound dominates
    for bp in (span_150(), span_100(), span_460()):
        a, b, c = derive_coefficients(bp)
        lam = applicability(bp).lam
        problem = MelanProblem(a=a, b=b, c=c, L=bp.L, load=LoadSpec((Constant(0.0),)))
        x = uniform_grid(bp.L, 1001)
        A, B = load_envelope(bp)
        model = bp.EI * _apply_model(SineShape(lam), problem, x)
        np.testing.assert_allclose(A * np.sin(np.pi * x / bp.L) + B, model, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# full runs


@pytest.fixture(scope="module")
def run_100():
    return solve_bridge(span_100(), LoadSpec((Constant(200.0),)), grid_points=1001)


def test_full_run_span_100_certified(run_100):
    v = run_100.monotone
    assert v.status == "converged"
    assert v.certified
    assert v.iterations == 6
    assert run_100.report.verdict == "certified-unique"


def test_full_run_span_100_deflection_and_tension(run_100):
    assert np.max(run_100.deflection.y) == pytest.approx(0.3486213224031954,
                                                         rel=1e-9)
    assert run_100.h_w == pytest.approx(7923.248010976623, rel=1e-9)
    # deflections stay in the physically sensible band [0, L/100]
    assert np.min(run_100.deflection.y) >= -1e-12
    assert np.max(run_100.deflection.y) <= 100.0 / 100.0


def test_full_run_span_100_iterate_maxima(run_100):
    al = run_100.monotone.lower
    be = run_100.monotone.upper
    assert np.max(np.abs(al[1].y)) == pytest.approx(0.3291537272856484, rel=1e-9)
    assert np.max(np.abs(be[1].y)) == pytest.approx(0.36586443935919355, rel=1e-9)
    assert np.max(np.abs(al[2].y)) == pytest.approx(0.34772389756857236, rel=1e-9)
    assert np.max(np.abs(be[2].y)) == pytest.approx(0.3494013490408171, rel=1e-9)


def test_full_run_span_100_solves_the_nonlinear_equation(run_100):
    # reduce with the converged integral frozen, solve in closed form, and
    # compare — an end-to-end consistency check of the physical scaling
    bp = span_100()
    a, b, c = derive_coefficients(bp)
    w = run_100.deflection
    i_star = w.integral_y
    reduced = LinearProblem(
        M=a + b * i_star,
        N=0.0,
        L=100.0,
        load=LoadSpec((Constant(200.0 / bp.EI - c * i_star),)),
    )
    hat = solve_linear(reduced, grid_points=1001)
    assert np.max(np.abs(hat.y - w.y)) < 1e-6
    assert abs(hat.integral_y - i_star) < 1e-4


def test_additional_tension_formula(run_100):
    # h(w) = (EcAc/Lc) * (q/H) * integral of w
    bp = span_100()
    qh = 8.0 * bp.n / bp.L
    want = (bp.EcAc / bp.Lc) * qh * run_100.deflection.integral_y
    assert run_100.h_w == pytest.approx(want, rel=1e-12)


def test_forced_run_span_460_reports_violation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = solve_bridge(span_460(), LoadSpec((Constant(20.0),)),
                              grid_points=1001, max_iter=8, force=True)
    v = result.monotone
    assert v.status == "monotonicity-violation"
    assert not v.certified
    assert v.pair.rho == pytest.approx(50.480858854971856, rel=1e-6)
    assert len(v.warnings) > 0
    assert np.max(np.abs(v.lower[1].y)) == pytest.approx(
        0.22283716440817525, rel=1e-9)
    assert np.max(np.abs(v.upper[1].y)) == pytest.approx(
        0.6499946144328224, rel=1e-9)
    assert result.h_w == pytest.approx(10853.681073572872, rel=1e-9)
    assert np.max(np.abs(result.deflection.y)) == pytest.approx(
        0.2687192436334864, rel=1e-9)


# ---------------------------------------------------------------------------
# refusals and configuration errors


def test_uncertified_configuration_is_refused():
    with pytest.raises(NotApplicable):
        solve_bridge(span_150(), LoadSpec((Constant(1.0),)), grid_points=201)


def test_excessive_load_is_refused():
    with pytest.raises(EnvelopeViolation):
        solve_bridge(span_100(), LoadSpec((Constant(600.0),)), grid_points=201)


def test_negative_load_is_refused():
    with pytest.raises(EnvelopeViolation):
        solve_bridge(span_100(), LoadSpec((Constant(-5.0),)), grid_points=201)


def test_sampled_load_is_checked_at_its_own_nodes():
    # A spike at the node x = L/6, which is not on the 1001-point check grid,
    # just above the envelope there; the nearest grid points stay below it.
    bp = span_100()
    rep = applicability(bp)
    bound = rep.envelope_sine * np.sin(np.pi / 6.0) + rep.envelope_const
    spike = Sampled([0.0, bound * (1.0 + 1e-4), 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(EnvelopeViolation):
        solve_bridge(bp, LoadSpec((spike,)), grid_points=201)
    x = np.linspace(0.0, bp.L, 1001)
    p = spike.evaluate(x, bp.L)
    assert np.all(p <= rep.envelope_sine * np.sin(np.pi * x / bp.L) + rep.envelope_const)


def test_initial_upper_check_covers_the_end_nodes():
    # A constant load 1% above the sine bound's end value c*integral(sine)
    # exceeds model(sine) only within 0.13 m of each end: at the end node
    # and its neighbour.  The envelope check refuses the same load.
    bp = span_100()
    rep = applicability(bp)
    end_value = rep.c * 2.0 * rep.lam * bp.L / np.pi
    load = LoadSpec((Constant(1.01 * end_value),))
    problem = MelanProblem(a=rep.a, b=rep.b, c=rep.c, L=bp.L, load=load)
    assert not verify_upper(SineShape(rep.lam), problem).satisfied
    assert not iterate_melan(problem, lam=rep.lam, strict=False).certified
    with pytest.raises(EnvelopeViolation):
        solve_bridge(bp, load.scaled(bp.EI), grid_points=201)


def test_run_and_report_share_one_positivity_check():
    # bridges in the benchmark's design-sweep ranges that pass positivity,
    # each under a load inside its envelope: the run's positivity report is
    # the applicability report's, down to the last bit of its bound
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        L = float(rng.uniform(60.0, 300.0))
        n = float(rng.uniform(1.0 / 12.0, 1.0 / 7.0))
        bp = BridgeParams(
            L=L, n=n, H=float(rng.uniform(10.0, 200.0)) * L / (8.0 * n),
            EI=float(10 ** rng.uniform(np.log10(5e7), np.log10(2e9))),
            EcAc=float(10 ** rng.uniform(np.log10(2e6), np.log10(6e7))),
        )
        rep = applicability(bp)
        if not rep.positivity.satisfied:
            continue
        load = LoadSpec((Constant(0.5 * rep.envelope_const),
                         SineHalfWave(0.5 * rep.envelope_sine)))
        result = solve_bridge(bp, load, grid_points=101)
        assert result.monotone.pair.positivity == result.report.positivity
        checked += 1


def test_solve_bridge_evaluates_the_load_at_most_twice(monkeypatch):
    # once for the envelope check, once for the whole monotone run
    calls = []
    original = LoadSpec.evaluate

    def counted(self, x, length):
        calls.append(self)
        return original(self, x, length)

    monkeypatch.setattr(LoadSpec, "evaluate", counted)
    run = solve_bridge(span_100(), LoadSpec((Constant(200.0),)))
    assert run.monotone.iterations >= 3
    assert len(calls) <= 2


def test_forced_excessive_load_runs_uncertified():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solve_bridge(span_100(), LoadSpec((Constant(600.0),)),
                              grid_points=201, force=True, max_iter=200)
    assert any("admissible band" in str(w.message) for w in caught)
    assert not result.monotone.certified


def test_forced_load_just_outside_the_envelope_is_uncertified():
    # B*(1 + 1e-6) passes the run's own initial upper check, whose roundoff
    # allowance is about 0.46 kN/m here; the forced envelope refusal must
    # still leave the result uncertified, with its message first
    bp = span_100()
    load = LoadSpec((Constant(applicability(bp).envelope_const * (1.0 + 1e-6)),))
    with pytest.warns(UserWarning, match="admissible band"):
        v = solve_bridge(bp, load, force=True).monotone
    assert v.status == "converged"
    assert not v.certified
    assert v.warnings[0].startswith("live load leaves the admissible band")


def test_missing_cable_length_detected():
    # q = 0 gives a flat cable, from which no length can be derived: the
    # bridge is refused where it is built
    with pytest.raises(ConfigError, match="q must be positive"):
        BridgeParams(L=100.0, EI=1e8, EcAc=1e7, H=1000.0, q=0.0)


def test_overflowing_dead_load_data_are_refused():
    # A sag ratio near 1e300 overflows the derived cable length and, with
    # Lc given, the live-load envelope; a huge span overflows the length in
    # numpy arithmetic, a huge EI on a short span the envelope in float
    # products.  Each is a ConfigError, and numpy warns nothing.
    big_n = dict(L=100.0, EI=4.557e8, EcAc=4121700.0, n=1e300, H=19850.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # the atypical sag ratio
        for data in (big_n, dict(L=1e300, EI=1.0, EcAc=1.0, n=1e10, H=1.0)):
            with pytest.raises(ConfigError, match="cable length overflows"):
                BridgeParams(**data)
        for bp in (BridgeParams(**big_n, Lc=103.2),
                   BridgeParams(L=0.1, EI=1e307, EcAc=1e7, n=0.1, H=1.0)):
            with pytest.raises(ConfigError, match="envelope overflows"):
                load_envelope(bp)


def _sine_run(L):
    problem = MelanProblem(0.1, 0.1, 0.1, L, LoadSpec((Constant(0.1),)))
    return iterate_melan(problem, grid_points=11)


def _span_100_check(L):
    return applicability(BridgeParams(L=L, EI=4.557e8, EcAc=4121700.0, n=1.0 / 9.0,
                                      H=19850.4))


def _constant_solve(M):
    return solve_linear(LinearProblem(M=M, N=0.0, L=1.0, load=LoadSpec((Constant(1.0),))))


def _grid_11_solve(case):
    M, N, L, term = case
    return solve_linear(LinearProblem(M=M, N=N, L=L, load=LoadSpec((term,))), grid_points=11)


def _bridge_check(bridge):
    return applicability(BridgeParams(**bridge))


@pytest.mark.parametrize(
    "run, value, error, message",
    [
        (_sine_run, 1e200, ConfigError, "coefficient N = inf overflows"),
        (_sine_run, 1e-120, NonFiniteSolution, "sine bound's model overflows at L = 1e-120"),
        (_sine_run, 1e-200, NonFiniteSolution, "sine bound's curvature overflows"),
        *[(_span_100_check, L, ConfigError, f"float range at span L = {L:.6g}")
          for L in (1e80, 1e100, 1e-80, 1e-100)],
        *[(_constant_solve, M, NonFiniteSolution, f"zeta's denominator underflows at M = {M:.6g}")
          for M in (1e-150, 1e-200, 1e-300)],
        # L**3 underflows in the coupling bound of _classify_regime
        (_grid_11_solve, (1.0, -1e-8, 5e-324, Constant(1.0)), NonFiniteSolution,
         "coupling bound 8*M/L**3 leaves the float range at L = 4.94066e-324"),
        # the sine term's L**2, the sinh term's rate**2, and sinh_frac at sqrt(M)*L = 0
        (_grid_11_solve, (1.0, 0.1, 1e-300, SineHalfWave(1.0)), NonFiniteSolution,
         "leaves the float range at L = 1e-300, sqrt(M)*L = 1e-300"),
        (_grid_11_solve, (1.0, 0.1, 1.0, SinhTerm(1.0, 1e308)), NonFiniteSolution,
         "leaves the float range at L = 1, sqrt(M)*L = 1"),
        (_grid_11_solve, (1e-10, 0.0, 5e-324, Affine(1.0, 1.0)), NonFiniteSolution,
         "sqrt(M)*L = 0"),
        # sigma's x*x underflows; n = 0.11 in place of the CLI case's q, whose
        # sag ratio 1.15 would warn first
        (_bridge_check, {"L": 1.2e-8, "EI": 1e308, "EcAc": 6.4e-9, "H": 3.2e-4, "n": 0.11},
         ConfigError, "positivity bound 4*M*sigma(sqrt(M)*L)/L**3 leaves the float range "
         "at span L = 1.2e-08"),
    ],
    ids=lambda arg: arg.__name__.lstrip("_") if callable(arg) else None,
)
def test_extreme_magnitudes_raise_a_melan_error(run, value, error, message):
    # A float power or quotient of L or M leaves the float range: the run
    # ends in the named MelanError, not a bare OverflowError or
    # ZeroDivisionError, and numpy warns nothing on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            run(value)


SPAN_100_DEAD_LOAD = {"n": 1.0 / 9.0, "H": 19850.4, "q": 19850.4 * 8.0 / 900.0, "Lc": 103.2}


@pytest.mark.parametrize("EcAc", [0.0, 4121700.0])
def test_every_dead_load_combination_is_resolved_or_refused(EcAc):
    # n, H, q and Lc each absent, zero or span-100's value: a bridge is
    # refused with ConfigError, or gives a Melan problem with a, b, c > 0
    outcomes = set()
    for values in itertools.product(*[(None, 0.0, v) for v in SPAN_100_DEAD_LOAD.values()]):
        given = {k: v for k, v in zip(SPAN_100_DEAD_LOAD, values) if v is not None}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                report = applicability(BridgeParams(L=100.0, EI=4.557e8, EcAc=EcAc, **given))
            except ConfigError:
                outcomes.add("refused")
                continue
        assert min(report.a, report.b, report.c) > 0.0, given
        outcomes.add("resolved")
    assert outcomes == ({"refused", "resolved"} if EcAc else {"refused"})


def test_dead_load_is_resolved_once_per_bridge(monkeypatch):
    # a bridge without Lc derives its cable length when it is built, and
    # its report reads the resolved values instead of deriving them again
    calls = []
    original = melan.bridge.cable_length

    def counted(L, qh):
        calls.append((L, qh))
        return original(L, qh)

    monkeypatch.setattr(melan.bridge, "cable_length", counted)
    bp = BridgeParams(L=100.0, EI=4.557e8, EcAc=4121700.0, n=1.0 / 9.0, H=19850.4)
    assert len(calls) == 1
    report = applicability(bp)
    assert len(calls) == 1
    assert report.Lc == original(100.0, 8.0 / 900.0)


def test_resolved_dead_load_is_outside_equality_and_repr():
    bp = span_100()
    same = BridgeParams(**{k: getattr(bp, k) for k in ("L", "EI", "EcAc", "n", "H", "q", "Lc")})
    assert bp == same and hash(bp) == hash(same)
    assert "_resolved" not in repr(bp)
    other = replace(bp, Lc=None)
    assert other._resolved.H == bp._resolved.H and other._resolved.Lc != bp._resolved.Lc


def test_underdetermined_parameters_rejected():
    with pytest.raises(ConfigError):
        BridgeParams(L=100.0, EI=1e8, EcAc=1e7, Lc=103.0)
    with pytest.raises(ConfigError):
        BridgeParams(L=100.0, EI=1e8, EcAc=1e7, Lc=103.0, n=0.2, H=10000.0,
                     q=5.0)  # 8n/L and q/H disagree
    with pytest.raises(ConfigError):
        BridgeParams(L=-5.0, EI=1e8, EcAc=1e7, Lc=103.0, n=0.2)


def test_atypical_sag_ratio_warns():
    with pytest.warns(UserWarning, match="sag-span"):
        BridgeParams(L=100.0, EI=1e8, EcAc=1e7, Lc=103.0, n=0.5, H=10000.0)


# ---------------------------------------------------------------------------
# reuse across live loads on one bridge


def clear_memos():
    melan.bridge._bridge_facts.cache_clear()
    melan.monotone._bracket.cache_clear()


LIVE_LOADS = (
    LoadSpec((Constant(200.0),)),
    LoadSpec((Constant(60.0), SineHalfWave(300.0))),
    LoadSpec((Sampled(np.linspace(20.0, 180.0, 41)),)),
)


def assert_same_run(first, second):
    # every iterate, gap, gap bound and h_w, bit for bit
    v, w = first.monotone, second.monotone
    for a, b in ((v.lower, w.lower), (v.upper, w.upper)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.y, y.y) and np.array_equal(x.ypp, y.ypp)
            assert x.integral == y.integral
    assert np.array_equal(v.pair.grid, w.pair.grid)
    assert v.gaps == w.gaps and v.gap_bounds == w.gap_bounds
    assert first.h_w == second.h_w
    assert first.report == second.report


def test_warm_and_cold_solves_agree_bit_for_bit():
    bp = span_100()
    clear_memos()
    warm = [solve_bridge(bp, load, grid_points=201) for load in LIVE_LOADS]
    for load, hot in zip(LIVE_LOADS, warm):
        clear_memos()
        assert_same_run(hot, solve_bridge(bp, load, grid_points=201))


def test_alternating_bridges_get_their_own_results():
    # The two bridges differ only in EI; each alternation misses both memos.
    bridges = (span_100(), replace(span_100(), EI=2.0 * span_100().EI))
    cold = []
    for bp in bridges:
        clear_memos()
        cold.append(solve_bridge(bp, LIVE_LOADS[1], grid_points=201))
    for _ in range(2):
        for bp, ref in zip(bridges, cold):
            run = solve_bridge(bp, LIVE_LOADS[1], grid_points=201)
            assert_same_run(run, ref)
            # the bracket is this bridge's own: the report's frozen (M, N)
            assert (run.monotone.pair.M, run.monotone.pair.N) == (run.report.M, run.report.N)
    assert cold[0].report.a != cold[1].report.a


def test_each_memo_holds_one_read_only_entry():
    for bp in (span_100(), span_460(), span_100()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # span-460 is forced
            sol = solve_bridge(bp, LIVE_LOADS[0], grid_points=101, force=True, max_iter=3)
    for memo in (melan.bridge._bridge_facts, melan.monotone._bracket):
        info = memo.cache_info()
        assert info.maxsize == 1 and info.currsize == 1
    report, x, bound = melan.bridge._bridge_facts(span_100())
    pair = make_sine_pair(MelanProblem(report.a, report.b, report.c, 100.0, LIVE_LOADS[0]),
                          report.lam, 101)
    for arr in (x, bound, sol.monotone.pair.grid, pair.grid, pair.alpha.y, pair.alpha.ypp,
                pair.beta.y, pair.beta.ypp, pair.model, pair.p):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 1.0


def test_a_second_load_on_a_bridge_rebuilds_nothing(monkeypatch):
    # The bracket's operator, its sampled-load profile, its conditions, the
    # sine's model samples and the applicability report are built once per
    # bridge and grid, not once per live load.
    sites = ((melan.monotone, "LinearOperator"), (melan.linear, "_SampledProfile"),
             (melan.bridge, "applicability"), (melan.monotone, "check_positivity"),
             (melan.monotone, "check_uniqueness"), (melan.monotone, "contraction_rho"),
             (melan.monotone, "_model"))
    counts = dict.fromkeys((name for _, name in sites), 0)
    for module, name in sites:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    clear_memos()
    solve_bridge(span_100(), LIVE_LOADS[0], grid_points=201)
    assert counts == dict.fromkeys(counts, 1)
    solve_bridge(span_100(), LIVE_LOADS[1], grid_points=201)
    assert counts == dict.fromkeys(counts, 1)
    solve_bridge(replace(span_100(), EI=2.0 * span_100().EI), LIVE_LOADS[1], grid_points=201)
    assert counts == dict.fromkeys(counts, 2)


def test_each_memo_evaluates_positivity_once(monkeypatch):
    # sigma runs once per positivity bound: a cold bridge has two memos (its
    # report and its bracket), a second load hits both, and a bare
    # iteration has only the bracket.
    calls = []
    original = melan.criteria.sigma
    monkeypatch.setattr(melan.criteria, "sigma", lambda x: calls.append(x) or original(x))
    clear_memos()
    solve_bridge(span_100(), LIVE_LOADS[0], grid_points=201)
    assert len(calls) == 2
    solve_bridge(span_100(), LIVE_LOADS[1], grid_points=201)
    assert len(calls) == 2
    gentle = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(0.001),)))
    iterate_melan(gentle, grid_points=201)
    assert len(calls) == 3
