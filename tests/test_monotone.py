"""Monotone two-sided iteration: ordering, bounds, convergence, failure modes.

The standard instance used throughout is a = b = c = 0.1, L = 2 with a
constant load p = 0.1 and a sine bracket of amplitude pi/4.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melan import (
    BridgeParams,
    Constant,
    FdConfig,
    Iterate,
    LinearProblem,
    LoadSpec,
    MelanProblem,
    Sampled,
    SineShape,
    ZeroShape,
    applicability,
    check_positivity,
    check_sine_conditions,
    check_uniqueness,
    contraction_rho,
    error_bounds,
    fd_solve_nonlinear,
    iterate_melan,
    iterate_once,
    make_sine_pair,
    run_monotone,
    solve_linear,
    verify_lower,
    verify_upper,
)
from melan.errors import (
    BoundUnavailable,
    InvalidPair,
    NonFiniteSolution,
    NotApplicable,
    NotConverged,
)

SINE_N = (16.0 + np.pi ** 3) / 160.0
LAM = np.pi / 4.0


def standard_problem():
    return MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(0.1),)))


def long_span_problem():
    # the 460 m bridge in scaled form: positivity fails and rho > 1
    return MelanProblem(
        a=0.0017149122807017545,
        b=2.327114765543187e-06,
        c=4.047156113988152e-09,
        L=460.0,
        load=LoadSpec((Constant(20.0 / 5.7e7),)),
    )


@pytest.fixture(scope="module")
def standard_run():
    return iterate_melan(standard_problem(), lam=LAM, grid_points=1001)


@pytest.fixture(scope="module")
def standard_pair():
    return make_sine_pair(standard_problem(), LAM, 1001)


# ---------------------------------------------------------------------------
# pair construction and verification


def test_sine_pair_frozen_coefficients(standard_pair):
    assert standard_pair.M == pytest.approx(0.2, rel=1e-14)
    assert standard_pair.N == pytest.approx(SINE_N, rel=1e-14)
    assert standard_pair.lam == LAM
    # alpha_0 = 0, beta_0 = lam * sin(pi x / L)
    assert np.all(standard_pair.alpha.y == 0.0)
    assert np.max(standard_pair.beta.y) == pytest.approx(LAM, rel=1e-9)


def test_insufficient_amplitude_rejected_at_run_time():
    # the default-sized amplitude L/100 leaves the sine envelope below the
    # constant load near the endpoints, so the upper-solution check fails
    with pytest.raises(InvalidPair, match="upper-solution"):
        iterate_melan(standard_problem(), lam=2.0 / 100.0, grid_points=1001)


def test_sine_pair_takes_its_coefficients_from_the_sine_conditions():
    # one (M, N) formula: the pair and check_sine_conditions agree bit for bit
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b, c = 10.0 ** rng.uniform(-7.0, -2.0, 3)
        L = float(rng.uniform(60.0, 300.0))
        problem = MelanProblem(a=a, b=b, c=c, L=L, load=LoadSpec((Constant(0.0),)))
        pair = make_sine_pair(problem, L / 100.0, 7)
        assert (pair.M, pair.N) == check_sine_conditions(a, b, c, L, L / 100.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(1e-7, 1e-1),
    b=st.floats(1e-7, 1e-1),
    c=st.floats(1e-7, 1e-1),
    L=st.floats(1.0, 500.0),
    lam_frac=st.floats(0.0, 0.1),
    grid_points=st.integers(3, 1000).map(lambda k: 2 * k + 1),
)
def test_sine_pair_is_a_bracket_by_construction(a, b, c, L, lam_frac, grid_points):
    # alpha = 0 is nonnegative and flat, lies below beta with the reversed
    # curvature ordering, and (M, N) dominate a + b*integral(beta) and
    # c + b*max(-beta''), up to the run's roundoff slack; the pair's
    # conditions are those of its (M, N), bit for bit
    problem = MelanProblem(a=a, b=b, c=c, L=L, load=LoadSpec((Constant(0.0),)))
    pair = make_sine_pair(problem, lam_frac * L, grid_points)
    alpha, beta = pair.alpha, pair.beta
    slack_y = 1e-9 * max(1.0, float(np.max(np.abs(beta.y))))
    slack_pp = 1e-9 * max(1.0, float(np.max(np.abs(beta.ypp))))
    assert np.all(alpha.y >= -slack_y)
    assert np.all(alpha.ypp <= slack_pp)
    assert np.all(alpha.y <= beta.y + slack_y)
    assert np.all(alpha.ypp >= beta.ypp - slack_pp)
    need_m = a + b * beta.integral
    assert pair.M >= need_m - 1e-12 * max(1.0, need_m)
    need_n = c + b * max(float(np.max(-beta.ypp)), 0.0)
    assert pair.N >= need_n - 1e-12 * max(1.0, need_n)
    M, N = pair.M, pair.N
    assert pair.positivity == check_positivity(M, N, L)
    assert pair.uniqueness == check_uniqueness(a, b, c, M, N, L)
    assert pair.rho == contraction_rho(a, b, c, M, N, L)


def test_downgraded_initial_check_leaves_the_run_uncertified():
    # the L/100 bracket fails the upper-solution check (see the strict test
    # above); without strict mode that failure is the first warning
    v = iterate_melan(standard_problem(), lam=0.02, strict=False)
    assert v.warnings[0].startswith("initial upper-solution check fails")
    assert v.status == "monotonicity-violation"
    assert not v.certified


def test_verify_shapes_against_load_sign():
    p_up = standard_problem()
    p_down = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(-0.1),)))
    assert verify_lower(ZeroShape(), p_up).satisfied
    assert not verify_lower(ZeroShape(), p_down).satisfied
    assert verify_upper(SineShape(LAM), p_up).satisfied
    assert not verify_upper(ZeroShape(), p_up).satisfied


# ---------------------------------------------------------------------------
# the standard run


def test_standard_run_converges_certified(standard_run):
    v = standard_run
    assert v.status == "converged"
    assert v.certified
    assert v.iterations == 7
    assert v.warnings == () or list(v.warnings) == []
    assert v.pair.rho == pytest.approx(0.45747891806452123, rel=1e-12)
    assert v.final_gap < 1e-8


def test_standard_run_iterate_maxima(standard_run):
    al = standard_run.lower
    be = standard_run.upper
    assert np.max(np.abs(al[1].y)) == pytest.approx(0.017964007135697395, rel=1e-10)
    assert np.max(np.abs(be[1].y)) == pytest.approx(0.05277631810671728, rel=1e-10)
    assert np.max(np.abs(al[2].y)) == pytest.approx(0.019380731868379887, rel=1e-10)
    assert np.max(np.abs(be[2].y)) == pytest.approx(0.022043626961588063, rel=1e-10)


def test_ordering_chain(standard_run):
    # alpha_{k-1} <= alpha_k <= beta_k <= beta_{k-1}, pointwise
    v = standard_run
    al, be = v.lower, v.upper
    scale = 1e-9 * max(1.0, float(np.max(np.abs(be[0].y))))
    for k in range(1, len(al)):
        assert np.max(al[k - 1].y - al[k].y) <= scale
        assert np.max(al[k].y - be[k].y) <= scale
        assert np.max(be[k].y - be[k - 1].y) <= scale


def test_gap_bound_holds_at_every_iteration(standard_run):
    v = standard_run
    al, be = v.lower, v.upper
    for n in range(min(len(al), len(be))):
        gap = float(np.max(np.abs(be[n].y - al[n].y)))
        assert gap <= v.gap_bounds[n] + 1e-12


def _assert_gaps_are_bracket_widths(v):
    al, be = v.lower, v.upper
    assert len(v.gaps) == len(al) == len(be) == v.iterations + 1
    for n, gap in enumerate(v.gaps):
        assert gap == float(np.max(np.abs(be[n].y - al[n].y)))
    assert v.final_gap == v.gaps[-1]


def test_verdict_histories_are_tuples_from_the_pair(standard_pair):
    v = run_monotone(standard_pair)
    for history, start in ((v.lower, standard_pair.alpha), (v.upper, standard_pair.beta)):
        assert type(history) is tuple
        assert history[0] is start
        assert len(history) == v.iterations + 1
    assert v.final_lower is v.lower[-1] and v.final_upper is v.upper[-1]


def test_verdict_gaps_are_the_bracket_widths(standard_run):
    _assert_gaps_are_bracket_widths(standard_run)


def test_verdict_gaps_are_kept_through_a_monotonicity_violation():
    p_big = long_span_problem()
    v = run_monotone(make_sine_pair(p_big, 4.6, 501), max_iter=8, strict=False)
    assert v.status == "monotonicity-violation"
    _assert_gaps_are_bracket_widths(v)


def test_extremal_iterates_stay_nonnegative_concave(standard_run):
    for iterates in (standard_run.lower, standard_run.upper):
        final = iterates[-1]
        assert np.min(final.y) >= -1e-12
        assert np.max(final.ypp) <= 1e-12


def test_converged_limit_is_grid_independent():
    vals = []
    for gp in (501, 2001):
        v = iterate_melan(standard_problem(), lam=LAM, grid_points=gp)
        vals.append(np.max(np.abs(v.lower[-1].y)))
    assert vals[0] == pytest.approx(vals[1], abs=1e-6)


# ---------------------------------------------------------------------------
# the limit solves the nonlinear equation


def test_limit_satisfies_nonlinear_equation(standard_run):
    # freeze the converged integral I*; the nonlinear equation then reduces
    # to the linear problem (M = a + b I*, N = 0, load = p - c I*), whose
    # closed-form solution must reproduce the limit and its integral
    conv = standard_run.lower[-1]
    i_star = conv.integral
    reduced = LinearProblem(
        M=0.1 + 0.1 * i_star,
        N=0.0,
        L=2.0,
        load=LoadSpec((Constant(0.1 - 0.1 * i_star),)),
    )
    hat = solve_linear(reduced, grid_points=1001)
    assert np.max(np.abs(hat.y - conv.y)) < 1e-8
    assert abs(hat.integral_y - i_star) < 1e-8


def test_reference_solver_limit_is_a_fixed_point(standard_pair):
    # one sweep applied to the independently computed solution moves it by
    # no more than the combined solver tolerances
    nl = fd_solve_nonlinear(standard_problem(), FdConfig(points=2001, newton_tol=5e-5))
    prev = Iterate(
        y=np.interp(standard_pair.grid, nl.grid, nl.y),
        ypp=np.interp(standard_pair.grid, nl.grid, nl.ypp),
        integral=nl.integral_y,
    )
    nxt = iterate_once(prev, standard_pair)
    assert np.max(np.abs(nxt.y - prev.y)) < 1e-5


def test_iteration_converges_from_arbitrary_admissible_starts(standard_pair, standard_run):
    # the limit must not depend on the starting curve within the bracket
    problem = standard_problem()
    limit = 0.5 * (
        standard_run.lower[-1].y + standard_run.upper[-1].y
    )
    for factor in (0.25, 0.6, 0.95):
        start = solve_linear(
            LinearProblem(
                M=standard_pair.M,
                N=standard_pair.N,
                L=2.0,
                load=problem.load.scaled(factor),
            ),
            grid_points=1001,
        )
        cur = Iterate(y=start.y, ypp=start.ypp, integral=start.integral_y)
        for _ in range(60):
            nxt = iterate_once(cur, standard_pair)
            drift = np.max(np.abs(nxt.y - cur.y))
            cur = nxt
            if drift < 1e-10:
                break
        assert np.max(np.abs(cur.y - limit)) < 1e-7


# ---------------------------------------------------------------------------
# error bounds


def test_error_bounds_identities(standard_run):
    v = standard_run
    for n in range(v.iterations + 1):
        ap, gap = error_bounds(v, n)
        assert gap == v.gap_bounds[n]
        # a_priori = gap / (1 - rho), exactly
        assert ap * (1.0 - v.pair.rho) == pytest.approx(gap, rel=1e-12)


def test_verdict_refers_to_its_pair(standard_pair):
    # The verdict keeps the bracket it ran from, not copies of its facts.
    v = run_monotone(standard_pair)
    assert v.pair is standard_pair
    assert v.lower[0] is v.pair.alpha and v.upper[0] is v.pair.beta
    for name in ("grid", "M", "N", "lam", "rho", "positivity", "uniqueness"):
        assert not hasattr(v, name)
    for n in range(v.iterations + 1):
        assert error_bounds(v, n)[1] == v.gap_bounds[n]


def test_error_bounds_initial_gap(standard_run, standard_pair):
    _, gap0 = error_bounds(standard_run, 0)
    want = (2.0 ** 2 / 4.0) * np.max(
        np.abs(standard_pair.alpha.ypp - standard_pair.beta.ypp)
    )
    assert gap0 == pytest.approx(want, rel=1e-12)


def test_error_bounds_refuse_expansive_factor():
    # a configuration whose frozen coefficients give rho >= 1 cannot carry
    # a geometric a-priori bound
    p_big = long_span_problem()
    pair = make_sine_pair(p_big, 4.6, 501)
    v = run_monotone(pair, max_iter=3, strict=False)
    with pytest.raises(BoundUnavailable):
        error_bounds(v, 2)


# ---------------------------------------------------------------------------
# strictness and failure modes


def test_non_convergence_raises_with_traces(standard_pair):
    with pytest.raises(NotConverged) as exc:
        run_monotone(standard_pair, max_iter=2)
    for history, start in ((exc.value.lower, standard_pair.alpha),
                           (exc.value.upper, standard_pair.beta)):
        assert type(history) is tuple and len(history) == 3
        assert history[0] is start


def test_non_convergence_tolerated_when_not_strict(standard_pair):
    v = run_monotone(standard_pair, max_iter=2, strict=False)
    assert v.status == "max-iters"
    assert not v.certified


def test_uncertifiable_configuration_refused_when_strict():
    p_big = long_span_problem()
    pair = make_sine_pair(p_big, 4.6, 501)
    with pytest.raises(NotApplicable):
        run_monotone(pair, max_iter=8)


def test_uncertifiable_run_reports_violation_when_forced():
    p_big = long_span_problem()
    pair = make_sine_pair(p_big, 4.6, 501)
    v = run_monotone(pair, max_iter=8, strict=False)
    assert v.status == "monotonicity-violation"
    assert not v.certified
    assert v.pair.rho > 1.0
    assert len(v.warnings) > 0


def test_default_amplitude_is_span_over_hundred():
    # a gentle enough load admits the default bracket; its recorded
    # amplitude is L/100
    gentle = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=LoadSpec((Constant(0.001),)))
    v = iterate_melan(gentle, grid_points=501)
    assert v.pair.lam == pytest.approx(0.02, rel=1e-13)
    assert v.status == "converged"


# ---------------------------------------------------------------------------
# prepared linear operator


def test_one_run_prepares_the_linear_operator_once(monkeypatch):
    # Every sweep solves with the bracket's fixed (M, N, L, grid), so the
    # kernel profiles and the sampled-load profile are built once per run,
    # not once per solve.
    import melan.linear
    import melan.monotone

    # The last bracket is kept for the next pair; start without one.
    melan.monotone._bracket.cache_clear()
    calls = {"_row_integrals": 0, "simpson_weights": 0}
    for name in calls:
        original = getattr(melan.linear, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(melan.linear, name, counted)
    problem = standard_problem()
    verdict = run_monotone(make_sine_pair(problem, LAM, 501))
    assert verdict.iterations >= 3
    # psi and gm_row_integral on the grid from one kernel profile; one set of
    # Simpson weights, since the samples sit on the grid and share its weights.
    assert calls == {"_row_integrals": 1, "simpson_weights": 1}


def test_pair_operator_is_built_with_the_pair():
    pair = make_sine_pair(standard_problem(), LAM, 101)
    op = pair.operator
    assert (op.M, op.N, op.L, op.grid_points) == (pair.M, pair.N, 2.0, 101)
    assert np.array_equal(op.grid, pair.grid)


def test_array_records_compare_by_identity():
    # Records holding arrays compare by identity, so == answers instead of
    # raising on an array's ambiguous truth value.  Pairs of one bracket
    # share its Iterates, so the Iterate case takes two brackets.
    problem = standard_problem()
    pairs = [make_sine_pair(problem, LAM, 101) for _ in range(2)]
    other = make_sine_pair(problem, 2.0 * LAM, 101)
    linear = LinearProblem(M=1.0, N=0.2, L=2.0, load=LoadSpec((Constant(1.0),)))
    solutions = [solve_linear(linear, grid_points=101) for _ in range(2)]
    run = run_monotone(pairs[0])
    for first, second in (pairs, solutions, (pairs[0].beta, other.beta),
                          (run, run_monotone(pairs[1]))):
        assert first != second
        assert first == first and second == second


def test_diverging_forced_run_reports_the_divergence():
    # rho = 3.55: the forced run's iterates grow until a sweep overflows; the
    # error names the divergence, and numpy warns nothing on the way
    problem = MelanProblem(a=0.0396182, b=0.343970, c=0.0118043, L=4.74655,
                           load=LoadSpec((Constant(0.9),)))
    pair = make_sine_pair(problem, 0.171734, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution,
                           match=r"the (lower|upper) iterates diverge: sweep \d+ overflows "
                                 r"\(previous integral -?\d"):
            run_monotone(pair, max_iter=20, strict=False)


def test_overflowing_sine_curvature_raises():
    with pytest.raises(NonFiniteSolution, match="curvature overflows"):
        make_sine_pair(standard_problem(), 1e308, 101)


def test_overflowing_sine_model_raises_without_warning():
    # finite curvature lam*(pi/L)**2 = 1e171, but lam*(pi/L)**4 overflows in
    # numpy's product with the samples
    problem = MelanProblem(0.1, 0.1, 0.1, 1e-70, LoadSpec((Constant(0.1),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution, match="sine bound's model overflows"):
            make_sine_pair(problem, 1e30, 11)


# ---------------------------------------------------------------------------
# the load is sampled once per run


def sampled_load_problem():
    x = np.linspace(0.0, 2.0, 201)
    load = LoadSpec((Sampled(0.1 + 0.02 * np.sin(3.0 * x)),))
    return MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0, load=load)


def span_100_problem():
    # example_6_2 in scaled form, as solve_bridge builds it
    bp = BridgeParams(L=100.0, EI=4.557e8, EcAc=4121700.0, Lc=103.2,
                      n=1.0 / 9.0, H=19850.4)
    rep = applicability(bp)
    load = LoadSpec((Constant(200.0 / bp.EI),))
    return MelanProblem(a=rep.a, b=rep.b, c=rep.c, L=bp.L, load=load), rep.lam


def test_one_run_evaluates_the_load_once(monkeypatch):
    calls = []
    original = LoadSpec.evaluate

    def counted(self, x, length):
        calls.append(self)
        return original(self, x, length)

    monkeypatch.setattr(LoadSpec, "evaluate", counted)
    problem = standard_problem()
    verdict = run_monotone(make_sine_pair(problem, LAM, 501))
    assert verdict.iterations >= 3
    assert calls == [problem.load]


@pytest.mark.parametrize("case", ["example_6_2", "sampled-load"])
def test_every_sweep_rebuilds_from_a_fresh_load_sample(case):
    problem, lam = span_100_problem() if case == "example_6_2" else (sampled_load_problem(), LAM)
    pair = make_sine_pair(problem, lam, 1001)
    v = run_monotone(pair)
    assert v.certified and v.iterations >= 3
    a, b, c, L = problem.a, problem.b, problem.c, problem.L
    for iterates in (v.lower, v.upper):
        for prev, got in zip(iterates, iterates[1:]):
            F = (problem.load.evaluate(pair.grid, L)
                 + (a - pair.M + b * prev.integral) * prev.ypp
                 + (pair.N - c) * prev.integral)
            sol = solve_linear(LinearProblem(pair.M, pair.N, L, LoadSpec((Sampled(F),))),
                               grid_points=1001, operator=pair.operator)
            assert sol.y.tobytes() == got.y.tobytes()
            assert sol.ypp.tobytes() == got.ypp.tobytes()
            assert sol.integral_y == got.integral


def test_load_samples_are_read_only(standard_pair):
    samples = standard_pair.p
    assert not samples.flags.writeable
    with pytest.raises(ValueError):
        samples[0] = 1.0
