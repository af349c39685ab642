"""Closed-form linear solver: analytic benchmarks, identities, Picard bounds.

The two named benchmarks used throughout:

* benchmark A — M = N = L = 1, affine load chosen so that the exact solution
  is y(x) = 5x - 6 sinh x / sinh 1 + x**3;
* benchmark B — M = N = 1, L = 2, constant load p = -5, whose solution is
  the pure constant-load closed form y = p*Psi(x)/(1 + N*zeta).
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melan import (
    Affine,
    Constant,
    Cubic,
    KernelParams,
    LinearOperator,
    LinearProblem,
    LoadSpec,
    Sampled,
    SineHalfWave,
    SinhTerm,
    gp_convolution,
    green_g,
    green_g0,
    load_moment_g,
    picard_iterate,
    psi,
    residual,
    solve_linear,
    zeta,
)
from melan.errors import NonFiniteSolution, NotContractive, SingularResonance
from melan.linear import _convolve_term
from melan.quadrature import simpson_weights, uniform_grid

C0 = 2.75 - 6.0 * np.tanh(0.5)  # affine intercept of benchmark A


def problem_a():
    return LinearProblem(M=1.0, N=1.0, L=1.0, load=LoadSpec((Affine(C0, -6.0),)))


def problem_b():
    return LinearProblem(M=1.0, N=1.0, L=2.0, load=LoadSpec((Constant(-5.0),)))


# ---------------------------------------------------------------------------
# benchmark A — fully analytic


def test_benchmark_a_matches_analytic_solution():
    sol = solve_linear(problem_a(), grid_points=1001)
    x = sol.grid
    y_exact = 5.0 * x - 6.0 * np.sinh(x) / np.sinh(1.0) + x ** 3
    assert np.max(np.abs(sol.y - y_exact)) < 1e-12


def test_benchmark_a_second_derivative_is_analytic():
    # y'' comes from a closed formula, never from differencing y
    sol = solve_linear(problem_a(), grid_points=1001)
    x = sol.grid
    ypp_exact = -6.0 * np.sinh(x) / np.sinh(1.0) + 6.0 * x
    assert np.max(np.abs(sol.ypp - ypp_exact)) < 1e-12


def test_benchmark_a_midspan_and_integral():
    sol = solve_linear(problem_a(), grid_points=1001)
    assert sol.y[500] == pytest.approx(-0.035456651910221584, rel=1e-12)
    # integral of the exact solution equals the affine intercept C0
    assert sol.integral_y == pytest.approx(C0, abs=2e-13)


def test_benchmark_a_interior_maximum_exceeds_midspan():
    # the load is not symmetric, so the true extremum sits near x = 0.52,
    # slightly deeper than the midspan deflection
    sol = solve_linear(problem_a(), grid_points=1001)
    peak = np.max(np.abs(sol.y))
    assert peak == pytest.approx(0.035530618781420185, rel=1e-12)
    assert sol.grid[np.argmax(np.abs(sol.y))] == pytest.approx(0.521, abs=2e-3)


def test_benchmark_a_residual():
    sol = solve_linear(problem_a(), grid_points=1001)
    assert residual(sol, problem_a()) < 1e-8


# ---------------------------------------------------------------------------
# benchmark B — constant-load closed form


def test_benchmark_b_midspan_value():
    sol = solve_linear(problem_b(), grid_points=1001)
    assert sol.y[500] == pytest.approx(-0.6221525998101097, rel=1e-12)
    assert np.max(np.abs(sol.y)) == pytest.approx(0.6221525998101097, rel=1e-12)


def test_benchmark_b_equals_constant_load_closed_form():
    sol = solve_linear(problem_b(), grid_points=1001)
    kp = KernelParams(1.0, 2.0)
    denom = 1.0 + 1.0 * zeta(kp)
    expected = -5.0 * np.asarray(psi(sol.grid, kp)) / denom
    assert np.max(np.abs(sol.y - expected)) < 1e-13


def test_benchmark_b_residual_at_fine_grid():
    sol = solve_linear(problem_b(), grid_points=2001)
    assert residual(sol, problem_b()) < 1e-8


# ---------------------------------------------------------------------------
# structural identities of the solution formula


def all_simpson_solution(problem, grid_points, ns=4001):
    """Evaluate the solution formula with every integral done by Simpson."""
    L = problem.L
    kp = KernelParams(problem.M, L)
    xg = uniform_grid(L, grid_points)
    sg = uniform_grid(L, ns)
    w = simpson_weights(ns, sg[1] - sg[0])
    pv = problem.load.evaluate(sg, L)
    conv = green_g(xg[:, None], sg[None, :], kp) @ (w * pv)
    lam = float(simpson_weights(grid_points, xg[1] - xg[0]) @ conv)
    return conv - problem.N * np.asarray(psi(xg, kp)) * lam / (
        1.0 + problem.N * zeta(kp)
    )


def test_solution_formula_matches_all_quadrature_evaluation():
    rng = np.random.default_rng(3)
    for _ in range(4):
        M = float(rng.uniform(0.05, 5.0))
        L = float(rng.uniform(0.8, 4.0))
        N = float(rng.uniform(0.0, 0.5 * 8.0 * M / L ** 3))
        load = LoadSpec(
            (
                Affine(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
                SineHalfWave(float(rng.uniform(-2, 2))),
            )
        )
        pr = LinearProblem(M=M, N=N, L=L, load=load)
        sol = solve_linear(pr, grid_points=501)
        ref = all_simpson_solution(pr, grid_points=501)
        scale = np.max(np.abs(sol.y))
        assert np.max(np.abs(sol.y - ref)) < 1e-7 * max(scale, 1e-6)


def test_solution_reconstructs_from_second_derivative():
    # y(x) = -integral of g0(x, t) y''(t); checked at Simpson panel
    # boundaries where the kernel kink does not degrade the quadrature
    for pr in (problem_a(), problem_b()):
        sol = solve_linear(pr, grid_points=1001)
        xg = sol.grid
        w = simpson_weights(xg.size, xg[1] - xg[0])
        rec = green_g0(xg[:, None], xg[None, :], pr.L) @ (w * (-sol.ypp))
        err = np.abs((rec - sol.y)[::2])
        assert np.max(err) < 1e-10 * np.max(np.abs(sol.y))


def test_boundary_values_are_exactly_zero():
    for pr in (problem_a(), problem_b()):
        sol = solve_linear(pr, grid_points=501)
        assert sol.y[0] == 0.0
        assert sol.y[-1] == 0.0


# ---------------------------------------------------------------------------
# load-moment and convolution helpers


def test_load_moment_of_unit_load_is_zeta():
    pr = LinearProblem(M=2.0, N=0.0, L=3.0, load=LoadSpec((Constant(1.0),)))
    assert load_moment_g(pr) == pytest.approx(zeta(KernelParams(2.0, 3.0)), rel=1e-13)


def test_load_moment_matches_double_quadrature():
    lm = load_moment_g(problem_a())
    assert lm == pytest.approx(-0.022874751442155505, rel=1e-10)
    kp = KernelParams(1.0, 1.0)
    sg = uniform_grid(1.0, 4001)
    w = simpson_weights(4001, sg[1] - sg[0])
    pv = problem_a().load.evaluate(sg, 1.0)
    conv = green_g(sg[:, None], sg[None, :], kp) @ (w * pv)
    assert lm == pytest.approx(float(w @ conv), rel=1e-12)


def test_gp_convolution_of_unit_load_is_psi():
    pr = LinearProblem(M=1.3, N=0.0, L=2.0, load=LoadSpec((Constant(1.0),)))
    got = gp_convolution(0.77, pr)
    assert got == pytest.approx(float(psi(0.77, KernelParams(1.3, 2.0))), rel=1e-13)


def test_gp_convolution_clips_roundoff_and_refuses_outside_the_span():
    pr = LinearProblem(M=1.3, N=0.0, L=2.0, load=LoadSpec((Constant(1.0),)))
    ends = gp_convolution(np.array([-1e-12, 2.0 + 1e-12]), pr)
    assert np.array_equal(ends, gp_convolution(np.array([0.0, 2.0]), pr))
    for outside in (-0.1, 2.1):
        with pytest.raises(ValueError):
            gp_convolution(outside, pr)


def test_gp_convolution_matches_quadrature():
    pr = LinearProblem(M=1.0, N=0.0, L=2.0, load=LoadSpec((Affine(0.4, -0.9),)))
    got = gp_convolution(0.7, pr)
    sg = uniform_grid(2.0, 8001)
    w = simpson_weights(8001, sg[1] - sg[0])
    quad = float(w @ (green_g(0.7, sg, KernelParams(1.0, 2.0)) * pr.load.evaluate(sg, 2.0)))
    assert got == pytest.approx(quad, rel=1e-8)


# ---------------------------------------------------------------------------
# Picard iteration


def test_picard_contracts_at_the_coupling_rate():
    exact = solve_linear(problem_b(), grid_points=1001)
    d = 1.0 * zeta(KernelParams(1.0, 2.0))
    errs = []
    for n in range(1, 10):
        it = picard_iterate(problem_b(), n, grid_points=1001)
        errs.append(np.max(np.abs(it.y - exact.y)))
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    assert max(ratios) <= d * (1.0 + 1e-6)


def test_picard_a_priori_bound():
    exact = solve_linear(problem_b(), grid_points=1001)
    d = 1.0 * zeta(KernelParams(1.0, 2.0))
    y0 = picard_iterate(problem_b(), 0, grid_points=1001)
    y1 = picard_iterate(problem_b(), 1, grid_points=1001)
    step0 = np.max(np.abs(y1.y - y0.y))
    for n in (2, 4, 6):
        err = np.max(np.abs(picard_iterate(problem_b(), n, grid_points=1001).y - exact.y))
        assert err <= d ** n * step0 / (1.0 - d)


def test_picard_reaches_machine_floor():
    exact = solve_linear(problem_a(), grid_points=1001)
    it = picard_iterate(problem_a(), 20, grid_points=1001)
    assert np.max(np.abs(it.y - exact.y)) < 1e-14


def test_picard_refuses_non_contractive_coupling():
    # |N * zeta| >= 1 makes the fixed-point map expansive
    pr = LinearProblem(M=1.0, N=6.0, L=2.0, load=LoadSpec((Constant(1.0),)))
    with pytest.raises(NotContractive):
        picard_iterate(pr, 3, grid_points=101)


# ---------------------------------------------------------------------------
# load term handling


def test_sampled_load_matches_analytic_term():
    xg = uniform_grid(2.0, 1001)
    sampled = LoadSpec((Sampled(tuple(3.0 * np.sin(np.pi * xg / 2.0))),))
    analytic = LoadSpec((SineHalfWave(3.0),))
    ss = solve_linear(LinearProblem(M=1.0, N=0.3, L=2.0, load=sampled), grid_points=1001)
    sa = solve_linear(LinearProblem(M=1.0, N=0.3, L=2.0, load=analytic), grid_points=1001)
    assert np.max(np.abs(ss.y - sa.y)) < 1e-10 * np.max(np.abs(sa.y))
    # piecewise-linear interpolation leaves its mark on y'' at the 1e-5 level
    assert np.max(np.abs(ss.ypp - sa.ypp)) < 1e-5 * np.max(np.abs(sa.ypp))


def dense_simpson_convolutions(values, x, M, L):
    """Reference: the Simpson sums as dense kernel-matrix products.

    The decay is exp(-mu*(hi - lo)), not exp(mu*(lo + (L - hi)) - mu*L): the
    second form cancels against mu*L and is off by about mu*L*eps.
    """
    mu = np.sqrt(M)
    ns = len(values)
    s = uniform_grid(L, ns)[None, :]
    lo = np.minimum(x[:, None], s)
    hi = np.maximum(x[:, None], s)
    num = np.expm1(-2.0 * mu * lo) * np.expm1(-2.0 * mu * (L - hi))
    den = -2.0 * np.expm1(-2.0 * mu * L)
    gm = np.exp(-mu * (hi - lo)) * num / den / mu
    g0 = lo * (L - hi) / L
    wp = simpson_weights(ns, L / (ns - 1)) * np.asarray(values)
    return gm @ wp, g0 @ wp


@pytest.mark.parametrize("muL", [1e-4, 0.66, 2.0, 700.0, 2000.0])
@pytest.mark.parametrize(
    "ns, positions",
    [(501, "grid"), (31, "grid"), (31, "shuffled")],
    ids=["501-on-501", "31-on-501", "31-on-37-shuffled"],
)
def test_sampled_convolution_matches_dense_simpson_sum(muL, ns, positions):
    L = 3.0
    M = (muL / L) ** 2
    rng = np.random.default_rng(ns)
    s = uniform_grid(L, ns)
    values = 1.0 + np.sin(3.0 * s) + 0.3 * rng.standard_normal(ns)
    if positions == "grid":
        x = uniform_grid(L, 501)
    else:
        x = rng.permutation(np.concatenate(([0.0, L], rng.uniform(0.0, L, 35))))
    A, B, _, _ = _convolve_term(Sampled(values), x, KernelParams(M, L))
    A_ref, B_ref = dense_simpson_convolutions(values, x, M, L)
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(B - B_ref)) <= 1e-12 * np.max(np.abs(B_ref))


def four_sum_convolutions(values, x, M, L):
    """Reference: the Simpson sums as four real running sums with index gathers.

    The damped gm sums and the plain g0 sums each run as their own real
    cumsum per direction, and the split at x is a gather at lo and hi; past
    mu*L = 300 the damped sums run in blocks of at most 300/mu.
    """
    mu = np.sqrt(M)
    ns = len(values)
    s = uniform_grid(L, ns)

    def P(t):
        return -np.expm1(-2.0 * mu * t)

    def damped_cumsum(a, t):
        out = np.empty_like(a)
        start = 0
        while start < t.size:
            r = t[start]
            stop = int(np.searchsorted(t, r + 300.0 / mu, side="right"))
            scale = np.exp(mu * (t[start:stop] - r))
            carry = out[start - 1] * np.exp(-mu * (r - t[start - 1])) if start else 0.0
            out[start:stop] = (carry + (scale * a[start:stop]).cumsum()) / scale
            start = stop
        return out

    lo = np.searchsorted(s, x, side="right") - 1
    hi = np.minimum(lo + 1, ns - 1)
    u = L - s[::-1]
    v = simpson_weights(ns, L / (ns - 1)) * values
    vr = v[::-1]
    fwd = damped_cumsum(P(s) * v, s)
    bwd = damped_cumsum(P(u) * vr, u)[::-1]
    left = P(L - x) * np.exp(-mu * (x - s[lo]))
    right = P(x) * np.exp(-mu * (s[hi] - x))
    A = (left * fwd[lo] + right * bwd[hi]) / (2.0 * mu * P(L))
    head = (s * v).cumsum()
    tail = (u * vr).cumsum()[::-1]
    B = ((L - x) * head[lo] + x * tail[hi]) / L
    wx = simpson_weights(x.size, L / (x.size - 1))
    return A, B, float(wx @ A), float(wx @ B)


@pytest.mark.parametrize("muL", [1e-4, 0.66, 2.0, 300.0, 700.0, 2000.0])
@pytest.mark.parametrize("ns", [501, 31])
def test_packed_running_sums_keep_the_four_real_sums(muL, ns):
    # Each direction packs its gm and g0 sums into one complex cumsum over
    # prepared coefficients, with every per-node factor folded in once.  The
    # folded products are reassociated, so on and off the operator's grid,
    # in one damping block or several, the parts agree with the four real
    # running sums to within roundoff.
    L, n = 3.0, 501
    M = (muL / L) ** 2
    s = uniform_grid(L, ns)
    values = 1.0 + np.sin(3.0 * s) + 0.3 * np.random.default_rng(ns).standard_normal(ns)
    op = LinearOperator(M, 0.0, L, n)
    got = op._profile_for(ns).convolve(values)
    want = four_sum_convolutions(values, op.grid, M, L)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@given(
    log_muL=st.floats(-4.0, float(np.log10(2000.0))),
    L=st.floats(0.5, 300.0),
    n=st.sampled_from([101, 501]),
    ns=st.one_of(st.none(), st.integers(1, 300).map(lambda k: 2 * k + 1)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prepared_convolution_matches_dense_simpson_sums(log_muL, L, n, ns, seed):
    # The prepared coefficients reassociate every product of the Simpson
    # sums; against the dense kernel-matrix sums they stay within 1e-13
    # relative, on the operator's own grid (ns = None) and off it, in one
    # damping block or several.
    ns = n if ns is None else ns
    M = (10.0**log_muL / L) ** 2
    values = np.random.default_rng(seed).uniform(0.1, 2.0, ns)
    op = LinearOperator(M, 0.0, L, n)
    A, B, intA, intB = op._profile_for(ns).convolve(values)
    A_ref, B_ref = dense_simpson_convolutions(values, op.grid, M, L)
    w = simpson_weights(n, L / (n - 1))
    for got, ref in ((A, A_ref), (B, B_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert intA == pytest.approx(float(w @ A_ref), rel=1e-13)
    assert intB == pytest.approx(float(w @ B_ref), rel=1e-13)


def _solution_bytes(sol):
    return sol.y.tobytes(), sol.ypp.tobytes(), np.float64(sol.integral_y).tobytes()


@pytest.mark.parametrize("muL", [1e-4, 0.66, 2.0, 700.0, 2000.0])
def test_reused_operator_is_bit_identical_to_a_fresh_solve(muL):
    L, n = 3.0, 501
    M = (muL / L) ** 2
    N = 0.3 * 8.0 * M / L**3
    rng = np.random.default_rng(5)
    loads = {}
    for ns in (n, 31):
        s = uniform_grid(L, ns)
        values = 1.0 + np.sin(3.0 * s) + 0.3 * rng.standard_normal(ns)
        loads[ns] = LoadSpec((Sampled(values),))
    loads["analytic"] = LoadSpec((Constant(1.5), SineHalfWave(-0.7)))
    op = LinearOperator(M, N, L, n)
    for _ in range(2):
        for key, load in loads.items():
            pr = LinearProblem(M=M, N=N, L=L, load=load)
            reused = solve_linear(pr, grid_points=n, operator=op)
            fresh = solve_linear(pr, grid_points=n)
            assert _solution_bytes(reused) == _solution_bytes(fresh), key
            if key == "analytic":
                continue
            # Same solve from the dense-matrix Simpson sums.
            values = load.terms[0].values
            A_ref, B_ref = dense_simpson_convolutions(values, op.grid, M, L)
            w = simpson_weights(n, L / (n - 1))
            lam = float(w @ (B_ref - A_ref)) / M
            integral = lam / (1.0 + N * op.zeta)
            y_ref = (B_ref - A_ref) / M - N * integral * op.psi
            scale = (np.max(np.abs(A_ref)) + np.max(np.abs(B_ref))) / M
            assert np.max(np.abs(reused.y - y_ref)[1:-1]) <= 1e-12 * scale
            assert reused.integral_y == pytest.approx(integral, rel=1e-12, abs=1e-12 * scale * L)
    # The cached sampled profile is the only one kept; past mu*L = 300 it
    # runs the multi-block damped sums.
    assert op._profile is not None and op._profile.ns == n
    assert (len(op._profile.fwd_blocks) > 1) == (muL > 300.0)


@pytest.mark.parametrize("field", ["M", "N", "L", "grid_points"])
def test_operator_for_other_coefficients_is_refused(field):
    built = {"M": 1.0, "N": 0.2, "L": 2.0, "grid_points": 101}
    op = LinearOperator(**built)
    wanted = dict(built)
    wanted[field] = {"M": 1.5, "N": 0.3, "L": 2.5, "grid_points": 201}[field]
    pr = LinearProblem(M=wanted["M"], N=wanted["N"], L=wanted["L"],
                       load=LoadSpec((Constant(1.0),)))
    with pytest.raises(ValueError, match="operator built for"):
        solve_linear(pr, grid_points=wanted["grid_points"], operator=op)


def test_closed_form_solves_build_no_sampled_profile():
    op = LinearOperator(1.0, 0.2, 2.0, 101)
    pr = LinearProblem(M=1.0, N=0.2, L=2.0, load=LoadSpec((Constant(1.0),)))
    solve_linear(pr, grid_points=101, operator=op)
    assert op._profile is None
    assert not op.grid.flags.writeable and not op.psi.flags.writeable


def test_sampled_solve_memory_is_linear_in_grid():
    # A dense n-by-n kernel matrix at 16001 points alone would take 2 GB.
    n = 16001
    xg = uniform_grid(100.0, n)
    load = LoadSpec((Sampled(1.0 + np.sin(np.pi * xg / 100.0)),))
    pr = LinearProblem(M=0.05, N=1e-6, L=100.0, load=load)
    tracemalloc.start()
    try:
        solve_linear(pr, grid_points=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_sampled_holds_a_read_only_float_copy():
    source = np.array([0.0, 1.0, 2.0])
    term = Sampled(source)
    source[1] = 5.0
    assert term.values.dtype == np.float64
    assert term.values[1] == 1.0
    with pytest.raises(ValueError):
        term.values[0] = 1.0
    assert np.array_equal(term.scaled(2.0).values, [0.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="odd"):
        Sampled([0.0, 1.0])


def test_empty_load_spec_rejected():
    with pytest.raises(ValueError, match="at least one term"):
        LoadSpec(())


def test_zero_load_gives_zero_solution():
    pr = LinearProblem(M=1.0, N=1.0, L=2.0, load=LoadSpec((Constant(0.0),)))
    sol = solve_linear(pr, grid_points=101)
    assert np.all(sol.y == 0.0)
    assert np.all(sol.ypp == 0.0)


# ---------------------------------------------------------------------------
# regimes and failure modes


def test_regime_labels():
    def regime(N):
        pr = LinearProblem(M=1.0, N=N, L=1.0, load=LoadSpec((Constant(1.0),)))
        return solve_linear(pr, grid_points=101).meta.regime

    assert regime(0.5) == "unconditional"
    assert regime(-0.5) == "small-coupling"
    assert regime(-80.0) == "unverified"


def test_singular_resonance_is_detected():
    z = zeta(KernelParams(1.0, 1.0))
    pr = LinearProblem(M=1.0, N=-1.0 / z, L=1.0, load=LoadSpec((Constant(1.0),)))
    with pytest.raises(SingularResonance):
        solve_linear(pr, grid_points=101)


@pytest.mark.parametrize(
    "solve",
    [solve_linear, load_moment_g, lambda pr: gp_convolution(50.0, pr)],
    ids=["solve_linear", "load_moment_g", "gp_convolution"],
)
def test_sinh_overflow_raises_without_warnings(solve):
    # rate*L = 800 > 710: sinh overflows; the raised error is the only signal.
    pr = LinearProblem(M=0.01, N=0.0, L=100.0, load=LoadSpec((SinhTerm(1.0, 8.0),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution, match="sinh load term"):
            solve(pr)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "solve",
    [
        lambda pr: solve_linear(pr, grid_points=101),
        lambda pr: picard_iterate(pr, 2, grid_points=101),
        lambda pr: gp_convolution(np.linspace(0.0, 2.0, 9), pr),
        lambda pr: load_moment_g(pr, grid_points=101),
    ],
    ids=["solve_linear", "picard_iterate", "gp_convolution", "load_moment_g"],
)
def test_non_finite_samples_raise(solve, bad):
    values = np.ones(101)
    values[40] = bad
    pr = LinearProblem(M=1.0, N=0.1, L=2.0, load=LoadSpec((Sampled(values),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSolution):
            solve(pr)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: Constant(v),
        lambda v: Affine(v, 1.0),
        lambda v: Affine(1.0, v),
        lambda v: SineHalfWave(v),
        lambda v: Cubic(v),
        lambda v: SinhTerm(v, 1.0),
        lambda v: SinhTerm(1.0, v),
    ],
    ids=["constant", "affine-c0", "affine-c1", "sine", "cubic", "sinh-coef", "sinh-rate"],
)
def test_non_finite_load_term_is_rejected(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


def test_even_grid_is_rejected():
    with pytest.raises(ValueError, match="odd"):
        solve_linear(problem_a(), grid_points=1000)


def test_invalid_problem_parameters_are_rejected():
    with pytest.raises(Exception):
        LinearProblem(M=-1.0, N=0.0, L=1.0, load=LoadSpec((Constant(1.0),)))
    with pytest.raises(Exception):
        LinearProblem(M=1.0, N=0.0, L=0.0, load=LoadSpec((Constant(1.0),)))


# ---------------------------------------------------------------------------
# randomized properties


@given(
    M=st.floats(0.05, 8.0),
    L=st.floats(0.6, 6.0),
    frac=st.floats(0.0, 0.5),
    amp=st.floats(-3.0, 3.0),
)
@settings(max_examples=30, deadline=None)
def test_random_instances_satisfy_equation_and_boundary(M, L, frac, amp):
    N = frac * 8.0 * M / L ** 3
    pr = LinearProblem(M=M, N=N, L=L, load=LoadSpec((Constant(1.0), SineHalfWave(amp))))
    sol = solve_linear(pr, grid_points=301)
    assert sol.y[0] == 0.0 and sol.y[-1] == 0.0
    assert residual(sol, pr) < 1e-6


def test_symmetric_load_gives_symmetric_solution():
    pr = LinearProblem(M=0.8, N=0.2, L=3.0, load=LoadSpec((Constant(2.0),)))
    sol = solve_linear(pr, grid_points=501)
    asym = np.max(np.abs(sol.y - sol.y[::-1]))
    assert asym < 1e-12 * np.max(np.abs(sol.y))
