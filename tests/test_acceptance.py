"""Acceptance gate: eleven criteria, one test and one pass/fail line each.

Each criterion collects every failing sub-check into a list and asserts at
the end, so a failure message enumerates all deviations at once.  Targets
are tabulated reference values; tolerances are part of the contract and are
asserted exactly as stated, even where the implementation's own converged
numbers are known to sit outside them (those deviations are regressions in
the tabulated values, not in the solver — see the failure messages).
"""

import warnings

import numpy as np
import pytest

from melan import (
    Affine,
    BridgeParams,
    Constant,
    FdConfig,
    KernelParams,
    LinearProblem,
    LoadSpec,
    MelanProblem,
    Sampled,
    SineHalfWave,
    applicability,
    cable_length,
    check_positivity,
    derive_coefficients,
    fd_solve_linear,
    fd_solve_nonlinear,
    iterate_melan,
    psi,
    sigma,
    solve_bridge,
    solve_linear,
    zeta,
)

C0 = 2.75 - 6.0 * np.tanh(0.5)


def span_150():
    return BridgeParams(L=150.0, EI=4.557e8, EcAc=4121730.0, Lc=163.2, n=0.2,
                        H=16542.0)


def span_100():
    return BridgeParams(L=100.0, EI=4.557e8, EcAc=4121700.0, Lc=103.2,
                        n=1.0 / 9.0, H=19850.4)


def span_460():
    return BridgeParams(L=460.0, EI=5.7e7, EcAc=3.6e7, Lc=472.0, n=0.1,
                        H=97750.0)


@pytest.fixture(scope="module")
def run_51():
    problem = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0,
                           load=LoadSpec((Constant(0.1),)))
    return problem, iterate_melan(problem, lam=np.pi / 4.0, grid_points=1001)


@pytest.fixture(scope="module")
def run_62():
    return solve_bridge(span_100(), LoadSpec((Constant(200.0),)),
                        grid_points=1001)


@pytest.fixture(scope="module")
def run_63_forced():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_bridge(span_460(), LoadSpec((Constant(20.0),)),
                            grid_points=1001, max_iter=8, force=True)


def verdict(name, failures):
    if failures:
        print(f"{name}: FAIL — " + "; ".join(failures))
    else:
        print(f"{name}: PASS")
    assert not failures, f"{name}: " + "; ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------


def test_criterion_01_analytic_linear_benchmark():
    problem = LinearProblem(M=1.0, N=1.0, L=1.0,
                            load=LoadSpec((Affine(C0, -6.0),)))
    sol = solve_linear(problem, grid_points=1001)
    x = sol.grid
    exact = 5.0 * x - 6.0 * np.sinh(x) / np.sinh(1.0) + x ** 3
    failures = []
    sup = float(np.max(np.abs(sol.y - exact)))
    check(failures, sup < 1e-8, f"sup-norm error {sup:.3e} >= 1e-8")
    # the tabulated deflection 0.03545665 is the midspan sample of the
    # exact solution (the interior extremum, 0.0355306 at x = 0.520, is
    # slightly deeper because the load is not symmetric)
    mid = abs(sol.y[500])
    check(failures, abs(mid - 0.03545665) <= 1e-6,
          f"deflection {mid:.8f} vs 0.03545665 off by {abs(mid - 0.03545665):.2e}")
    verdict("criterion 1", failures)


def test_criterion_02_constant_load_benchmark():
    problem = LinearProblem(M=1.0, N=1.0, L=2.0, load=LoadSpec((Constant(-5.0),)))
    sol = solve_linear(problem, grid_points=1001)
    failures = []
    mid = abs(sol.y[500])
    check(failures, abs(mid - 0.6222) <= 5e-4,
          f"max |y(1)| {mid:.6f} vs 0.6222 off by {abs(mid - 0.6222):.2e}")
    kp = KernelParams(1.0, 2.0)
    closed = -5.0 * float(psi(1.0, kp)) / (1.0 + 1.0 * zeta(kp))
    check(failures, abs(sol.y[500] - closed) <= 1e-12 * abs(closed),
          f"closed-form cross-check differs by {abs(sol.y[500] - closed):.3e}")
    verdict("criterion 2", failures)


def test_criterion_03_sigma_golden_values():
    failures = []
    for x, want, tol in ((0.894427, 24.219, 0.01),
                         (0.9653, 20.6858, 0.01),
                         (32.0, 1.383e-11, 0.01 * 1.383e-11)):
        got = sigma(x)
        check(failures, abs(got - want) <= tol,
              f"sigma({x}) = {got:.6g} vs {want} (tol {tol:.2g})")
    verdict("criterion 3", failures)


def test_criterion_04_iteration_benchmark(run_51):
    _, v = run_51
    al, be = v.lower, v.upper
    a1 = float(np.max(np.abs(al[1].y)))
    b1 = float(np.max(np.abs(be[1].y)))
    a2 = float(np.max(np.abs(al[2].y)))
    b2 = float(np.max(np.abs(be[2].y)))
    failures = []
    check(failures, abs(a1 - 0.01795) <= 2e-4,
          f"first lower iterate max {a1:.6f} vs 0.01795 +- 2e-4")
    check(failures, abs(b1 - 0.05274) <= 5e-4,
          f"first upper iterate max {b1:.6f} vs 0.05274 +- 5e-4")
    check(failures, abs(a2 - 0.019259) <= 0.03 * 0.019259,
          f"second lower iterate max {a2:.6f} vs 0.019259 +- 3%")
    check(failures, abs(b2 - 0.021718) <= 0.03 * 0.021718,
          f"second upper iterate max {b2:.6f} vs 0.021718 +- 3%")
    verdict("criterion 4", failures)


def test_criterion_05_coefficient_triples():
    targets = {
        "span-150": (span_150(), (3.63e-5, 5.5e-7, 5.5e-9)),
        "span-100": (span_100(), (4.356e-5, 7.7898e-7, 6.9236e-9)),
        "span-460": (span_460(), (0.00171, 2.326e-6, 4.045e-9)),
    }
    failures = []
    for tag, (bp, want) in targets.items():
        got = derive_coefficients(bp)
        for label, g, w in zip("abc", got, want):
            rel = abs(g - w) / abs(w)
            check(failures, rel <= 0.01,
                  f"{tag} {label} = {g:.6g} vs {w:.6g} (off {rel:.2%})")
    length = cable_length(100.0, 0.008888)
    check(failures, abs(length - 103.2) <= 0.1,
          f"cable length {length:.4f} vs 103.2 +- 0.1")
    verdict("criterion 5", failures)


def test_criterion_06_applicability_verdicts():
    failures = []
    r1 = applicability(span_150())
    check(failures, r1.verdict == "not-applicable",
          f"span-150 verdict {r1.verdict}, expected not-applicable")
    rel = abs(r1.N - 5.839e-9) / 5.839e-9
    check(failures, rel <= 0.01,
          f"span-150 lhs N = {r1.N:.6g} vs 5.839e-9 (off {rel:.2%})")
    rel = abs(r1.positivity.rhs - 1.01e-9) / 1.01e-9
    check(failures, rel <= 0.01,
          f"span-150 rhs = {r1.positivity.rhs:.6g} vs 1.01e-9 (off {rel:.2%})")

    r2 = applicability(span_100())
    check(failures, r2.verdict == "certified-unique",
          f"span-100 verdict {r2.verdict}, expected certified-unique")
    rel = abs(r2.N - 7.6916e-9) / 7.6916e-9
    check(failures, rel <= 0.01,
          f"span-100 lhs N = {r2.N:.6g} vs 7.6916e-9 (off {rel:.2%})")
    rel = abs(r2.positivity.rhs - 7.7097e-9) / 7.7097e-9
    check(failures, rel <= 0.01,
          f"span-100 rhs = {r2.positivity.rhs:.6g} vs 7.7097e-9 (off {rel:.2%})")

    r3 = applicability(span_460())
    check(failures, r3.verdict == "not-applicable",
          f"span-460 verdict {r3.verdict}, expected not-applicable")
    rel = abs(r3.positivity.rhs - 2.754e-21) / 2.754e-21
    check(failures, rel <= 0.01,
          f"span-460 rhs = {r3.positivity.rhs:.6g} vs 2.754e-21 (off {rel:.2%})")
    verdict("criterion 6", failures)


def test_criterion_07_full_run_maxima(run_62, run_63_forced):
    failures = []
    al = run_62.monotone.lower
    be = run_62.monotone.upper
    got = (float(np.max(np.abs(al[1].y))), float(np.max(np.abs(be[1].y))),
           float(np.max(np.abs(al[2].y))), float(np.max(np.abs(be[2].y))))
    want = (0.3342, 0.3709, 0.35151, 0.35319)
    for g, w in zip(got, want):
        rel = abs(g - w) / w
        check(failures, rel <= 0.01,
              f"span-100 iterate max {g:.6f} vs {w} (off {rel:.2%})")

    al3 = run_63_forced.monotone.lower
    be3 = run_63_forced.monotone.upper
    g = float(np.max(np.abs(al3[1].y)))
    rel = abs(g - 0.223607) / 0.223607
    check(failures, rel <= 0.005,
          f"span-460 first lower max {g:.6f} vs 0.223607 (off {rel:.2%})")
    g = float(np.max(np.abs(be3[1].y)))
    rel = abs(g - 0.22435) / 0.22435
    check(failures, rel <= 0.005,
          f"span-460 first upper max {g:.6f} vs 0.22435 (off {rel:.2%})")
    verdict("criterion 7", failures)


def test_criterion_08_maximum_principle_fuzz():
    rng = np.random.default_rng(2024)
    failures = []
    count = 0
    tries = 0
    worst_y = 0.0
    worst_pp = 0.0
    while count < 100 and tries < 3000:
        tries += 1
        M = float(rng.uniform(0.02, 20.0))
        L = float(rng.uniform(0.5, 8.0))
        N = float(rng.uniform(0.0, check_positivity(M, 0.0, L).rhs))
        if not check_positivity(M, N, L).satisfied:
            continue
        kind = int(rng.integers(0, 3))
        if kind == 0:
            load = LoadSpec((Constant(float(rng.uniform(0.0, 3.0))),))
        elif kind == 1:
            load = LoadSpec((SineHalfWave(float(rng.uniform(0.0, 3.0))),))
        else:
            load = LoadSpec((Sampled(tuple(rng.uniform(0.0, 2.0, size=31))),))
        sol = solve_linear(LinearProblem(M=M, N=N, L=L, load=load),
                           grid_points=501)
        scale = max(1.0, float(np.max(np.abs(sol.y))))
        worst_y = min(worst_y, float(np.min(sol.y)) / scale)
        worst_pp = max(worst_pp, float(np.max(sol.ypp)) / scale)
        count += 1
    check(failures, count == 100, f"only {count} admissible instances drawn")
    check(failures, worst_y >= -1e-10,
          f"deflection dips to {worst_y:.3e} x scale below zero")
    check(failures, worst_pp <= 1e-10,
          f"curvature rises to {worst_pp:.3e} x scale above zero")
    verdict("criterion 8", failures)


def test_criterion_09_ordering_and_gap_bounds(run_51, run_62):
    problem, v51 = run_51
    certified_runs = [("standard", v51), ("span-100", run_62.monotone)]
    # two further certified instances so the property is not vacuous
    for factor in (0.2, 0.5):
        scaled = MelanProblem(a=0.1, b=0.1, c=0.1, L=2.0,
                              load=problem.load.scaled(factor))
        certified_runs.append(
            (f"scaled-{factor}", iterate_melan(scaled, lam=np.pi / 4.0,
                                               grid_points=501)))
    failures = []
    for tag, v in certified_runs:
        check(failures, v.certified, f"{tag}: run is not certified")
        al, be = v.lower, v.upper
        scale = 1e-9 * max(1.0, float(np.max(np.abs(be[0].y))))
        for k in range(1, min(len(al), len(be))):
            ok = (np.max(al[k - 1].y - al[k].y) <= scale
                  and np.max(al[k].y - be[k].y) <= scale
                  and np.max(be[k].y - be[k - 1].y) <= scale)
            check(failures, ok, f"{tag}: ordering chain broken at sweep {k}")
        for n in range(min(len(al), len(be))):
            gap = float(np.max(np.abs(be[n].y - al[n].y)))
            check(failures, gap <= v.gap_bounds[n] + 1e-12,
                  f"{tag}: gap {gap:.3e} exceeds bound {v.gap_bounds[n]:.3e} "
                  f"at sweep {n}")
    verdict("criterion 9", failures)


def test_criterion_10_oracle_equivalence(run_51, run_62):
    failures = []
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        M = float(rng.uniform(0.01, 10.0))
        L = float(rng.uniform(0.5, 10.0))
        N = float(rng.uniform(0.0, 0.5 * 8.0 * M / L ** 3))
        terms = [Constant(float(rng.uniform(-3, 3)))]
        if rng.random() < 0.5:
            terms.append(SineHalfWave(float(rng.uniform(-3, 3))))
        if rng.random() < 0.5:
            terms.append(Affine(float(rng.uniform(-1, 1)),
                                float(rng.uniform(-1, 1))))
        pr = LinearProblem(M=M, N=N, L=L, load=LoadSpec(tuple(terms)))
        fd = fd_solve_linear(pr, FdConfig(points=2001))
        ref = solve_linear(pr, grid_points=2001)
        scale = float(np.max(np.abs(ref.y)))
        if scale < 1e-14:
            continue
        worst = max(worst, float(np.max(np.abs(fd.y - ref.y))) / scale)
    check(failures, worst < 5e-4,
          f"worst linear oracle disagreement {worst:.3e} >= 5e-4")

    # nonlinear limits inside every bracket, to within the oracle's own
    # 5e-4 relative discretization budget
    problem, v51 = run_51
    nl = fd_solve_nonlinear(problem, FdConfig(points=2001, newton_tol=5e-5))
    grid = v51.pair.grid
    w = np.interp(grid, nl.grid, nl.y)
    slack = 5e-4 * float(np.max(np.abs(nl.y)))
    for k, it in enumerate(v51.lower):
        check(failures, float(np.max(it.y - w)) <= slack,
              f"standard: limit below lower iterate {k}")
    for k, it in enumerate(v51.upper):
        check(failures, float(np.min(it.y - w)) >= -slack,
              f"standard: limit above upper iterate {k}")

    bp = span_100()
    a, b, c = derive_coefficients(bp)
    p62 = MelanProblem(a=a, b=b, c=c, L=100.0,
                       load=LoadSpec((Constant(200.0 / bp.EI),)))
    nl62 = fd_solve_nonlinear(p62, FdConfig(points=2001, newton_tol=1e-9,
                                            damping=1.0))
    grid = run_62.monotone.pair.grid
    w = np.interp(grid, nl62.grid, nl62.y)
    slack = 5e-4 * float(np.max(np.abs(nl62.y)))
    for k, it in enumerate(run_62.monotone.lower):
        check(failures, float(np.max(it.y - w)) <= slack,
              f"span-100: limit below lower iterate {k}")
    for k, it in enumerate(run_62.monotone.upper):
        check(failures, float(np.min(it.y - w)) >= -slack,
              f"span-100: limit above upper iterate {k}")
    verdict("criterion 10", failures)


def test_criterion_11_sigma_asymptotics():
    failures = []
    xs = np.logspace(-3, np.log10(50.0), 400)
    vals = xs ** 2 * np.array([sigma(float(x)) for x in xs])
    check(failures, bool(np.all(np.diff(vals) < 0.0)),
          "x^2 sigma(x) is not strictly decreasing on the log grid")
    sup = float(np.max(vals))
    check(failures, sup <= 20.0 + 1e-9, f"sup {sup:.12f} exceeds 20 + 1e-9")
    check(failures, vals[0] >= 19.99,
          f"value at 1e-3 is {vals[0]:.6f}, below 19.99")
    verdict("criterion 11", failures)
