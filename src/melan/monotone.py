"""Two-sided monotone iteration for the nonlinear nonlocal beam model.

The nonlinear model on [0, L] with hinged ends is

    y'''' - (a + b*integral(y))*y'' + c*integral(y) = p,

with a, b, c > 0.  Starting from an ordered pair of lower/upper bounding
functions (zero below, a half-wave sine above), each sweep solves the
linear model with frozen coefficients

    M = a + b*integral(beta0),    N = c + b*max(-beta0''),

feeding the previous iterate into the right-hand side.  The lower sequence
rises, the upper sequence falls, and under a contraction condition the gap
shrinks geometrically, bracketing the true solution at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .criteria import ConditionReport, check_positivity, check_uniqueness, contraction_rho
from .errors import (
    BoundUnavailable,
    InvalidPair,
    MonotonicityViolation,
    NotApplicable,
    NotConverged,
)
from .linear import GridSolution, LinearProblem, solve_linear
from .loads import LoadSpec, Sampled
# Unused here, but perfbench/tracer.py wraps melan.monotone.integrate.
from .quadrature import integrate, uniform_grid  # noqa: F401

__all__ = [
    "MelanProblem",
    "Iterate",
    "BoundPair",
    "IterationTrace",
    "MonotoneVerdict",
    "ZeroShape",
    "SineShape",
    "make_sine_pair",
    "verify_lower",
    "verify_upper",
    "iterate_once",
    "run_monotone",
    "error_bounds",
    "iterate_melan",
]


@dataclass(frozen=True)
class MelanProblem:
    """Coefficients and load of the nonlinear model; a, b, c must be > 0."""

    a: float
    b: float
    c: float
    L: float
    load: LoadSpec

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.load, LoadSpec):
            raise TypeError("load must be a LoadSpec")


@dataclass(frozen=True)
class Iterate:
    """One side of the bracket at one sweep: values, second derivative, integral."""

    y: np.ndarray
    ypp: np.ndarray
    integral: float


@dataclass(frozen=True)
class BoundPair:
    """An ordered bracket (alpha below, beta above) plus its frozen coefficients.

    `lower_shape`/`upper_shape` optionally carry the analytic candidates the
    samples came from, letting run_monotone verify the defining differential
    inequalities exactly instead of by finite differences.
    """

    grid: np.ndarray
    alpha: Iterate
    beta: Iterate
    M: float
    N: float
    lam: Optional[float] = None
    lower_shape: object = None
    upper_shape: object = None

    def validate(self, problem: MelanProblem) -> None:
        """Raise InvalidPair unless the bracket's defining inequalities hold.

        Checks that the lower bound is nonnegative with nonpositive
        curvature, the ordering alpha <= beta, the reversed ordering of
        second derivatives, and that the frozen coefficients dominate the
        running ones: M >= a + b*integral(beta) and N >= c + b*max(-beta'').
        """
        slack_y = 1e-9 * max(1.0, float(np.max(np.abs(self.beta.y))))
        slack_pp = 1e-9 * max(1.0, float(np.max(np.abs(self.beta.ypp))))
        if np.any(self.alpha.y < -slack_y):
            raise InvalidPair("lower bound dips below zero somewhere")
        if np.any(self.alpha.ypp > slack_pp):
            raise InvalidPair("lower bound has positive curvature somewhere")
        if np.any(self.alpha.y > self.beta.y + slack_y):
            raise InvalidPair("lower bound exceeds upper bound somewhere")
        if np.any(self.alpha.ypp < self.beta.ypp - slack_pp):
            raise InvalidPair("second derivatives of the pair are not reverse-ordered")
        need_m = problem.a + problem.b * self.beta.integral
        if self.M < need_m - 1e-12 * max(1.0, need_m):
            raise InvalidPair(f"M = {self.M} is below a + b*integral(beta) = {need_m}")
        need_n = problem.c + problem.b * max(float(np.max(-self.beta.ypp)), 0.0)
        if self.N < need_n - 1e-12 * max(1.0, need_n):
            raise InvalidPair(f"N = {self.N} is below c + b*max(-beta'') = {need_n}")


@dataclass(frozen=True)
class IterationTrace:
    """History of one side of the bracket; iterates[0] is the initial bound.

    `bounds[n]` is the a-priori sup-norm gap bound after n sweeps,
    (L**2/4) * rho**n * ||alpha0'' - beta0''||_inf (rho clamped at zero).
    """

    side: str
    iterates: Tuple[Iterate, ...]
    rho: float
    bounds: Tuple[float, ...]
    status: str


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of the two-sided iteration.

    `gap_bounds[n]` is the a-priori sup-norm bound (L**2/4)*rho**n times the
    initial curvature gap, alongside the observed `final_gap`.  `certified`
    is True only for a clean run: ordered, monotone, converged, with the
    bracket and positivity conditions verified.  `uniqueness` reports the
    strict condition under which the bracket pins down a single solution;
    it does not affect certification of the bracket itself.
    """

    lower: IterationTrace
    upper: IterationTrace
    grid: np.ndarray
    M: float
    N: float
    lam: Optional[float]
    rho: float
    gap_bounds: Tuple[float, ...]
    positivity: ConditionReport
    uniqueness: ConditionReport
    status: str
    iterations: int
    final_gap: float
    certified: bool
    warnings: Tuple[str, ...] = field(default=())

    @property
    def final_lower(self) -> Iterate:
        return self.lower.iterates[-1]

    @property
    def final_upper(self) -> Iterate:
        return self.upper.iterates[-1]

    @property
    def y(self) -> np.ndarray:
        """Midpoint of the final bracket, the best point estimate available."""
        return 0.5 * (self.final_lower.y + self.final_upper.y)

    @property
    def ypp(self) -> np.ndarray:
        return 0.5 * (self.final_lower.ypp + self.final_upper.ypp)

    @property
    def integral_y(self) -> float:
        return 0.5 * (self.final_lower.integral + self.final_upper.integral)


# ---------------------------------------------------------------------------
# Candidate bounding shapes


@dataclass(frozen=True)
class ZeroShape:
    """The zero function, the canonical lower bound for nonnegative loads."""

    def evaluate(self, x, length):
        return np.zeros_like(np.asarray(x, dtype=float))

    def second(self, x, length):
        return np.zeros_like(np.asarray(x, dtype=float))

    def fourth(self, x, length):
        return np.zeros_like(np.asarray(x, dtype=float))

    def integral(self, length) -> float:
        return 0.0


@dataclass(frozen=True)
class SineShape:
    """amplitude*sin(pi*x/L), the canonical upper bound shape."""

    amplitude: float

    def evaluate(self, x, length):
        return self.amplitude * np.sin(np.pi * np.asarray(x, dtype=float) / length)

    def second(self, x, length):
        return -((np.pi / length) ** 2) * self.evaluate(x, length)

    def fourth(self, x, length):
        return (np.pi / length) ** 4 * self.evaluate(x, length)

    def integral(self, length) -> float:
        return 2.0 * self.amplitude * length / np.pi


def _apply_model(shape, problem: MelanProblem, x: np.ndarray) -> np.ndarray:
    """Evaluate y'''' - (a + b*I)*y'' + c*I for a candidate shape on a grid."""
    I = shape.integral(problem.L)
    return (
        shape.fourth(x, problem.L)
        - (problem.a + problem.b * I) * shape.second(x, problem.L)
        + problem.c * I
    )


def verify_lower(
    shape, problem: MelanProblem, grid_points: int = 1001, tol: Optional[float] = None
) -> ConditionReport:
    """Check that a candidate is a lower bounding function for the model.

    The defining inequality is model(shape) <= p away from the ends; the
    report's lhs is the worst interior excess of model(shape) over p.
    """
    x = uniform_grid(problem.L, grid_points)
    p = problem.load.evaluate(x, problem.L)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(p))))
    defect = _apply_model(shape, problem, x) - p
    worst = float(np.max(defect[2:-2]))
    satisfied = worst <= tol
    return ConditionReport("lower-solution", worst, float(tol), satisfied, float(tol - worst))


def verify_upper(
    shape, problem: MelanProblem, grid_points: int = 1001, tol: Optional[float] = None
) -> ConditionReport:
    """Check that a candidate is an upper bounding function (model(shape) >= p)."""
    x = uniform_grid(problem.L, grid_points)
    p = problem.load.evaluate(x, problem.L)
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(p))))
    defect = p - _apply_model(shape, problem, x)
    worst = float(np.max(defect[2:-2]))
    satisfied = worst <= tol
    return ConditionReport("upper-solution", worst, float(tol), satisfied, float(tol - worst))


# ---------------------------------------------------------------------------
# Pair construction and iteration


def make_sine_pair(problem: MelanProblem, lam: float, grid_points: int = 1001) -> BoundPair:
    """Build the zero/sine bracket with its frozen linearization coefficients.

    M = a + b*(2*lam*L/pi) and N = c + b*lam*pi**2/L**2 are exactly the
    values needed for the sine bound, so the pair validates by
    construction.  lam = 0 degenerates to the (well-formed) equal pair
    alpha = beta = 0 with M = a, N = c.
    """
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    L = problem.L
    x = uniform_grid(L, grid_points)
    sine = SineShape(lam)
    beta = Iterate(
        y=sine.evaluate(x, L),
        ypp=sine.second(x, L),
        integral=sine.integral(L),
    )
    zero = np.zeros_like(x)
    alpha = Iterate(y=zero, ypp=zero.copy(), integral=0.0)
    M = problem.a + problem.b * beta.integral
    N = problem.c + problem.b * lam * np.pi**2 / L**2
    return BoundPair(
        grid=x,
        alpha=alpha,
        beta=beta,
        M=float(M),
        N=float(N),
        lam=float(lam),
        lower_shape=ZeroShape(),
        upper_shape=sine,
    )


def iterate_once(
    prev: Iterate,
    pair: BoundPair,
    problem: MelanProblem,
    grid_points: Optional[int] = None,
) -> Iterate:
    """One sweep of the iteration map applied to a single side of the bracket.

    Builds the frozen-coefficient right-hand side

        F = p + (a - M + b*I)*prev'' + (N - c)*I,    I = integral(prev),

    as a single sampled load on the pair's grid, then solves the linear
    model with (M, N).  Sampling the whole right side keeps both bracket
    sides on an identical numerical footing, which the ordering checks
    rely on.
    """
    if grid_points is None:
        grid_points = len(pair.grid)
    x = pair.grid
    I = prev.integral
    F = (
        problem.load.evaluate(x, problem.L)
        + (problem.a - pair.M + problem.b * I) * prev.ypp
        + (pair.N - problem.c) * I
    )
    linear = LinearProblem(
        M=pair.M, N=pair.N, L=problem.L, load=LoadSpec((Sampled(F),))
    )
    sol: GridSolution = solve_linear(linear, grid_points=grid_points)
    return Iterate(y=sol.y, ypp=sol.ypp, integral=sol.integral_y)


def _verify_pair(pair: BoundPair, problem: MelanProblem, grid_points: int,
                 strict: bool, warnings: List[str]) -> None:
    """Run the initial-bound checks, raising or warning per `strict`."""
    pair.validate(problem)
    reports = []
    if pair.lower_shape is not None:
        reports.append(verify_lower(pair.lower_shape, problem, grid_points))
    if pair.upper_shape is not None:
        reports.append(verify_upper(pair.upper_shape, problem, grid_points))
    if pair.lower_shape is None or pair.upper_shape is None:
        warnings.append(
            "pair carries no analytic candidate shapes; differential"
            " inequalities of the initial bounds were not verified"
        )
    for rep in reports:
        if not rep.satisfied:
            msg = (
                f"initial {rep.name} check fails by {rep.lhs:.6g} "
                f"(tolerance {rep.rhs:.6g})"
            )
            if strict:
                raise InvalidPair(msg)
            warnings.append(msg)


def run_monotone(
    problem: MelanProblem,
    pair: BoundPair,
    grid_points: Optional[int] = None,
    max_iter: int = 100,
    tol: Optional[float] = None,
    strict: bool = True,
) -> MonotoneVerdict:
    """Run the two-sided iteration from an ordered bracket.

    In strict mode the initial bounds are verified against the model and a
    failing positivity condition refuses to run (NotApplicable);
    monotonicity breaks raise MonotonicityViolation, and failure to reach
    `tol` within `max_iter` sweeps raises NotConverged (with traces
    attached).  With strict=False those conditions downgrade to warnings,
    the run continues, and the result is marked uncertified.
    """
    if grid_points is None:
        grid_points = len(pair.grid)
    warnings: List[str] = []

    positivity = check_positivity(pair.M, pair.N, problem.L)
    if not positivity.satisfied:
        msg = (
            f"positivity condition fails: N = {positivity.lhs:.6g} > "
            f"{positivity.rhs:.6g}; ordering of the sweeps is not guaranteed"
        )
        if strict:
            raise NotApplicable(msg)
        warnings.append(msg)

    _verify_pair(pair, problem, grid_points, strict, warnings)

    uniqueness = check_uniqueness(
        problem.a, problem.b, problem.c, pair.M, pair.N, problem.L,
        alpha_integral=pair.alpha.integral,
    )
    rho = contraction_rho(
        problem.a, problem.b, problem.c, pair.M, pair.N, problem.L,
        alpha_integral=pair.alpha.integral,
        alpha_ypp_max=max(float(np.max(pair.alpha.ypp)), 0.0),
    )
    if rho >= 1.0:
        warnings.append(
            f"contraction factor rho = {rho:.6g} >= 1: no a-priori convergence rate"
        )

    tol_y = 1e-9 * max(1.0, float(np.max(np.abs(pair.beta.y))))
    tol_pp = 1e-9 * max(1.0, float(np.max(np.abs(pair.beta.ypp))))
    gap0_pp = float(np.max(np.abs(pair.alpha.ypp - pair.beta.ypp)))
    gap = float(np.max(np.abs(pair.beta.y - pair.alpha.y)))
    if tol is None:
        tol = 1e-8 * max(1.0, gap)

    alphas = [pair.alpha]
    betas = [pair.beta]
    gap_bounds = [(problem.L**2 / 4.0) * gap0_pp]
    status = "converged" if gap < tol else "max-iters"
    violated = False
    iterations = 0

    while status == "max-iters" and iterations < max_iter:
        n = iterations + 1
        new_alpha = iterate_once(alphas[-1], pair, problem, grid_points)
        new_beta = iterate_once(betas[-1], pair, problem, grid_points)

        checks = [
            ("lower iterates must not descend", np.max(alphas[-1].y - new_alpha.y), tol_y),
            ("upper iterates must not ascend", np.max(new_beta.y - betas[-1].y), tol_y),
            ("lower curvature must not ascend", np.max(new_alpha.ypp - alphas[-1].ypp), tol_pp),
            ("upper curvature must not descend", np.max(betas[-1].ypp - new_beta.ypp), tol_pp),
            ("bracket ordering must hold", np.max(new_alpha.y - new_beta.y), tol_y),
            ("bracket curvature ordering must hold", np.max(new_beta.ypp - new_alpha.ypp), tol_pp),
        ]
        for label, excess, allowance in checks:
            if excess > allowance:
                msg = f"sweep {n}: {label} (excess {float(excess):.6g})"
                if strict:
                    raise MonotonicityViolation(msg)
                warnings.append(msg)
                violated = True

        alphas.append(new_alpha)
        betas.append(new_beta)
        gap_bounds.append((problem.L**2 / 4.0) * max(rho, 0.0) ** n * gap0_pp)
        iterations = n
        gap = float(np.max(np.abs(new_beta.y - new_alpha.y)))
        if gap < tol:
            status = "converged"

    if violated:
        status = "monotonicity-violation"

    if status != "converged":
        if strict and not violated:
            trace_l = IterationTrace("lower", tuple(alphas), float(rho), tuple(gap_bounds), status)
            trace_u = IterationTrace("upper", tuple(betas), float(rho), tuple(gap_bounds), status)
            raise NotConverged(
                f"bracket width {gap:.6g} after {iterations} sweeps (tolerance {tol:.6g})",
                lower=trace_l,
                upper=trace_u,
            )
        warnings.append(
            f"stopped with bracket width {gap:.6g} after {iterations} sweeps"
            f" (tolerance {tol:.6g})"
        )

    certified = status == "converged" and not violated and not warnings
    bounds = tuple(gap_bounds)
    return MonotoneVerdict(
        lower=IterationTrace("lower", tuple(alphas), float(rho), bounds, status),
        upper=IterationTrace("upper", tuple(betas), float(rho), bounds, status),
        grid=pair.grid,
        M=pair.M,
        N=pair.N,
        lam=pair.lam,
        rho=float(rho),
        gap_bounds=bounds,
        positivity=positivity,
        uniqueness=uniqueness,
        status=status,
        iterations=iterations,
        final_gap=gap,
        certified=certified,
        warnings=tuple(warnings),
    )


def error_bounds(trace: IterationTrace, pair: BoundPair, n: int) -> Tuple[float, float]:
    """A-priori error estimates after n sweeps of a contracting iteration.

    Returns (a_priori, gap_bound) where gap_bound = (L**2/4) * rho**n *
    ||alpha0'' - beta0''||_inf limits the bracket width and a_priori =
    gap_bound / (1 - rho) limits the sup-norm distance from either n-th
    iterate to the extremal solution it converges to.  Only available for
    rho < 1.
    """
    if n < 0:
        raise ValueError(f"iteration index must be nonnegative, got {n}")
    rho = trace.rho
    if not (rho < 1.0):
        raise BoundUnavailable(
            f"contraction factor rho = {rho:.6g} is not below 1"
        )
    L = float(pair.grid[-1])
    gap0_pp = float(np.max(np.abs(pair.alpha.ypp - pair.beta.ypp)))
    gap_bound = (L**2 / 4.0) * max(rho, 0.0) ** n * gap0_pp
    a_priori = gap_bound / (1.0 - rho)
    return a_priori, gap_bound


def iterate_melan(
    problem: MelanProblem,
    lam: Optional[float] = None,
    grid_points: int = 1001,
    max_iter: int = 100,
    tol: Optional[float] = None,
    strict: bool = True,
) -> MonotoneVerdict:
    """Run the two-sided iteration from the zero/sine bracket.

    Convenience front end over make_sine_pair + run_monotone; lam defaults
    to L/100 (a span-proportional sine height).
    """
    if lam is None:
        lam = problem.L / 100.0
    pair = make_sine_pair(problem, lam, grid_points)
    return run_monotone(
        problem, pair, grid_points=grid_points, max_iter=max_iter, tol=tol, strict=strict
    )
