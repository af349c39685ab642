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

from .criteria import (
    ConditionReport,
    _report,
    check_positivity,
    check_sine_conditions,
    check_uniqueness,
    contraction_rho,
)
from .errors import (
    BoundUnavailable,
    InvalidPair,
    MonotonicityViolation,
    NotApplicable,
    NotConverged,
)
from .linear import GridSolution, LinearOperator, LinearProblem, solve_linear
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


def _slack(values: np.ndarray) -> float:
    """Roundoff allowance 1e-9*max(1, max|values|) for comparisons against `values`."""
    return 1e-9 * max(1.0, float(np.max(np.abs(values))))


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

    `lower_shape`/`upper_shape` are the analytic candidates the samples came
    from, so run_monotone verifies the defining differential inequalities
    exactly instead of by finite differences.  `operator` is the linear
    operator for (M, N) on the pair's grid, built with the pair, so every
    sweep of a run shares one.
    """

    grid: np.ndarray
    alpha: Iterate
    beta: Iterate
    M: float
    N: float
    lam: float
    lower_shape: object
    upper_shape: object
    operator: LinearOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        op = LinearOperator(self.M, self.N, float(self.grid[-1]), len(self.grid))
        object.__setattr__(self, "operator", op)

    def validate(self, problem: MelanProblem) -> None:
        """Raise InvalidPair unless the bracket's defining inequalities hold.

        Checks that the lower bound is nonnegative with nonpositive
        curvature, the ordering alpha <= beta, the reversed ordering of
        second derivatives, and that the frozen coefficients dominate the
        running ones: M >= a + b*integral(beta) and N >= c + b*max(-beta'').
        """
        slack_y = _slack(self.beta.y)
        slack_pp = _slack(self.beta.ypp)
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
    """History of one side of the bracket; iterates[0] is the initial bound."""

    side: str
    iterates: Tuple[Iterate, ...]


@dataclass(frozen=True)
class MonotoneVerdict:
    """Outcome of the two-sided iteration.

    `gaps[n]` is the observed bracket width max|beta_n - alpha_n| after n
    sweeps, and `gap_bounds[n]` its a-priori sup-norm bound (L**2/4)*rho**n
    times the initial curvature gap (rho clamped at zero).  `certified`
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
    lam: float
    rho: float
    gaps: Tuple[float, ...]
    gap_bounds: Tuple[float, ...]
    positivity: ConditionReport
    uniqueness: ConditionReport
    status: str
    iterations: int
    certified: bool
    warnings: Tuple[str, ...] = field(default=())

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]

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


def _verify_bound(name: str, sign: float, shape, problem: MelanProblem,
                  grid_points: int) -> ConditionReport:
    """Worst value of sign*(model(shape) - p) over every node, against _slack(p)."""
    x = uniform_grid(problem.L, grid_points)
    p = problem.load.evaluate(x, problem.L)
    defect = sign * (_apply_model(shape, problem, x) - p)
    return _report(name, float(np.max(defect)), _slack(p))


def verify_lower(shape, problem: MelanProblem, grid_points: int = 1001) -> ConditionReport:
    """Check that a candidate is a lower bounding function for the model.

    The defining inequality is model(shape) <= p on the whole span, ends
    included; the report's lhs is the worst excess of model(shape) over p.
    """
    return _verify_bound("lower-solution", 1.0, shape, problem, grid_points)


def verify_upper(shape, problem: MelanProblem, grid_points: int = 1001) -> ConditionReport:
    """Check that a candidate is an upper bounding function (model(shape) >= p)."""
    return _verify_bound("upper-solution", -1.0, shape, problem, grid_points)


# ---------------------------------------------------------------------------
# Pair construction and iteration


def make_sine_pair(problem: MelanProblem, lam: float, grid_points: int = 1001) -> BoundPair:
    """Build the zero/sine bracket with its frozen linearization coefficients.

    M = a + 2*b*lam*L/pi and N = c + b*lam*pi**2/L**2 are exactly the
    values needed for the sine bound (taken from check_sine_conditions), so
    the pair validates by construction.  lam = 0 degenerates to the
    (well-formed) equal pair alpha = beta = 0 with M = a, N = c.
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
    sine_check = check_sine_conditions(problem.a, problem.b, problem.c, L, lam)
    return BoundPair(
        grid=x,
        alpha=alpha,
        beta=beta,
        M=sine_check.M,
        N=sine_check.N,
        lam=float(lam),
        lower_shape=ZeroShape(),
        upper_shape=sine,
    )


def iterate_once(prev: Iterate, pair: BoundPair, problem: MelanProblem) -> Iterate:
    """One sweep of the iteration map applied to a single side of the bracket.

    Builds the frozen-coefficient right-hand side

        F = p + (a - M + b*I)*prev'' + (N - c)*I,    I = integral(prev),

    as a single sampled load on the pair's grid, then solves the linear
    model with (M, N) through the pair's prepared operator.  Sampling the
    whole right side keeps both bracket sides on an identical numerical
    footing, which the ordering checks rely on.
    """
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
    sol: GridSolution = solve_linear(
        linear, grid_points=len(x), operator=pair.operator
    )
    return Iterate(y=sol.y, ypp=sol.ypp, integral=sol.integral_y)


def run_monotone(
    problem: MelanProblem,
    pair: BoundPair,
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
    warnings: List[str] = []

    def refuse(error, message: str) -> None:
        if strict:
            raise error(message)
        warnings.append(message)

    positivity = check_positivity(pair.M, pair.N, problem.L)
    if not positivity.satisfied:
        refuse(NotApplicable, f"positivity condition fails: N = {positivity.lhs:.6g} > "
               f"{positivity.rhs:.6g}; ordering of the sweeps is not guaranteed")

    pair.validate(problem)
    nodes = len(pair.grid)
    for rep in (verify_lower(pair.lower_shape, problem, nodes),
                verify_upper(pair.upper_shape, problem, nodes)):
        if not rep.satisfied:
            refuse(InvalidPair, f"initial {rep.name} check fails by {rep.lhs:.6g} "
                   f"(tolerance {rep.rhs:.6g})")

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

    tol_y = _slack(pair.beta.y)
    tol_pp = _slack(pair.beta.ypp)
    gap0_pp = float(np.max(np.abs(pair.alpha.ypp - pair.beta.ypp)))
    gaps = [float(np.max(np.abs(pair.beta.y - pair.alpha.y)))]
    if tol is None:
        tol = 1e-8 * max(1.0, gaps[0])

    alphas = [pair.alpha]
    betas = [pair.beta]
    gap_bounds = [(problem.L**2 / 4.0) * gap0_pp]
    violated = False

    # `not <` rather than `>=`, so a NaN gap keeps sweeping to max_iter.
    while not gaps[-1] < tol and len(gaps) <= max_iter:
        n = len(gaps)
        new_alpha = iterate_once(alphas[-1], pair, problem)
        new_beta = iterate_once(betas[-1], pair, problem)

        checks = [
            ("lower iterates must not descend", (alphas[-1].y - new_alpha.y).max(), tol_y),
            ("upper iterates must not ascend", (new_beta.y - betas[-1].y).max(), tol_y),
            ("lower curvature must not ascend", (new_alpha.ypp - alphas[-1].ypp).max(), tol_pp),
            ("upper curvature must not descend", (betas[-1].ypp - new_beta.ypp).max(), tol_pp),
            ("bracket ordering must hold", (new_alpha.y - new_beta.y).max(), tol_y),
            ("bracket curvature ordering must hold", (new_beta.ypp - new_alpha.ypp).max(), tol_pp),
        ]
        for label, excess, allowance in checks:
            if excess > allowance:
                refuse(MonotonicityViolation, f"sweep {n}: {label} (excess {float(excess):.6g})")
                violated = True

        alphas.append(new_alpha)
        betas.append(new_beta)
        gap_bounds.append((problem.L**2 / 4.0) * max(rho, 0.0) ** n * gap0_pp)
        gaps.append(float(np.abs(new_beta.y - new_alpha.y).max()))

    iterations = len(gaps) - 1
    converged = gaps[-1] < tol
    status = "monotonicity-violation" if violated else "converged" if converged else "max-iters"

    lower = IterationTrace("lower", tuple(alphas))
    upper = IterationTrace("upper", tuple(betas))
    if status != "converged":
        # Strict mode raised at the first violation, so only max-iters gets here.
        stopped = f"bracket width {gaps[-1]:.6g} after {iterations} sweeps"
        if strict:
            raise NotConverged(
                f"{stopped} (tolerance {tol:.6g})", lower=lower, upper=upper
            )
        warnings.append(f"stopped with {stopped} (tolerance {tol:.6g})")

    return MonotoneVerdict(
        lower=lower,
        upper=upper,
        grid=pair.grid,
        M=pair.M,
        N=pair.N,
        lam=pair.lam,
        rho=float(rho),
        gaps=tuple(gaps),
        gap_bounds=tuple(gap_bounds),
        positivity=positivity,
        uniqueness=uniqueness,
        status=status,
        iterations=iterations,
        certified=status == "converged" and not warnings,
        warnings=tuple(warnings),
    )


def error_bounds(verdict: MonotoneVerdict, n: int) -> Tuple[float, float]:
    """A-priori error estimates after n sweeps of a contracting iteration.

    Returns (a_priori, gap_bound) where gap_bound = gap_bounds[0] * rho**n
    = (L**2/4) * rho**n * ||alpha0'' - beta0''||_inf limits the bracket
    width and a_priori = gap_bound / (1 - rho) limits the sup-norm distance
    from either n-th iterate to the extremal solution it converges to.  n
    may exceed the sweeps the run made.  Only available for rho < 1.
    """
    if n < 0:
        raise ValueError(f"iteration index must be nonnegative, got {n}")
    rho = verdict.rho
    if not (rho < 1.0):
        raise BoundUnavailable(
            f"contraction factor rho = {rho:.6g} is not below 1"
        )
    gap_bound = verdict.gap_bounds[0] * max(rho, 0.0) ** n
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
    return run_monotone(problem, pair, max_iter=max_iter, tol=tol, strict=strict)
