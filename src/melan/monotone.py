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

import functools
import math
from dataclasses import dataclass, field, replace
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
    NonFiniteSolution,
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


def _gap_bound(L: float, rho: float, n: int, gap0_pp: float) -> float:
    """(L**2/4)*rho**n*gap0_pp, the a-priori bracket width after n sweeps (rho clamped at 0)."""
    return (L**2 / 4.0) * max(rho, 0.0) ** n * gap0_pp


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
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.load, LoadSpec):
            raise TypeError("load must be a LoadSpec")


@dataclass(frozen=True, eq=False)
class Iterate:
    """One side of the bracket at one sweep: values, second derivative, integral."""

    y: np.ndarray
    ypp: np.ndarray
    integral: float


@dataclass(frozen=True, eq=False)
class BoundPair:
    """One problem's zero/sine bracket, as make_sine_pair builds it.

    alpha = 0 lies below and beta = lam*sin(pi*x/L) above, with the frozen
    coefficients (M, N) that make the pair a bracket, the linear `operator`
    for them on the grid, the bracket's positivity and uniqueness reports
    and contraction factor rho, and `model`, the model's left side at beta.
    `p` is the problem's load on the grid, sampled once for every sweep.
    Every array is read-only: pairs with the same (a, b, c, L, lam, grid)
    share all but `problem` and `p`.
    """

    problem: MelanProblem
    grid: np.ndarray
    alpha: Iterate
    beta: Iterate
    M: float
    N: float
    lam: float
    p: np.ndarray
    operator: LinearOperator
    positivity: ConditionReport
    uniqueness: ConditionReport
    rho: float
    model: np.ndarray


@dataclass(frozen=True, eq=False)
class MonotoneVerdict:
    """Outcome of the two-sided iteration from `pair`, the bracket it was given.

    The pair holds the grid, (M, N), lam, rho and the bracket's conditions.
    After n sweeps the iterates are `lower[n]` and `upper[n]` (index 0
    holds the pair's own alpha and beta), `gaps[n]` is the observed bracket
    width max|beta_n - alpha_n|, and `gap_bounds[n]` its a-priori sup-norm
    bound (L**2/4)*rho**n times the initial curvature gap (rho clamped at
    zero).  `certified` is True only for a clean run: ordered, monotone,
    converged, with the bracket and positivity conditions verified.  The
    pair's uniqueness report does not affect certification of the bracket.
    """

    pair: BoundPair
    lower: Tuple[Iterate, ...]
    upper: Tuple[Iterate, ...]
    gaps: Tuple[float, ...]
    gap_bounds: Tuple[float, ...]
    status: str
    iterations: int
    certified: bool
    warnings: Tuple[str, ...] = field(default=())

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]

    @property
    def final_lower(self) -> Iterate:
        return self.lower[-1]

    @property
    def final_upper(self) -> Iterate:
        return self.upper[-1]

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

    second = fourth = evaluate

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


def _model(a: float, b: float, c: float, fourth, second, I: float) -> np.ndarray:
    """y'''' - (a + b*I)*y'' + c*I from a shape's y'''', y'' and integral I."""
    return fourth - (a + b * I) * second + c * I


def _apply_model(shape, problem: MelanProblem, x: np.ndarray) -> np.ndarray:
    """Evaluate the model for a candidate shape on a grid."""
    L = problem.L
    return _model(problem.a, problem.b, problem.c,
                  shape.fourth(x, L), shape.second(x, L), shape.integral(L))


def _verify_bound(name: str, sign: float, model: np.ndarray, p: np.ndarray) -> ConditionReport:
    """Worst sign*(model - p) over the nodes, p the load there, against _slack(p)."""
    return _report(name, float(np.max(sign * (model - p))), _slack(p))


def verify_lower(shape, problem: MelanProblem, grid_points: int = 1001) -> ConditionReport:
    """Check that a candidate is a lower bounding function for the model.

    The defining inequality is model(shape) <= p on the whole span, ends
    included; the report's lhs is the worst excess of model(shape) over p.
    """
    x = uniform_grid(problem.L, grid_points)
    p = problem.load.evaluate(x, problem.L)
    return _verify_bound("lower-solution", 1.0, _apply_model(shape, problem, x), p)


def verify_upper(shape, problem: MelanProblem, grid_points: int = 1001) -> ConditionReport:
    """Check that a candidate is an upper bounding function (model(shape) >= p)."""
    x = uniform_grid(problem.L, grid_points)
    p = problem.load.evaluate(x, problem.L)
    return _verify_bound("upper-solution", -1.0, _apply_model(shape, problem, x), p)


# ---------------------------------------------------------------------------
# Pair construction and iteration


@functools.lru_cache(maxsize=1)
def _bracket(a: float, b: float, c: float, L: float, lam: float, grid_points: int) -> BoundPair:
    """The zero/sine bracket without its load: `problem` and `p` are None.

    One slot: consecutive brackets of one bridge and grid, one per live
    load, share it, and with it the operator's sampled-load profile.  Every
    field is a pure function of the key, so a hit and a miss give the same
    bits.
    """
    M, N = check_sine_conditions(a, b, c, L, lam)
    operator = LinearOperator(M, N, float(L), grid_points)
    y = SineShape(lam).evaluate(operator.grid, L)
    # SineShape.second and .fourth, from the same samples.
    ypp = -((np.pi / L) ** 2) * y
    I = SineShape(lam).integral(L)
    try:  # (pi/L)**4 leaves the float range, or its product with the samples
        with np.errstate(over="raise"):
            model = _model(a, b, c, (np.pi / L) ** 4 * y, ypp, I)
    except (OverflowError, FloatingPointError) as exc:
        raise NonFiniteSolution(f"the sine bound's model overflows at L = {L:.6g}") from exc
    zero = np.zeros_like(y)
    for samples in (zero, y, ypp, model):
        samples.flags.writeable = False
    return BoundPair(
        problem=None,
        grid=operator.grid,
        alpha=Iterate(y=zero, ypp=zero, integral=0.0),
        beta=Iterate(y=y, ypp=ypp, integral=I),
        M=M,
        N=N,
        lam=float(lam),
        p=None,
        operator=operator,
        positivity=check_positivity(M, N, L),
        uniqueness=check_uniqueness(a, b, c, M, N, L),
        rho=contraction_rho(a, b, c, M, N, L),
        model=model,
    )


def make_sine_pair(problem: MelanProblem, lam: float, grid_points: int = 1001) -> BoundPair:
    """Build the zero/sine bracket with its frozen linearization coefficients.

    M = a + 2*b*lam*L/pi and N = c + b*lam*pi**2/L**2 are exactly the
    values needed for the sine bound (taken from check_sine_conditions), so
    the pair is ordered and its coefficients dominate by construction.
    lam = 0 degenerates to the (well-formed) equal pair alpha = beta = 0
    with M = a, N = c.  A sine whose curvature lam*(pi/L)**2 overflows
    raises NonFiniteSolution.  Only the load is sampled per call; the rest
    comes from the last bracket built when (a, b, c, L, lam, grid_points)
    repeats, so every array of the pair is read-only.
    """
    if not (lam >= 0.0 and np.isfinite(lam)):
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    L = problem.L
    try:
        curvature = lam * (np.pi / L) ** 2
    except OverflowError:  # (pi/L)**2 leaves the float range
        curvature = np.inf
    if not np.isfinite(curvature):
        raise NonFiniteSolution(f"the sine bound's curvature overflows at lam = {lam:.6g}")
    bracket = _bracket(problem.a, problem.b, problem.c, L, lam, grid_points)
    p = problem.load.evaluate(bracket.grid, L)
    p.flags.writeable = False
    return replace(bracket, problem=problem, p=p)


def iterate_once(prev: Iterate, pair: BoundPair) -> Iterate:
    """One sweep of the iteration map applied to a single side of the bracket.

    Builds the frozen-coefficient right-hand side

        F = p + (a - M + b*I)*prev'' + (N - c)*I,    I = integral(prev),

    as a single sampled load on the pair's grid, then solves the linear
    model with (M, N) through the pair's prepared operator.  p is the
    pair's load samples, so both bracket sides get the same right-side
    arithmetic, which the ordering checks rely on.
    """
    problem = pair.problem
    I = prev.integral
    # In place, in the order p + (a - M + b*I)*prev'' + (N - c)*I.
    F = np.multiply(problem.a - pair.M + problem.b * I, prev.ypp)
    F += pair.p
    F += (pair.N - problem.c) * I
    linear = LinearProblem(M=pair.M, N=pair.N, L=problem.L, load=LoadSpec((Sampled(F),)))
    sol: GridSolution = solve_linear(linear, grid_points=len(pair.grid), operator=pair.operator)
    return Iterate(y=sol.y, ypp=sol.ypp, integral=sol.integral_y)


def run_monotone(
    pair: BoundPair,
    max_iter: int = 100,
    tol: Optional[float] = None,
    strict: bool = True,
) -> MonotoneVerdict:
    """Run the two-sided iteration from the pair's zero/sine bracket.

    In strict mode the initial bounds are verified against the model and a
    failing positivity condition refuses to run (NotApplicable);
    monotonicity breaks raise MonotonicityViolation, and failure to reach
    `tol` within `max_iter` sweeps raises NotConverged (with both
    histories attached).  With strict=False those conditions downgrade to
    warnings, the run continues, and the result is marked uncertified.
    """
    problem = pair.problem
    warnings: List[str] = []

    def refuse(error, message: str) -> None:
        if strict:
            raise error(message)
        warnings.append(message)

    if not pair.positivity.satisfied:
        refuse(NotApplicable, f"positivity condition fails: N = {pair.positivity.lhs:.6g} > "
               f"{pair.positivity.rhs:.6g}; ordering of the sweeps is not guaranteed")

    # ZeroShape's model is 0.
    for rep in (_verify_bound("lower-solution", 1.0, 0.0, pair.p),
                _verify_bound("upper-solution", -1.0, pair.model, pair.p)):
        if not rep.satisfied:
            refuse(InvalidPair, f"initial {rep.name} check fails by {rep.lhs:.6g} "
                   f"(tolerance {rep.rhs:.6g})")

    if pair.rho >= 1.0:
        warnings.append(
            f"contraction factor rho = {pair.rho:.6g} >= 1: no a-priori convergence rate"
        )

    tol_y = _slack(pair.beta.y)
    tol_pp = _slack(pair.beta.ypp)
    gap0_pp = float(np.max(np.abs(pair.alpha.ypp - pair.beta.ypp)))
    gaps = [float(np.max(np.abs(pair.beta.y - pair.alpha.y)))]
    if tol is None:
        tol = 1e-8 * max(1.0, gaps[0])

    alphas = [pair.alpha]
    betas = [pair.beta]
    gap_bounds = [_gap_bound(problem.L, pair.rho, 0, gap0_pp)]
    violated = False
    # Per sweep, diffs[k] holds the y and y'' differences previous lower - new
    # lower (k = 0), new upper - previous upper (1) and new upper - new lower
    # (2); their maxima and minima give the six excesses and the gap.
    diffs = np.empty((3, 2, pair.grid.size))

    # Overflow raises, so a diverging run stops at its first non-finite
    # value, and is reported as a divergence rather than as a bad load.
    with np.errstate(over="raise", invalid="raise"):
        try:
            # `not <` rather than `>=`, so a NaN gap keeps sweeping to max_iter.
            while not gaps[-1] < tol and len(gaps) <= max_iter:
                n = len(gaps)
                prev_alpha, prev_beta = alphas[-1], betas[-1]
                side, prev = "lower", prev_alpha
                new_alpha = iterate_once(prev, pair)
                side, prev = "upper", prev_beta
                new_beta = iterate_once(prev, pair)
                for k, (first, second) in enumerate(
                        ((prev_alpha, new_alpha), (new_beta, prev_beta), (new_beta, new_alpha))):
                    np.subtract(first.y, second.y, out=diffs[k, 0])
                    np.subtract(first.ypp, second.ypp, out=diffs[k, 1])
                hi, lo = diffs.max(axis=2), diffs.min(axis=2)

                checks = (
                    ("lower iterates must not descend", hi[0, 0], tol_y),
                    ("upper iterates must not ascend", hi[1, 0], tol_y),
                    ("lower curvature must not ascend", -lo[0, 1], tol_pp),
                    ("upper curvature must not descend", -lo[1, 1], tol_pp),
                    ("bracket ordering must hold", -lo[2, 0], tol_y),
                    ("bracket curvature ordering must hold", hi[2, 1], tol_pp),
                )
                for label, excess, allowance in checks:
                    if excess > allowance:
                        refuse(MonotonicityViolation,
                               f"sweep {n}: {label} (excess {float(excess):.6g})")
                        violated = True

                alphas.append(new_alpha)
                betas.append(new_beta)
                gap_bounds.append(_gap_bound(problem.L, pair.rho, n, gap0_pp))
                gaps.append(float(max(hi[2, 0], -lo[2, 0])))
        except FloatingPointError as exc:
            raise NonFiniteSolution(
                f"the {side} iterates diverge: sweep {n} overflows "
                f"(previous integral {prev.integral:.6g})"
            ) from exc

    iterations = len(gaps) - 1
    converged = gaps[-1] < tol
    status = "monotonicity-violation" if violated else "converged" if converged else "max-iters"

    lower, upper = tuple(alphas), tuple(betas)
    if status != "converged":
        # Strict mode raised at the first violation, so only max-iters gets here.
        stopped = f"bracket width {gaps[-1]:.6g} after {iterations} sweeps"
        if strict:
            raise NotConverged(
                f"{stopped} (tolerance {tol:.6g})", lower=lower, upper=upper
            )
        warnings.append(f"stopped with {stopped} (tolerance {tol:.6g})")

    return MonotoneVerdict(
        pair=pair,
        lower=lower,
        upper=upper,
        gaps=tuple(gaps),
        gap_bounds=tuple(gap_bounds),
        status=status,
        iterations=iterations,
        certified=status == "converged" and not warnings,
        warnings=tuple(warnings),
    )


def error_bounds(verdict: MonotoneVerdict, n: int) -> Tuple[float, float]:
    """A-priori error estimates after n sweeps of a contracting iteration.

    Returns (a_priori, gap_bound).  gap_bound = (L**2/4) * rho**n *
    ||alpha0'' - beta0''||_inf limits the bracket width; it is computed as
    gap_bounds[n] is, so the two agree exactly.  a_priori = gap_bound /
    (1 - rho) limits the sup-norm distance from either n-th iterate to the
    extremal solution it converges to.  n may exceed the sweeps the run
    made.  Only available for rho < 1.
    """
    if n < 0:
        raise ValueError(f"iteration index must be nonnegative, got {n}")
    pair = verdict.pair
    if not (pair.rho < 1.0):
        raise BoundUnavailable(f"contraction factor rho = {pair.rho:.6g} is not below 1")
    gap0_pp = float(np.max(np.abs(pair.alpha.ypp - pair.beta.ypp)))
    gap_bound = _gap_bound(pair.problem.L, pair.rho, n, gap0_pp)
    a_priori = gap_bound / (1.0 - pair.rho)
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
    return run_monotone(pair, max_iter=max_iter, tol=tol, strict=strict)
