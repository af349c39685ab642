"""Closed-form solver for the linear nonlocal beam model.

The model on [0, L] with hinged ends is

    y'''' - M y'' + N * integral(y) = p,    y(0)=y(L)=y''(0)=y''(L)=0,

where integral(y) is the total integral of y over the span (a single scalar
coupling, not a pointwise term).  Writing I = integral(y), the load seen by
the plain beam operator is p - N*I, so

    y = (B - A)/M - N*I*psi,      I = Lambda / (1 + N*zeta),

with A and B the convolutions of the load against the two second-order
kernels, Lambda the integral of (B - A)/M, and psi/zeta the kernel row and
double integrals.  Analytic load shapes have A, B and their integrals in
closed form; sampled loads use Simpson sums against both kernels, evaluated
in O(n) time and memory from the kernels' semiseparable structure.

Second derivatives are assembled from the same convolutions (never by
differencing y): (d2/dx2)[(B-A)/M] = -A and (d2/dx2)psi = -gm_row_integral.
LinearOperator holds everything that does not depend on the load, so
repeated solves with fixed (M, N, L, grid) pay only for the convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteSolution, NotContractive, SingularResonance
from .kernel import (
    KernelParams,
    _gap_to_tanh,
    gm_row_integral,
    psi,
    sinh_frac,
    zeta,
)
from .loads import Affine, Constant, Cubic, LoadSpec, Sampled, SineHalfWave, SinhTerm
from .quadrature import simpson_weights, uniform_grid

__all__ = [
    "LinearProblem",
    "SolutionMeta",
    "GridSolution",
    "LinearOperator",
    "gp_convolution",
    "load_moment_g",
    "solve_linear",
    "picard_iterate",
    "residual",
]

# Relative gap below which a sinh load rate is treated as resonant with mu.
_RESONANCE_RTOL = 1e-9

# |1 + N*zeta| below this (relative to the term sizes) is reported singular.
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class LinearProblem:
    """Coefficients and load of the linear model.  M > 0; N may be any sign."""

    M: float
    N: float
    L: float
    load: LoadSpec

    def __post_init__(self):
        if not (self.M > 0.0 and np.isfinite(self.M)):
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not np.isfinite(self.N):
            raise ValueError(f"N must be finite, got {self.N}")
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.load, LoadSpec):
            raise TypeError("load must be a LoadSpec")


@dataclass(frozen=True)
class SolutionMeta:
    """Coefficients the solution was computed for, plus the solvability regime."""

    M: float
    N: float
    L: float
    grid_points: int
    regime: str


@dataclass(frozen=True)
class GridSolution:
    """Solution samples on a uniform grid.

    `y` and `ypp` (the second derivative) come from closed forms evaluated
    pointwise, so `ypp` is not a finite difference of `y`; `integral_y` is
    the analytic value of the nonlocal term, not a quadrature of `y`.
    """

    grid: np.ndarray
    y: np.ndarray
    ypp: np.ndarray
    integral_y: float
    meta: SolutionMeta


def _classify_regime(M: float, N: float, L: float) -> str:
    """Label the a-priori solvability guarantee for the coefficient triple.

    N >= 0 always leaves 1 + N*zeta >= 1.  For N < 0, zeta < L**3/(12*M)
    gives |N*zeta| < 2/3 whenever |N| <= 8*M/L**3.  Outside both, the
    solve may still succeed but carries no guarantee.
    """
    if N >= 0.0:
        return "unconditional"
    if abs(N) <= 8.0 * M / L**3:
        return "small-coupling"
    return "unverified"


# Largest exponent in one _damped_cumsum block, far below overflow at 709.
_BLOCK_EXPONENT = 300.0


def _damped_plan(t: np.ndarray, mu: float):
    """Blocks of _damped_cumsum over nondecreasing nodes t: (start, stop, scale, decay).

    Each block holds the nodes within _BLOCK_EXPONENT/mu of its first node r;
    scale = exp(mu*(t - r)) on the block and decay = exp(-mu*(r - t_prev))
    carries the previous block's last sum across, so no factor overflows for
    any mu*L.
    """
    plan = []
    start = 0
    while start < t.size:
        r = t[start]
        stop = int(np.searchsorted(t, r + _BLOCK_EXPONENT / mu, side="right"))
        scale = np.exp(mu * (t[start:stop] - r))
        decay = np.exp(-mu * (r - t[start - 1])) if start else None
        plan.append((start, stop, scale, decay))
        start = stop
    return tuple(plan)


def _damped_cumsum(a: np.ndarray, plan) -> np.ndarray:
    """F_m = sum over j <= m of exp(-mu*(t_m - t_j))*a_j, with plan = _damped_plan(t, mu).

    One plain cumsum of exp(mu*(t_j - r))*a_j per block, plus one damped
    carry from the previous block.
    """
    out = np.empty_like(a)
    for start, stop, scale, decay in plan:
        carry = out[start - 1] * decay if start else 0.0
        out[start:stop] = (carry + (scale * a[start:stop]).cumsum()) / scale
    return out


class _SampledProfile:
    """Simpson sums of `ns` uniform samples against both kernels, at positions x.

    A(x) = sum_j gm(x, s_j)*w_j*p_j and B(x) likewise with g0, for samples
    p_j on their own uniform grid s_j and any positions x in [0, L].  Both
    kernels are semiseparable, g0(x, s) = min*(L - max)/L and
    gm(x, s) = K*exp(-mu*|x - s|)*P(min)*Q(max) with P(t) = -expm1(-2 mu t),
    Q(t) = P(L - t), K = 1/(2 mu P(L)), so each sum splits at x into running
    sums over s_j <= x and s_j > x: O(len(x) + ns) time and memory.

    Everything that depends only on (M, L, ns, x) is computed here once: the
    Simpson weights, P at the samples, the per-position decay factors and
    the _damped_cumsum block plans.  `convolve` is the per-values pass.
    """

    def __init__(self, params: KernelParams, ns: int, x: np.ndarray):
        L, mu = params.L, params.mu
        s = uniform_grid(L, ns)

        def P(t):
            return -np.expm1(-2.0 * mu * t)

        # s[lo] <= x < s[lo + 1]; the suffix index clipped to ns - 1 adds zero.
        lo = np.searchsorted(s, x, side="right") - 1
        hi = np.minimum(lo + 1, ns - 1)
        u = L - s[::-1]

        self.ns = ns
        self.L = L
        self.x = x
        self.lo, self.hi = lo, hi
        self.s, self.u = s, u
        self.ws = simpson_weights(ns, L / (ns - 1))
        self.wx = simpson_weights(x.size, L / (x.size - 1))
        self.Ps, self.Pu = P(s), P(u)
        self.fwd_plan = _damped_plan(s, mu)
        self.bwd_plan = _damped_plan(u, mu)
        self.left = P(L - x) * np.exp(-mu * (x - s[lo]))
        self.right = P(x) * np.exp(-mu * (s[hi] - x))
        self.scale = 2.0 * mu * P(L)
        self.Lmx = L - x

    def convolve(self, values: np.ndarray):
        """(A, B, intA, intB) for the samples `values`; the integrals are Simpson over x.

        Raises NonFiniteSolution on NaN or infinite samples before any
        arithmetic, so numpy warns nothing (inf times the kernels' zero ends).
        """
        if not np.isfinite(values).all():
            raise NonFiniteSolution("sampled load is not finite")
        lo, hi = self.lo, self.hi
        v = self.ws * values
        vr = v[::-1]
        fwd = _damped_cumsum(self.Ps * v, self.fwd_plan)
        bwd = _damped_cumsum(self.Pu * vr, self.bwd_plan)[::-1]
        A = (self.left * fwd[lo] + self.right * bwd[hi]) / self.scale

        head = (self.s * v).cumsum()
        tail = (self.u * vr).cumsum()[::-1]
        B = (self.Lmx * head[lo] + self.x * tail[hi]) / self.L
        return A, B, float(self.wx @ A), float(self.wx @ B)


def _convolve_term(term, x: np.ndarray, params: KernelParams, profile_for=None):
    """Convolutions of one load term with the two second-order kernels.

    Returns (A, B, intA, intB): A(x) solves -A'' + M*A = p with zero ends,
    B(x) solves -B'' = p with zero ends, and intA/intB are their integrals
    over the span.  Analytic terms are closed forms; Sampled terms are Simpson
    sums over the samples (O(n), see _SampledProfile) and then over x.
    `profile_for(ns)` supplies the _SampledProfile for ns samples at x; by
    default a throwaway one is built.
    """
    M, L, mu, muL = params.M, params.L, params.mu, params.muL

    if isinstance(term, Constant):
        v = term.value
        A = v * gm_row_integral(x, params)
        B = v * x * (L - x) / 2.0
        intA = v * _gap_to_tanh(muL) / (M * mu)
        intB = v * L**3 / 12.0
        return A, B, intA, intB

    if isinstance(term, Affine):
        c0, c1 = term.c0, term.c1
        qL = (c0 + c1 * L) / M
        q0 = c0 / M
        A = (c0 + c1 * x) / M - qL * sinh_frac(mu * x, muL) - q0 * sinh_frac(mu * (L - x), muL)
        B = c0 * x * (L - x) / 2.0 + c1 * x * (L**2 - x**2) / 6.0
        intA = (c0 + c1 * L / 2.0) * _gap_to_tanh(muL) / (M * mu)
        intB = c0 * L**3 / 12.0 + c1 * L**4 / 24.0
        return A, B, intA, intB

    if isinstance(term, SineHalfWave):
        amp = term.amplitude
        shape = np.sin(np.pi * x / L)
        A = amp * shape / (M + np.pi**2 / L**2)
        B = amp * (L / np.pi) ** 2 * shape
        intA = amp * (2.0 * L / np.pi) / (M + np.pi**2 / L**2)
        intB = 2.0 * amp * L**3 / np.pi**3
        return A, B, intA, intB

    if isinstance(term, Cubic):
        c3 = term.c3
        q = c3 * (x**3 / M + 6.0 * x / M**2)
        qL = c3 * (L**3 / M + 6.0 * L / M**2)
        A = q - qL * sinh_frac(mu * x, muL)
        B = c3 * x * (L**4 - x**4) / 20.0
        int_q = c3 * (L**4 / (4.0 * M) + 3.0 * L**2 / M**2)
        intA = int_q - qL * np.tanh(0.5 * muL) / mu
        intB = c3 * L**6 / 60.0
        return A, B, intA, intB

    if isinstance(term, SinhTerm):
        coef, r = term.coef, term.rate
        # Past rate*L of about 710 the closed form overflows.  That is reported
        # as NonFiniteSolution below, without numpy's warnings on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(r - mu) <= _RESONANCE_RTOL * mu:
                # Resonant particular solution of -q'' + M q = coef*sinh(mu*x).
                q = -coef * x * np.cosh(mu * x) / (2.0 * mu)
                qL = -coef * L * np.cosh(muL) / (2.0 * mu)
                int_q = -(coef / (2.0 * mu)) * (
                    L * np.sinh(muL) / mu - (np.cosh(muL) - 1.0) / mu**2
                )
            else:
                q = coef * np.sinh(r * x) / (M - r * r)
                qL = coef * np.sinh(r * L) / (M - r * r)
                int_q = coef * (np.cosh(r * L) - 1.0) / (r * (M - r * r))
            A = q - qL * sinh_frac(mu * x, muL)
            B = coef * (x * np.sinh(r * L) / L - np.sinh(r * x)) / r**2
            intA = int_q - qL * np.tanh(0.5 * muL) / mu
            intB = coef * (L * np.sinh(r * L) / 2.0 - (np.cosh(r * L) - 1.0) / r) / r**2
        if not (math.isfinite(intA) and math.isfinite(intB)):
            raise NonFiniteSolution(
                f"sinh load term (rate {r:.6g}) overflows over the span {L:.6g}"
            )
        return A, B, intA, intB

    if isinstance(term, Sampled):
        ns = term.values.size
        profile = profile_for(ns) if profile_for else _SampledProfile(params, ns, x)
        return profile.convolve(term.values)

    raise TypeError(f"unsupported load term {type(term).__name__}")


def _assemble(load: LoadSpec, x: np.ndarray, params: KernelParams, profile_for=None):
    """Sum the per-term convolutions: (A_tot, B_tot, Lambda) on the positions x.

    Lambda is the double integral of the full solution kernel against the
    load, i.e. the integral over the span of (B_tot - A_tot)/M.
    """
    A_tot = B_tot = lam = 0.0
    for term in load.terms:
        A, B, intA, intB = _convolve_term(term, x, params, profile_for)
        A_tot = A_tot + A
        B_tot = B_tot + B
        lam += (intB - intA) / params.M
    return A_tot, B_tot, lam


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LinearOperator:
    """Solution map of the linear model for fixed (M, N, L, grid_points).

    Everything a solve needs that does not depend on the load is computed
    once, when the operator is built: the grid x, psi(x), gm_row_integral(x),
    zeta and 1 + N*zeta.  SingularResonance is raised here when 1 + N*zeta
    vanishes, NonFiniteSolution when those profiles overflow.  The profile
    of a Sampled load with one sample per grid node (Simpson weights, kernel
    factors, block plans) is built on the first such solve and kept, so
    closed-form solves never pay for it; a Sampled load of any other size
    gets a throwaway profile.

    Reuse one operator for every load with the same coefficients, as the
    monotone iteration does for all sweeps of a bracket: each solve is then
    only the per-load convolution pass.  The cached arrays are read-only, and
    every solution's `grid` is the operator's own grid.
    """

    def __init__(self, M: float, N: float, L: float, grid_points: int):
        if not np.isfinite(N):
            raise ValueError(f"N must be finite, got {N}")
        params = KernelParams(M, L)
        x = _read_only(uniform_grid(L, grid_points))
        self.M, self.N, self.L, self.grid_points = M, N, L, grid_points
        self.params = params
        self.grid = x
        try:
            self.psi = _read_only(psi(x, params))
            self.gm_row = _read_only(gm_row_integral(x, params))
            self.zeta = zeta(params)
        except OverflowError as exc:
            raise NonFiniteSolution(f"kernel profiles overflow at M = {M:.6g}") from exc
        coupling = N * self.zeta
        self.denom = 1.0 + coupling
        if abs(self.denom) < _SINGULAR_TOL * max(1.0, abs(coupling)):
            raise SingularResonance(
                f"1 + N*zeta = {self.denom:.3e} is numerically zero (N*zeta = {coupling:.6g})"
            )
        self.regime = _classify_regime(M, N, L)
        self._profile = None

    def _profile_for(self, ns: int) -> _SampledProfile:
        if ns != self.grid_points:
            return _SampledProfile(self.params, ns, self.grid)
        if self._profile is None:
            self._profile = _SampledProfile(self.params, ns, self.grid)
        return self._profile

    def assemble(self, load: LoadSpec):
        """(A_tot, B_tot, Lambda) of the load on the operator's grid."""
        return _assemble(load, self.grid, self.params, self._profile_for)

    def solve(self, load: LoadSpec) -> GridSolution:
        """Solve the linear model for `load`: I = Lambda/(1 + N*zeta), then finish."""
        A_tot, B_tot, lam = self.assemble(load)
        integral_y = lam / self.denom
        return self.finish(A_tot, B_tot, self.N * integral_y, integral_y)

    def finish(self, A_tot, B_tot, coupled, integral_y) -> GridSolution:
        """The grid solution from the summed convolutions and the coupling term.

        y = (B - A)/M - coupled*psi and y'' = -A + coupled*gm_row_integral,
        where `coupled` is N times the integral fed back through the coupling:
        integral_y itself for a full solve, a partial sum for Picard.  Raises
        NonFiniteSolution when y, y'' or integral_y is NaN or infinite.
        """
        y = (B_tot - A_tot) / self.M - coupled * self.psi
        ypp = -A_tot + coupled * self.gm_row
        # Hinged-end conditions hold exactly in the closed forms; pin them to 0.
        y[0] = y[-1] = 0.0
        ypp[0] = ypp[-1] = 0.0
        if not (math.isfinite(integral_y) and np.isfinite(y).all() and np.isfinite(ypp).all()):
            raise NonFiniteSolution(
                f"solution is not finite (integral = {integral_y:.6g}); a load term"
                " may overflow over the span or hold non-finite samples"
            )
        meta = SolutionMeta(
            M=self.M, N=self.N, L=self.L, grid_points=self.grid_points, regime=self.regime
        )
        return GridSolution(grid=self.grid, y=y, ypp=ypp, integral_y=integral_y, meta=meta)


def gp_convolution(x, problem: LinearProblem):
    """Convolution of the solution kernel with the load, at positions x.

    This is the deflection of the plain (decoupled) beam under the load:
    the solution of y'''' - M y'' = p with hinged ends.  Accepts a scalar
    or an array of positions in [0, L]; returns matching shape.  Raises
    NonFiniteSolution when any value is NaN or infinite.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    slack = 1e-9 * problem.L
    if np.any(arr < -slack) or np.any(arr > problem.L + slack):
        raise ValueError("positions must lie within [0, L]")
    arr = np.clip(arr, 0.0, problem.L)
    A_tot, B_tot, _ = _assemble(problem.load, arr, KernelParams(problem.M, problem.L))
    out = (B_tot - A_tot) / problem.M
    if not np.isfinite(out).all():
        raise NonFiniteSolution("convolution of the load is not finite")
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def load_moment_g(problem: LinearProblem, grid_points: int = 1001) -> float:
    """Double integral of the solution kernel against the load (Lambda).

    Equals the integral over the span of gp_convolution; for a unit
    constant load it reduces to zeta(M, L).  `grid_points` only matters
    when Sampled terms force quadrature.  Raises NonFiniteSolution when the
    result is NaN or infinite.
    """
    x = uniform_grid(problem.L, grid_points)
    _, _, lam = _assemble(problem.load, x, KernelParams(problem.M, problem.L))
    if not math.isfinite(lam):
        raise NonFiniteSolution(f"load moment is not finite ({lam:.6g})")
    return float(lam)


def solve_linear(
    problem: LinearProblem,
    grid_points: int = 1001,
    operator: Optional[LinearOperator] = None,
) -> GridSolution:
    """Solve the linear model on a uniform grid of `grid_points` nodes.

    `operator` is a LinearOperator built for the problem's (M, N, L) and
    `grid_points`, to reuse across solves; by default one is built for this
    call.  An operator built for anything else raises ValueError.

    Raises SingularResonance when 1 + N*zeta vanishes to within roundoff,
    in which case no finite solution exists for generic loads, and
    NonFiniteSolution when any output is NaN or infinite.
    """
    if operator is None:
        operator = LinearOperator(problem.M, problem.N, problem.L, grid_points)
    else:
        built = (operator.M, operator.N, operator.L, operator.grid_points)
        wanted = (problem.M, problem.N, problem.L, grid_points)
        if built != wanted:
            raise ValueError(
                f"operator built for (M, N, L, grid_points) = {built}, problem needs {wanted}"
            )
    return operator.solve(problem.load)


def picard_iterate(problem: LinearProblem, n: int, grid_points: int = 1001) -> GridSolution:
    """n-th step of the fixed-point iteration behind the solution formula.

    Starting from y_0 = gp_convolution (the decoupled beam deflection),
    each step feeds the previous integral back through the coupling:
    y_k = y_0 - N*integral(y_{k-1})*psi.  The sequence is the partial-sum
    form of the geometric series that solve_linear sums exactly, so it
    converges at rate |N*zeta|; that magnitude must be below 1.  Raises
    NonFiniteSolution when any output is NaN or infinite.
    """
    if n < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n}")
    d = problem.N * zeta(KernelParams(problem.M, problem.L))
    if abs(d) >= 1.0:
        raise NotContractive(
            f"|N*zeta| = {abs(d):.6g} >= 1: the fixed-point iteration diverges"
        )
    operator = LinearOperator(problem.M, problem.N, problem.L, grid_points)
    A_tot, B_tot, lam = operator.assemble(problem.load)
    # Partial sums of the geometric series in (-d).
    s_prev = sum((-d) ** j for j in range(n))
    s_n = s_prev + (-d) ** n
    return operator.finish(A_tot, B_tot, problem.N * lam * s_prev, float(lam * s_n))


def residual(solution: GridSolution, problem: LinearProblem) -> float:
    """Largest interior defect of the model equation, relative to the load size.

    The fourth derivative is formed by applying the fourth-order five-point
    second-difference stencil to the stored second derivative (and M y'' by
    applying it to y), so the check is independent of how y and y'' were
    assembled while avoiding the noise amplification of a direct five-point
    fourth difference.  The nonlocal term uses the solution's stored integral.
    """
    x, y, ypp = solution.grid, solution.y, solution.ypp
    m = x.size
    if m < 7:
        raise ValueError("residual check needs at least 7 grid points")
    h = x[1] - x[0]

    def second_diff(v):
        return (
            -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
        ) / (12.0 * h * h)

    p_vals = problem.load.evaluate(x, problem.L)
    defect = (
        second_diff(ypp)
        - problem.M * second_diff(y)
        + problem.N * solution.integral_y
        - p_vals[2:-2]
    )
    scale = max(1.0, float(np.max(np.abs(p_vals))))
    return float(np.max(np.abs(defect))) / scale
