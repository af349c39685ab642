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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotContractive, SingularResonance
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


def _damped_cumsum(t: np.ndarray, a: np.ndarray, mu: float) -> np.ndarray:
    """F_m = sum over j <= m of exp(-mu*(t_m - t_j))*a_j, for nondecreasing t.

    One plain cumsum of exp(mu*(t_j - r))*a_j per block of nodes within
    _BLOCK_EXPONENT/mu of the block's first node r, plus one damped carry
    from the previous block, so no factor overflows for any mu*L.
    """
    out = np.empty_like(a)
    start = 0
    while start < t.size:
        r = t[start]
        stop = int(np.searchsorted(t, r + _BLOCK_EXPONENT / mu, side="right"))
        scale = np.exp(mu * (t[start:stop] - r))
        carry = out[start - 1] * np.exp(-mu * (r - t[start - 1])) if start else 0.0
        out[start:stop] = (carry + np.cumsum(scale * a[start:stop])) / scale
        start = stop
    return out


def _sampled_convolutions(values: np.ndarray, x: np.ndarray, params: KernelParams):
    """Simpson sums A(x) = sum_j gm(x, s_j)*w_j*p_j and B(x) likewise with g0.

    p_j are the samples on their own uniform grid s_j; x is any positions in
    [0, L].  Both kernels are semiseparable, g0(x, s) = min*(L - max)/L and
    gm(x, s) = K*exp(-mu*|x - s|)*P(min)*Q(max) with P(t) = -expm1(-2 mu t),
    Q(t) = P(L - t), K = 1/(2 mu P(L)), so each sum splits at x into running
    sums over s_j <= x and s_j > x: O(len(x) + len(values)) time and memory.
    """
    L, mu = params.L, params.mu
    ns = values.size
    s = uniform_grid(L, ns)
    v = simpson_weights(ns, L / (ns - 1)) * values

    def P(t):
        return -np.expm1(-2.0 * mu * t)

    # s[lo] <= x < s[lo + 1]; the suffix index clipped to ns - 1 adds zero.
    lo = np.searchsorted(s, x, side="right") - 1
    hi = np.minimum(lo + 1, ns - 1)

    u = L - s[::-1]
    fwd = _damped_cumsum(s, P(s) * v, mu)
    bwd = _damped_cumsum(u, P(u) * v[::-1], mu)[::-1]
    A = (
        P(L - x) * np.exp(-mu * (x - s[lo])) * fwd[lo]
        + P(x) * np.exp(-mu * (s[hi] - x)) * bwd[hi]
    ) / (2.0 * mu * P(L))

    head = np.cumsum(s * v)
    tail = np.cumsum(u * v[::-1])[::-1]
    B = ((L - x) * head[lo] + x * tail[hi]) / L
    return A, B


def _convolve_term(term, x: np.ndarray, params: KernelParams):
    """Convolutions of one load term with the two second-order kernels.

    Returns (A, B, intA, intB): A(x) solves -A'' + M*A = p with zero ends,
    B(x) solves -B'' = p with zero ends, and intA/intB are their integrals
    over the span.  Analytic terms are closed forms; Sampled terms are Simpson
    sums over the samples (O(n), see _sampled_convolutions) and then over x.
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
        return A, B, intA, intB

    if isinstance(term, Sampled):
        A, B = _sampled_convolutions(term.values, x, params)
        wx = simpson_weights(x.size, L / (x.size - 1))
        return A, B, float(wx @ A), float(wx @ B)

    raise TypeError(f"unsupported load term {type(term).__name__}")


def _assemble(problem: LinearProblem, x: np.ndarray):
    """Sum the per-term convolutions: (A_tot, B_tot, Lambda) on the grid x.

    Lambda is the double integral of the full solution kernel against the
    load, i.e. the integral over the span of (B_tot - A_tot)/M.
    """
    params = KernelParams(problem.M, problem.L)
    A_tot = np.zeros_like(x)
    B_tot = np.zeros_like(x)
    lam = 0.0
    for term in problem.load.terms:
        A, B, intA, intB = _convolve_term(term, x, params)
        A_tot = A_tot + A
        B_tot = B_tot + B
        lam += (intB - intA) / problem.M
    return A_tot, B_tot, lam


def gp_convolution(x, problem: LinearProblem):
    """Convolution of the solution kernel with the load, at positions x.

    This is the deflection of the plain (decoupled) beam under the load:
    the solution of y'''' - M y'' = p with hinged ends.  Accepts a scalar
    or an array of positions in [0, L]; returns matching shape.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    slack = 1e-9 * problem.L
    if np.any(arr < -slack) or np.any(arr > problem.L + slack):
        raise ValueError("positions must lie within [0, L]")
    arr = np.clip(arr, 0.0, problem.L)
    A_tot, B_tot, _ = _assemble(problem, arr)
    out = (B_tot - A_tot) / problem.M
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def load_moment_g(problem: LinearProblem, grid_points: int = 1001) -> float:
    """Double integral of the solution kernel against the load (Lambda).

    Equals the integral over the span of gp_convolution; for a unit
    constant load it reduces to zeta(M, L).  `grid_points` only matters
    when Sampled terms force quadrature.
    """
    x = uniform_grid(problem.L, grid_points)
    _, _, lam = _assemble(problem, x)
    return float(lam)


def solve_linear(problem: LinearProblem, grid_points: int = 1001) -> GridSolution:
    """Solve the linear model on a uniform grid of `grid_points` nodes.

    Raises SingularResonance when 1 + N*zeta vanishes to within roundoff,
    in which case no finite solution exists for generic loads.
    """
    params = KernelParams(problem.M, problem.L)
    x = uniform_grid(problem.L, grid_points)
    A_tot, B_tot, lam = _assemble(problem, x)

    zeta_val = zeta(params)
    coupling = problem.N * zeta_val
    denom = 1.0 + coupling
    if abs(denom) < _SINGULAR_TOL * max(1.0, abs(coupling)):
        raise SingularResonance(
            f"1 + N*zeta = {denom:.3e} is numerically zero (N*zeta = {coupling:.6g})"
        )
    integral_y = lam / denom

    y = (B_tot - A_tot) / problem.M - problem.N * integral_y * psi(x, params)
    ypp = -A_tot + problem.N * integral_y * gm_row_integral(x, params)
    # Hinged-end conditions hold exactly in the closed forms; pin them to 0.
    y[0] = y[-1] = 0.0
    ypp[0] = ypp[-1] = 0.0

    meta = SolutionMeta(
        M=problem.M,
        N=problem.N,
        L=problem.L,
        grid_points=grid_points,
        regime=_classify_regime(problem.M, problem.N, problem.L),
    )
    return GridSolution(grid=x, y=y, ypp=ypp, integral_y=integral_y, meta=meta)


def picard_iterate(problem: LinearProblem, n: int, grid_points: int = 1001) -> GridSolution:
    """n-th step of the fixed-point iteration behind the solution formula.

    Starting from y_0 = gp_convolution (the decoupled beam deflection),
    each step feeds the previous integral back through the coupling:
    y_k = y_0 - N*integral(y_{k-1})*psi.  The sequence is the partial-sum
    form of the geometric series that solve_linear sums exactly, so it
    converges at rate |N*zeta|; that magnitude must be below 1.
    """
    if n < 0:
        raise ValueError(f"iteration count must be nonnegative, got {n}")
    params = KernelParams(problem.M, problem.L)
    x = uniform_grid(problem.L, grid_points)
    A_tot, B_tot, lam = _assemble(problem, x)

    d = problem.N * zeta(params)
    if abs(d) >= 1.0:
        raise NotContractive(
            f"|N*zeta| = {abs(d):.6g} >= 1: the fixed-point iteration diverges"
        )
    # Partial sums of the geometric series in (-d).
    s_prev = sum((-d) ** j for j in range(n))
    s_n = s_prev + (-d) ** n

    y = (B_tot - A_tot) / problem.M - problem.N * lam * s_prev * psi(x, params)
    ypp = -A_tot + problem.N * lam * s_prev * gm_row_integral(x, params)
    y[0] = y[-1] = 0.0
    ypp[0] = ypp[-1] = 0.0

    meta = SolutionMeta(
        M=problem.M,
        N=problem.N,
        L=problem.L,
        grid_points=grid_points,
        regime=_classify_regime(problem.M, problem.N, problem.L),
    )
    return GridSolution(grid=x, y=y, ypp=ypp, integral_y=float(lam * s_n), meta=meta)


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
