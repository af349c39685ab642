"""Closed-form solver for the linear nonlocal beam model.

The model on [0, L] with hinged ends is

    y'''' - M y'' + N * integral(y) = p,    y(0)=y(L)=y''(0)=y''(L)=0,

where integral(y) is the total integral of y over the span (a single scalar
coupling, not a pointwise term).  Writing I = integral(y), the load seen by
the plain beam operator is p - N*I, so

    y = y_p - N*I*psi,      I = Lambda / (1 + N*zeta),

with y_p the particular deflection (y_p'''' - M y_p'' = p, hinged ends),
Lambda the load moment (the integral of p*psi, as g is symmetric), and
psi/zeta the kernel row and double integrals.  Each load term gives its own
(A, y_p, Lambda), A being its convolution against the kernel of -d2/dx2 + M.
A constant v is exactly v*(gm_row_integral, psi, zeta) and a half sine has
cancellation-free forms; the other analytic terms form y_p = (B - A)/M, B
being the convolution against the kernel of -d2/dx2.  Sampled loads use
Simpson sums over their own nodes, in O(n) (_SampledProfile).

Second derivatives are assembled from the same convolutions (never by
differencing y): y_p'' = -A and (d2/dx2)psi = -gm_row_integral.
LinearOperator holds everything that does not depend on the load, so
repeated solves with fixed (M, N, L, grid) pay only for the convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import check_smallness
from .errors import NonFiniteSolution, NotContractive, SingularResonance
from .kernel import (
    KernelParams,
    _clip_domain,
    _quiet,
    _row_integrals,
    gm_row_integral,
    psi,
    sinh_frac,
    zeta,
)
from .loads import Affine, Constant, Cubic, LoadSpec, Sampled, SineHalfWave, SinhTerm
from .quadrature import simpson_weights, uniform_grid

__all__ = [
    "LinearProblem",
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
        if not (self.M > 0.0 and math.isfinite(self.M)):
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not math.isfinite(self.N):
            raise ValueError(f"N must be finite, got {self.N}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not isinstance(self.load, LoadSpec):
            raise TypeError("load must be a LoadSpec")


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Solution samples on a uniform grid.

    `y` and `ypp` (the second derivative) come from closed forms evaluated
    pointwise, so `ypp` is not a finite difference of `y`; `integral_y` is
    the analytic value of the nonlocal term, not a quadrature of `y`.
    `regime` says where the solution came from: the closed form's
    solvability label (LinearOperator), "finite-difference" from the
    oracle, or "monotone-<status>" from solve_bridge.
    """

    grid: np.ndarray
    y: np.ndarray
    ypp: np.ndarray
    integral_y: float
    regime: str


# Largest exponent in one _running_sums block, far below overflow at 709.
_BLOCK_EXPONENT = 300.0


def _damping_blocks(t: np.ndarray, mu: float):
    """Damping blocks over nondecreasing nodes t: ((start, stop, carry), ...) and scale.

    Each block holds the nodes within _BLOCK_EXPONENT/mu of its first node
    r_b, and scale = exp(mu*(t - r_b)) on it stays below exp(300).  carry =
    exp(-mu*(r_b - t_prev))/scale(t_prev) moves the previous block's last
    running sum onto this block's reference, so no factor overflows for any
    mu*L.
    """
    blocks, scale, start = [], np.empty_like(t), 0
    while start < t.size:
        r = t[start]
        stop = int(np.searchsorted(t, r + _BLOCK_EXPONENT / mu, side="right"))
        scale[start:stop] = np.exp(mu * (t[start:stop] - r))
        carry = math.exp(-mu * (r - t[start - 1])) / scale[start - 1] if start else 0.0
        blocks.append((start, stop, carry))
        start = stop
    return tuple(blocks), scale


def _running_sums(values: np.ndarray, coef: np.ndarray, blocks, reverse: bool) -> np.ndarray:
    """Exclusive running sums of values*coef, as an (n + 1, 2) real view.

    Forward, row k sums the samples j < k, with `reverse` j >= k; one complex
    cumsum per damping block, the previous block's carry entering with its first term.
    """
    terms = values * coef
    sums = np.empty(values.size + 1, complex)
    t, out = (terms[::-1], sums[::-1]) if reverse else (terms, sums)
    out[0] = 0.0
    for start, stop, carry in blocks:
        if start:
            prev = out[start]
            t[start] += complex(prev.real * carry, prev.imag)
        np.add.accumulate(t[start:stop], out=out[1 + start:1 + stop])
    return sums.view(float).reshape(-1, 2)


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(n, 2) array with columns `first` and `second`; a row views as one complex."""
    out = np.empty((first.size, 2))
    out[:, 0], out[:, 1] = first, second
    return out


class _SampledProfile:
    """Simpson sums of `ns` uniform samples against both kernels and psi.

    A(x) = sum_j gm(x, s_j)*w_j*p_j and B(x) likewise with g0, for samples
    p_j on their own uniform grid s_j and any positions x in [0, L].  Both
    kernels are semiseparable, g0(x, s) = min*(L - max)/L and
    gm(x, s) = K*exp(-mu*|x - s|)*P(min)*Q(max) with P(t) = -expm1(-2 mu t),
    Q(t) = P(L - t), K = 1/(2 mu P(L)), so each sum splits at x into running
    sums over s_j <= x and s_j > x: O(len(x) + ns) time and memory.  The
    load moment sum_j w_j*psi(s_j)*p_j needs no split.

    Every per-node factor depends only on (M, L, ns, x) and is folded here,
    once.  Per direction: one complex coefficient P*w*scale + 1j*t*w (w the
    Simpson weight, t the distance from the span's start or end, scale =
    exp(mu*(t - r_b)) in the sample's damping block) and one (len(x), 2)
    output factor: A's is P(L - x)*exp(-mu*(x - s[lo])), resp. P(x)*exp(-mu*(s[hi] - x)),
    over 2*mu*P(L) and the last summed sample's scale; B's is (L - x)/L, resp. x/L.
    `convolve` is one product and one cumsum per block per direction, then
    one multiply-add.  With `grid_psi` (a LinearOperator's psi), x is the
    samples' own grid: it shares their nodes, weights and psi, and the
    split at x is a slice.
    """

    def __init__(self, params: KernelParams, ns: int, x: np.ndarray, grid_psi=None):
        L, mu = params.L, params.mu
        on_grid = grid_psi is not None
        s = x if on_grid else uniform_grid(L, ns)

        def P(t):
            return -np.expm1(-2.0 * mu * t)

        # s[lo] <= x < s[lo + 1], so x = s[lo] on the grid; at x = L the suffix is empty.
        lo = np.arange(ns) if on_grid else np.searchsorted(s, x, side="right") - 1
        hi = np.minimum(lo + 1, ns - 1)
        u = L - s
        ws = simpson_weights(ns, L / (ns - 1))
        Ps, Pu = P(s), P(u)
        self.fwd_blocks, fwd_scale = _damping_blocks(s, mu)
        self.bwd_blocks, bwd_scale = _damping_blocks(u[::-1], mu)
        bwd_scale = bwd_scale[::-1]
        self.fwd_coef = _pairs(Ps * ws * fwd_scale, s * ws).view(complex).ravel()
        self.bwd_coef = _pairs(Pu * ws * bwd_scale, u * ws).view(complex).ravel()
        K = 2.0 * mu * P(L)
        P_left, P_right = (Pu, Ps) if on_grid else (P(L - x), P(x))
        near = 1.0 if on_grid else np.exp(-mu * (x - s[lo]))  # decay to s[lo]: 1 on the grid
        left = P_left * near / fwd_scale[lo] / K
        right = P_right * np.exp(-mu * (s[hi] - x)) / bwd_scale[hi] / K
        self.fwd_out = _pairs(left, (L - x) / L)
        self.bwd_out = _pairs(right, x / L)
        # Both running sums are read at row lo + 1 (samples j <= lo, resp. j > lo).
        self.at = slice(1, None) if on_grid else lo + 1
        self.wpsi = ws * (grid_psi if on_grid else psi(s, params))

    def convolve(self, values: np.ndarray):
        """(A, B, Lambda) for the samples `values`; Lambda is Simpson of p*psi."""
        fwd = _running_sums(values, self.fwd_coef, self.fwd_blocks, reverse=False)
        bwd = _running_sums(values, self.bwd_coef, self.bwd_blocks, reverse=True)
        AB = fwd[self.at] * self.fwd_out
        AB += bwd[self.at] * self.bwd_out
        A, B = AB.T
        return A, B, float(self.wpsi @ values)


def _convolve_term(term, x: np.ndarray, params: KernelParams, operator=None):
    """One load term's (A, y_p, Lambda) at the positions x.

    A(x) solves -A'' + M*A = p with zero ends, y_p is the term's particular
    deflection (y_p'''' - M*y_p'' = p, hinged ends; y_p'' = -A) and Lambda its
    load moment.  Affine, Cubic and SinhTerm form y_p = (B - A)/M (-B'' = p),
    losing about eps/(sqrt(M)*L)**2 as sqrt(M)*L falls, eps/(sqrt(M)*L)**4 for
    Affine.  A LinearOperator whose grid is x supplies its profiles, zeta and
    _SampledProfile for ns samples; without one, they are computed here.
    """
    M, L, mu, muL = params.M, params.L, params.mu, params.muL

    # Sampled first: every sweep of a monotone run solves one.
    if isinstance(term, Sampled):
        ns = term.values.size
        profile = _SampledProfile(params, ns, x) if operator is None else operator._profile_for(ns)
        A, B, lam = profile.convolve(term.values)
        y_p = np.subtract(B, A)
        y_p /= M
        return A, y_p, lam

    if isinstance(term, Constant):
        profiles = ((gm_row_integral(x, params), psi(x, params), zeta(params)) if operator is None
                    else (operator.gm_row, operator.psi, operator.zeta))
        return tuple(term.value * f for f in profiles)

    if isinstance(term, Affine):
        c0, c1 = term.c0, term.c1
        qL = (c0 + c1 * L) / M
        q0 = c0 / M
        A = (c0 + c1 * x) / M - qL * sinh_frac(mu * x, muL) - q0 * sinh_frac(mu * (L - x), muL)
        B = c0 * x * (L - x) / 2.0 + c1 * x * (L**2 - x**2) / 6.0
        # psi is symmetric about L/2, so the integral of x*psi is L/2 times zeta.
        z = zeta(params) if operator is None else operator.zeta
        return A, (B - A) / M, (c0 + c1 * L / 2.0) * z

    if isinstance(term, SineHalfWave):
        k2 = np.pi**2 / L**2
        A = term.amplitude * np.sin(np.pi * x / L) / (M + k2)
        return A, A / k2, term.amplitude * (2.0 * L / np.pi) / (M + k2) / k2

    if isinstance(term, Cubic):
        c3 = term.c3
        q = c3 * (x**3 / M + 6.0 * x / M**2)
        qL = c3 * (L**3 / M + 6.0 * L / M**2)
        A = q - qL * sinh_frac(mu * x, muL)
        B = c3 * x * (L**4 - x**4) / 20.0
        int_q = c3 * (L**4 / (4.0 * M) + 3.0 * L**2 / M**2)
        intA = int_q - qL * np.tanh(0.5 * muL) / mu
        intB = c3 * L**6 / 60.0
        return A, (B - A) / M, (intB - intA) / M

    if isinstance(term, SinhTerm):
        coef, r = term.coef, term.rate
        # Past rate*L of about 710 the closed form overflows (reported below).
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
        return A, (B - A) / M, (intB - intA) / M

    raise TypeError(f"unsupported load term {type(term).__name__}")


def _assemble(load: LoadSpec, x: np.ndarray, params: KernelParams, operator=None):
    """Sum the per-term results: (A_tot, y_p, Lambda) on the positions x.

    y_p, the particular deflection, and Lambda, the load moment, are the sums
    of the terms' own; B is never summed.  Every term returns fresh arrays, so
    the first term's arrays start the sums in place.  A closed form's power or
    quotient leaving the float range, or sinh_frac's ValueError when
    sqrt(M)*L underflows to 0, raises NonFiniteSolution.  Arrays that leave
    it hold inf or NaN, which every caller refuses; each runs under _quiet,
    so numpy does not warn on the way.
    """
    first, *rest = load.terms
    try:
        A_tot, y_p, lam = _convolve_term(first, x, params, operator)
        for term in rest:
            A, y_term, lam_term = _convolve_term(term, x, params, operator)
            A_tot += A
            y_p += y_term
            lam += lam_term
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NonFiniteSolution(f"a load term's closed form leaves the float range at "
                                f"L = {params.L:.6g}, sqrt(M)*L = {params.muL:.6g}") from exc
    return A_tot, y_p, lam


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LinearOperator:
    """Solution map of the linear model for fixed (M, N, L, grid_points).

    Everything a solve needs that does not depend on the load is computed
    once, when the operator is built: the grid x, psi(x) and gm_row_integral(x)
    (_row_integrals, with no domain check on the operator's own grid), zeta,
    1 + N*zeta and the regime label of every solution.  SingularResonance is
    raised here when 1 + N*zeta vanishes, NonFiniteSolution when zeta or the
    profiles leave the float range.  The profile of a Sampled load with one
    sample per grid node (see _SampledProfile) is built on its first solve and
    kept; a Sampled load of any other size gets a throwaway profile.

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
        self.psi, self.gm_row = map(_read_only, _row_integrals(x, params))
        self.zeta = zeta(params)
        mid = grid_points // 2  # both profiles peak at midspan
        if not all(map(math.isfinite, (self.zeta, self.psi[mid], self.gm_row[mid]))):
            raise NonFiniteSolution(f"kernel profiles overflow at M = {M:.6g}, L = {L:.6g}")
        coupling = N * self.zeta
        self.denom = 1.0 + coupling
        if abs(self.denom) < _SINGULAR_TOL * max(1.0, abs(coupling)):
            raise SingularResonance(
                f"1 + N*zeta = {self.denom:.3e} is numerically zero (N*zeta = {coupling:.6g})"
            )
        # The a-priori solvability label: N >= 0 leaves 1 + N*zeta >= 1, and for
        # N < 0, zeta < L**3/(12*M) keeps |N*zeta| < 2/3 under check_smallness.
        self.regime = ("unconditional" if N >= 0.0 else
                       "small-coupling" if check_smallness(M, N, L).satisfied else "unverified")
        self._profile = None

    def _profile_for(self, ns: int) -> _SampledProfile:
        if ns != self.grid_points:
            return _SampledProfile(self.params, ns, self.grid)
        if self._profile is None:
            self._profile = _SampledProfile(self.params, ns, self.grid, self.psi)
        return self._profile

    def assemble(self, load: LoadSpec):
        """(A_tot, y_p, Lambda) of the load on the operator's grid."""
        return _assemble(load, self.grid, self.params, self)

    @_quiet
    def solve(self, load: LoadSpec) -> GridSolution:
        """Solve the linear model for `load`: I = Lambda/(1 + N*zeta), then finish."""
        A_tot, y_p, lam = self.assemble(load)
        integral_y = lam / self.denom
        return self.finish(A_tot, y_p, self.N * integral_y, integral_y)

    def finish(self, A_tot, y_p, coupled, integral_y) -> GridSolution:
        """The grid solution from the summed terms and the coupling term.

        y = y_p - coupled*psi and y'' = -A + coupled*gm_row_integral,
        where `coupled` is N times the integral fed back through the coupling:
        integral_y itself for a full solve, a partial sum for Picard.  y and
        y'' are the two rows of one (2, n) array.  Raises NonFiniteSolution
        when y, y'' or integral_y is NaN or infinite.
        """
        rows = np.empty((2, self.grid_points))
        y, ypp = rows
        np.multiply(coupled, self.psi, out=y)
        np.subtract(y_p, y, out=y)
        np.multiply(coupled, self.gm_row, out=ypp)
        ypp -= A_tot
        # Hinged-end conditions hold exactly in the closed forms; pin them to 0.
        rows[:, 0] = rows[:, -1] = 0.0
        if not (math.isfinite(integral_y) and np.isfinite(rows).all()):
            raise NonFiniteSolution(
                f"solution is not finite (integral = {integral_y:.6g}); a load term"
                " may overflow over the span or hold non-finite samples"
            )
        return GridSolution(self.grid, y, ypp, integral_y, self.regime)


@_quiet
def gp_convolution(x, problem: LinearProblem):
    """Convolution of the solution kernel with the load, at positions x.

    This is the deflection of the plain (decoupled) beam under the load:
    the solution of y'''' - M y'' = p with hinged ends.  Accepts a scalar
    or an array of positions in [0, L]; returns matching shape.  Raises
    NonFiniteSolution when any value is NaN or infinite.
    """
    arr = _clip_domain(np.atleast_1d(x), problem.L)
    _, out, _ = _assemble(problem.load, arr, KernelParams(problem.M, problem.L))
    if not np.isfinite(out).all():
        raise NonFiniteSolution("convolution of the load is not finite")
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


@_quiet
def load_moment_g(problem: LinearProblem) -> float:
    """Double integral of the solution kernel against the load (Lambda).

    Equals the integral over the span of gp_convolution, and of load*psi;
    for a unit constant load it reduces to zeta(M, L).  No grid enters, so
    the convolutions are taken at the span's ends only.  Raises
    NonFiniteSolution when the result is NaN or infinite.
    """
    ends = np.array([0.0, problem.L])
    _, _, lam = _assemble(problem.load, ends, KernelParams(problem.M, problem.L))
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


@_quiet
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
    operator = LinearOperator(problem.M, problem.N, problem.L, grid_points)
    d = problem.N * operator.zeta
    if abs(d) >= 1.0:
        raise NotContractive(
            f"|N*zeta| = {abs(d):.6g} >= 1: the fixed-point iteration diverges"
        )
    A_tot, y_p, lam = operator.assemble(problem.load)
    # Partial sums of the geometric series in (-d).
    s_prev = sum((-d) ** j for j in range(n))
    s_n = s_prev + (-d) ** n
    return operator.finish(A_tot, y_p, problem.N * lam * s_prev, float(lam * s_n))


@_quiet
def residual(solution: GridSolution, problem: LinearProblem) -> float:
    """Largest interior defect of the model equation, relative to the load size.

    The fourth derivative is formed by applying the fourth-order five-point
    second-difference stencil to the stored second derivative (and M y'' by
    applying it to y), so the check is independent of how y and y'' were
    assembled while avoiding the noise amplification of a direct five-point
    fourth difference.  The nonlocal term is N times the Simpson integral of
    y, so a y inconsistent with its stored integral shows (at N = 0 none can).
    Raises NonFiniteSolution when the defect is not finite.
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
    # An underflowing step or an overflowing stencil raises below (_quiet: without warnings).
    defect = (
        second_diff(ypp)
        - problem.M * second_diff(y)
        + problem.N * float(simpson_weights(m, h) @ y)
        - p_vals[2:-2]
    )
    scale = max(1.0, float(np.max(np.abs(p_vals))))
    res = float(np.max(np.abs(defect))) / scale
    if not np.isfinite(res):
        raise NonFiniteSolution(f"the residual check is not finite ({res}) at h = {h:.6g}")
    return res
