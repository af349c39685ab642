"""Finite-difference reference solvers, methodologically independent of the
closed-form path.

Both solvers discretize the span with second-order stencils (five-point
fourth difference, three-point second difference, trapezoid for the
nonlocal integral — deliberately not Simpson) and impose the hinged-end
conditions through explicit boundary rows: a direct row for y = 0 and a
one-sided second-difference row for y'' = 0 at each end.  The nonlocal
integral couples every unknown to every row, but only with rank one, so
each solve is a pentadiagonal solve plus a correction identity:

    (K + u t^T)^{-1} r = z - w * (t.z)/(1 + t.w),   K z = r,  K w = u.

Accuracy is oracle-grade, O(h^2): these exist to cross-check the
analytical solvers and to place nonlinear solutions inside monotone
brackets, not to compete with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged, SingularSystem
from .linear import GridSolution, LinearProblem
from .monotone import MelanProblem

__all__ = [
    "FdConfig",
    "fd_solve_linear",
    "fd_solve_nonlinear",
]


@dataclass(frozen=True)
class FdConfig:
    """Discretization and Newton controls for the reference solvers.

    `newton_tol` is an absolute residual target against the load scale
    max(1, max|p|).  The default is oracle-grade: the 1/h^4 stencil cannot
    be *evaluated* much below eps * max|y| / h^4 in double precision, so
    tolerances far tighter than 1e-4 are unreachable on short spans at
    fine grids.  Long-span problems reach much smaller residuals and can
    pass a tighter setting explicitly.
    """

    points: int = 2001
    newton_tol: float = 1e-4
    newton_max: int = 40
    damping: float = 0.8

    def __post_init__(self):
        if self.points < 101 or self.points % 2 == 0:
            raise ValueError(f"points must be odd and >= 101, got {self.points}")
        if not (self.newton_tol > 0.0):
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max < 1:
            raise ValueError(f"newton_max must be >= 1, got {self.newton_max}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


def _banded_matrix(m: int, h: float, M: float) -> np.ndarray:
    """Pentadiagonal rows of D4 - M*D2 with the four boundary rows, in
    solve_banded layout: ab[2 + i - j, j] holds entry (i, j)."""
    ab = np.zeros((5, m))
    h2 = h * h
    h4 = h2 * h2

    i = np.arange(2, m - 2)
    ab[0, i + 2] = 1.0 / h4
    ab[1, i + 1] = -4.0 / h4 - M / h2
    ab[2, i] = 6.0 / h4 + 2.0 * M / h2
    ab[3, i - 1] = -4.0 / h4 - M / h2
    ab[4, i - 2] = 1.0 / h4

    # y(0) = 0 and the one-sided second difference for y''(0) = 0.
    ab[2, 0] = 1.0
    ab[3, 0] = 2.0 / h2
    ab[2, 1] = -5.0 / h2
    ab[1, 2] = 4.0 / h2
    ab[0, 3] = -1.0 / h2
    # Mirrored rows at the right end.
    ab[2, m - 1] = 1.0
    ab[1, m - 1] = 2.0 / h2
    ab[2, m - 2] = -5.0 / h2
    ab[3, m - 3] = 4.0 / h2
    ab[4, m - 4] = -1.0 / h2
    return ab


def _trapezoid_row(m: int, h: float) -> np.ndarray:
    t = np.full(m, h)
    t[0] = t[-1] = 0.5 * h
    return t


def _rank_one_solve(ab: np.ndarray, rhs: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Solve (K + u t^T) y = rhs with K given in banded form."""
    # Imported here so that `import melan` (and every CLI run) does not load
    # scipy for a solver only the oracle uses.
    from scipy.linalg import solve_banded

    try:
        z = solve_banded((2, 2), ab, rhs)
        w = solve_banded((2, 2), ab, u)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"banded solve failed: {exc}") from exc
    denom = 1.0 + float(t @ w)
    if abs(denom) < 1e-12:
        raise SingularSystem(
            f"rank-one correction denominator 1 + t.w = {denom:.3e} is numerically zero"
        )
    return z - w * float(t @ z) / denom


def _ypp_by_differences(y: np.ndarray, h: float) -> np.ndarray:
    ypp = np.zeros_like(y)
    ypp[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (h * h)
    return ypp


def fd_solve_linear(problem: LinearProblem, cfg: FdConfig = FdConfig()) -> GridSolution:
    """Solve the linear model by banded finite differences.

    The system is the pentadiagonal discretization of y'''' - M y'' plus the
    rank-one trapezoid coupling N * integral(y), handled by the two-solve
    correction identity so the core stays banded.
    """
    m = cfg.points
    L = problem.L
    h = L / (m - 1)
    x = np.linspace(0.0, L, m)
    p = problem.load.evaluate(x, L)

    ab = _banded_matrix(m, h, problem.M)
    t = _trapezoid_row(m, h)
    rhs = np.zeros(m)
    rhs[2 : m - 2] = p[2 : m - 2]
    u = np.zeros(m)
    u[2 : m - 2] = problem.N

    y = _rank_one_solve(ab, rhs, u, t)
    return GridSolution(
        grid=x,
        y=y,
        ypp=_ypp_by_differences(y, h),
        integral_y=float(t @ y),
        regime="finite-difference",
    )


def fd_solve_nonlinear(problem: MelanProblem, cfg: FdConfig = FdConfig()) -> GridSolution:
    """Solve the nonlinear model by damped Newton on the discretized residual.

    The residual is w'''' - (a + b*T)*w'' + c*T - p with T the trapezoid
    integral of w; its Jacobian is the banded part with frozen coefficient
    a + b*T plus the rank-one term (c - b*w'')*t^T from the two integral
    couplings.  The start is the linear solve with (M, N) = (a, c),
    since the nonlinear correction is a mild perturbation in every regime
    of interest.  Convergence: residual sup-norm < newton_tol * max(1,
    max|p|).
    """
    m = cfg.points
    L = problem.L
    h = L / (m - 1)
    x = np.linspace(0.0, L, m)
    p = problem.load.evaluate(x, L)
    scale = max(1.0, float(np.max(np.abs(p))))
    t = _trapezoid_row(m, h)

    w = fd_solve_linear(LinearProblem(M=problem.a, N=problem.c, L=L, load=problem.load), cfg).y

    h2 = h * h
    h4 = h2 * h2
    for _ in range(cfg.newton_max):
        T = float(t @ w)
        d2 = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h2  # at nodes 1..m-2
        d4 = (w[:-4] - 4.0 * w[1:-3] + 6.0 * w[2:-2] - 4.0 * w[3:-1] + w[4:]) / h4
        a_eff = problem.a + problem.b * T

        resid = np.empty(m)
        resid[0] = w[0]
        resid[1] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h2
        resid[2 : m - 2] = d4 - a_eff * d2[1:-1] + problem.c * T - p[2 : m - 2]
        resid[m - 2] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h2
        resid[m - 1] = w[-1]

        if not np.all(np.isfinite(resid)):
            raise NewtonDiverged("residual became non-finite")
        if float(np.max(np.abs(resid))) < cfg.newton_tol * scale:
            break

        ab = _banded_matrix(m, h, a_eff)
        u = np.zeros(m)
        u[2 : m - 2] = problem.c - problem.b * d2[1:-1]
        delta = _rank_one_solve(ab, -resid, u, t)
        w = w + cfg.damping * delta
    else:
        raise NewtonDiverged(
            f"residual sup-norm still {float(np.max(np.abs(resid))):.3e} after "
            f"{cfg.newton_max} damped Newton steps"
        )

    return GridSolution(
        grid=x,
        y=w,
        ypp=_ypp_by_differences(w, h),
        integral_y=float(t @ w),
        regime="finite-difference",
    )
