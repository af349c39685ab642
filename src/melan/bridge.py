"""Engineering front end: physical bridge parameters to certified deflections.

Maps span, rigidity, cable stiffness and dead-load data to the coefficients
of the nonlinear model (units fixed as kN and m throughout), evaluates the
applicability and uniqueness conditions for the standard zero/sine bracket
at amplitude L/100, checks the live load against its admissible envelope,
runs the two-sided iteration on the load scaled by 1/EI, and post-processes
the additional cable tension caused by the deflection.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .criteria import ConditionReport, _report, check_sine_conditions
from .errors import ConfigError, EnvelopeViolation, MissingCableLength, NotApplicable
from .linear import GridSolution, SolutionMeta
from .loads import LoadSpec, Sampled
from .monotone import MelanProblem, MonotoneVerdict, _slack, make_sine_pair, run_monotone
from .quadrature import uniform_grid

__all__ = [
    "BridgeParams",
    "ApplicabilityReport",
    "BridgeSolution",
    "cable_length",
    "derive_coefficients",
    "load_envelope",
    "applicability",
    "solve_bridge",
]

# Sag-span ratios outside this band are accepted with a warning.
_TYPICAL_N = (1.0 / 14.0, 1.0 / 5.0)

# Certification gate on the sag-span ratio (used as a literal).
_SAG_GATE = 1.0 / 15.32


@dataclass(frozen=True)
class BridgeParams:
    """Physical description of a suspension bridge main span (kN, m units).

    The dead-load ratio q/H must be determined either by the sag-span
    ratio `n` (via q/H = 8n/L) or by `H` and `q` directly; when both
    routes are given they must agree to 1e-6 relative.  The cable length
    `Lc` may be omitted, in which case it is derived from the parabolic
    cable shape.
    """

    L: float
    EI: float
    EcAc: float
    n: Optional[float] = None
    H: Optional[float] = None
    q: Optional[float] = None
    Lc: Optional[float] = None

    def __post_init__(self):
        def _need(name, value, *, positive):
            if value is None:
                return
            ok = np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)
            if not ok:
                kind = "positive" if positive else "nonnegative"
                raise ConfigError(f"{name} must be {kind} and finite, got {value}")

        _need("L", self.L, positive=True)
        _need("EI", self.EI, positive=True)
        _need("EcAc", self.EcAc, positive=False)
        _need("n", self.n, positive=True)
        _need("H", self.H, positive=False)
        _need("q", self.q, positive=False)
        _need("Lc", self.Lc, positive=True)

        has_ratio = self.n is not None
        has_direct = self.H is not None and self.q is not None and self.H > 0.0
        if not has_ratio and not has_direct:
            raise ConfigError(
                "dead-load ratio underdetermined: give n, or both H > 0 and q"
            )
        if has_ratio and has_direct:
            from_n = 8.0 * self.n / self.L
            from_hq = self.q / self.H
            if abs(from_n - from_hq) > 1e-6 * from_hq:
                raise ConfigError(
                    f"inconsistent dead-load data: 8n/L = {from_n:.9g} but "
                    f"q/H = {from_hq:.9g}"
                )
        if self.H is None and (self.q is None or self.q == 0.0):
            raise ConfigError("horizontal tension underdetermined: give H, or q > 0 with n")

        n_eff = self.n if self.n is not None else (self.q / self.H) * self.L / 8.0
        if not (_TYPICAL_N[0] <= n_eff <= _TYPICAL_N[1]):
            _warnings.warn(
                f"sag-span ratio n = {n_eff:.6g} is outside the typical range "
                f"[1/14, 1/5]",
                stacklevel=2,
            )


@dataclass(frozen=True)
class _Resolved:
    """Fully determined physical quantities behind a BridgeParams."""

    qh: float
    H: float
    q: float
    n: float
    Lc: float


def cable_length(L: float, qh: float) -> float:
    """Length of a parabolic cable over span L with dead-load ratio qh = q/H.

    The cable shape has slope qh*(L/2 - x); the arc length integrates to
    (L/2)*sqrt(1 + (L**2/4)*qh**2) + asinh((L/2)*qh)/qh, which tends to L
    as qh -> 0 (flat cable).
    """
    if not (L > 0.0 and np.isfinite(L)):
        raise ValueError(f"L must be positive and finite, got {L}")
    if not (qh > 0.0 and np.isfinite(qh)):
        raise ValueError(f"qh must be positive and finite, got {qh}")
    half_slope = 0.5 * L * qh
    return 0.5 * L * np.sqrt(1.0 + half_slope**2) + np.arcsinh(half_slope) / qh


def _resolve(bp: BridgeParams) -> _Resolved:
    if bp.n is not None:
        qh = 8.0 * bp.n / bp.L
    else:
        qh = bp.q / bp.H
    H = bp.H if bp.H is not None else bp.q / qh
    q = bp.q if bp.q is not None else H * qh
    n = bp.n if bp.n is not None else qh * bp.L / 8.0
    if bp.Lc is not None:
        Lc = bp.Lc
    elif qh > 0.0:
        Lc = cable_length(bp.L, qh)
    else:
        raise MissingCableLength(
            "cable length cannot be derived without a positive dead-load ratio"
        )
    return _Resolved(qh=float(qh), H=float(H), q=float(q), n=float(n), Lc=float(Lc))


def derive_coefficients(bp: BridgeParams) -> Tuple[float, float, float]:
    """Map physical parameters to the (a, b, c) of the nonlinear model.

    a = H/EI, b = (q/H)*(EcAc/EI)/Lc and c = (q/H)*b, with q/H = 8n/L when
    the sag-span ratio is given.  Raises ConfigError when a coefficient
    overflows (an EI too small for the other data).
    """
    r = _resolve(bp)
    a = r.H / bp.EI
    b = r.qh * (bp.EcAc / bp.EI) / r.Lc
    c = r.qh * b
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(value):
            raise ConfigError(f"model coefficient {name} = {value} overflows (EI = {bp.EI:.6g})")
    return float(a), float(b), float(c)


def load_envelope(bp: BridgeParams) -> Tuple[float, float]:
    """Admissible live-load envelope (A, B) in kN/m.

    A live load satisfying 0 <= p(x) <= A*sin(pi*x/L) + B is dominated by
    the standard sine upper bound of amplitude L/100, with

        A = pi**4*EI/(100*L**3) + H*pi**2/(100*L) + (n*pi/625)*EcAc/Lc,
        B = (32*n**2/(25*pi))*EcAc/Lc.
    """
    r = _resolve(bp)
    L = bp.L
    A = (
        np.pi**4 * bp.EI / (100.0 * L**3)
        + r.H * np.pi**2 / (100.0 * L)
        + (r.n * np.pi / 625.0) * bp.EcAc / r.Lc
    )
    B = (32.0 * r.n**2 / (25.0 * np.pi)) * bp.EcAc / r.Lc
    return float(A), float(B)


@dataclass(frozen=True)
class ApplicabilityReport:
    """Certification status of the standard bracket for a bridge configuration.

    Carries the derived coefficients, the frozen linearization (M, N) for
    the sine bound of amplitude lam = L/100, each inequality report, the
    physical load envelope, and the overall verdict:

    - "certified-unique": positivity holds and either the sag-ratio gate
      or the sine uniqueness bound holds — the iteration brackets a single
      solution;
    - "certified-existence": positivity holds — the iteration brackets the
      extremal solutions;
    - "not-applicable": positivity fails — no ordering guarantee.
    """

    a: float
    b: float
    c: float
    n: float
    qh: float
    H: float
    q: float
    Lc: float
    lam: float
    M: float
    N: float
    positivity: ConditionReport
    necessary_b: ConditionReport
    necessary_c: ConditionReport
    uniqueness_sine: ConditionReport
    sag_ratio: ConditionReport
    envelope_sine: float
    envelope_const: float
    verdict: str

    @property
    def reports(self) -> List[ConditionReport]:
        return [
            self.positivity,
            self.necessary_b,
            self.necessary_c,
            self.uniqueness_sine,
            self.sag_ratio,
        ]


def applicability(bp: BridgeParams) -> ApplicabilityReport:
    """Evaluate every certification condition for the standard L/100 bracket.

    With lam = L/100 the sine bracket's coefficients reduce to
    M = a + b*L**2/(50*pi) and N = b*(800*n + pi**2)/(100*L) (identities
    checked in the tests).  Since sigma(x) < 20/x**2, positivity needs
    N < 80/L**5; the necessary conditions state that bound through b and
    through c.
    """
    r = _resolve(bp)
    a, b, c = derive_coefficients(bp)
    L = bp.L
    lam = L / 100.0

    sine = check_sine_conditions(a, b, c, L, lam)
    positivity = sine.reports[0]

    coeff = 800.0 * r.n + np.pi**2
    necessary_b = _report("necessary-b", coeff * b / 100.0, 80.0 / L**4)
    necessary_c = _report("necessary-c", coeff * c / (800.0 * r.n), 80.0 / L**5)
    uniqueness_sine = _report(
        "uniqueness-sine", (40.0 / np.pi + 5.0 * np.pi**2) * b / 100.0, 80.0 / L**4
    )
    sag_ratio = _report("sag-ratio", _SAG_GATE, r.n)

    if positivity.satisfied and (sag_ratio.satisfied or uniqueness_sine.satisfied):
        verdict = "certified-unique"
    elif positivity.satisfied:
        verdict = "certified-existence"
    else:
        verdict = "not-applicable"

    A, B = load_envelope(bp)
    return ApplicabilityReport(
        a=a, b=b, c=c,
        n=r.n, qh=r.qh, H=r.H, q=r.q, Lc=r.Lc,
        lam=float(lam), M=sine.M, N=sine.N,
        positivity=positivity,
        necessary_b=necessary_b,
        necessary_c=necessary_c,
        uniqueness_sine=uniqueness_sine,
        sag_ratio=sag_ratio,
        envelope_sine=A,
        envelope_const=B,
        verdict=verdict,
    )


@dataclass(frozen=True, eq=False)
class BridgeSolution:
    """Result of a full bridge run.

    `deflection` is the midpoint of the final bracket in meters; `h_w` is
    the additional horizontal cable tension (kN) caused by that deflection,
    (EcAc/Lc)*(q/H)*integral(w).  The full iteration history lives in
    `monotone` (and its lower/upper traces).
    """

    report: ApplicabilityReport
    monotone: MonotoneVerdict
    deflection: GridSolution
    h_w: float


def _envelope_points(live_load: LoadSpec, L: float) -> np.ndarray:
    """Positions at which the envelope condition is checked.

    Analytic terms are low-order and smooth, so a dense uniform grid is a
    faithful proxy; sampled terms are additionally checked at their own
    nodes and the midpoints between them.  Only extremes over the points
    are taken, so they are neither sorted nor deduplicated (`np.unique`
    would also import `numpy.ma` on a cold start).
    """
    pts = [uniform_grid(L, 1001)]
    for term in live_load.terms:
        if isinstance(term, Sampled):
            nodes = np.linspace(0.0, L, len(term.values))
            pts.append(nodes)
            pts.append(0.5 * (nodes[:-1] + nodes[1:]))
    return np.concatenate(pts)


def solve_bridge(
    bp: BridgeParams,
    live_load: LoadSpec,
    grid_points: int = 1001,
    max_iter: int = 100,
    tol: Optional[float] = None,
    force: bool = False,
) -> BridgeSolution:
    """Run the certified two-sided analysis for a live load in kN/m.

    The live load must stay inside the admissible envelope and the
    applicability verdict must be positive; `force=True` downgrades both
    refusals to warnings and runs the iteration unverified (its result is
    then uncertified).  The bracket is the standard zero/sine pair of
    amplitude L/100.
    """
    report = applicability(bp)
    L = bp.L

    x_env = _envelope_points(live_load, L)
    p_env = live_load.evaluate(x_env, L)
    bound = report.envelope_sine * np.sin(np.pi * x_env / L) + report.envelope_const
    slack = _slack(p_env)
    below = float(np.min(p_env))
    excess = float(np.max(p_env - bound))
    if below < -slack or excess > slack:
        msg = (
            f"live load leaves the admissible band 0 <= p <= "
            f"{report.envelope_sine:.6g}*sin(pi*x/L) + {report.envelope_const:.6g}"
            f" (min p = {below:.6g}, worst excess = {excess:.6g})"
        )
        if not force:
            raise EnvelopeViolation(msg)
        _warnings.warn(msg, stacklevel=2)

    if report.verdict == "not-applicable" and not force:
        raise NotApplicable(
            f"configuration is not certified: N = {report.positivity.lhs:.6g} "
            f"exceeds the positivity bound {report.positivity.rhs:.6g}"
        )

    load = live_load.scaled(1.0 / bp.EI)
    try:
        problem = MelanProblem(a=report.a, b=report.b, c=report.c, L=L, load=load)
    except ValueError as exc:
        raise ConfigError(f"the bridge data give no Melan problem: {exc}") from exc
    pair = make_sine_pair(problem, report.lam, grid_points)
    verdict = run_monotone(pair, max_iter=max_iter, tol=tol, strict=not force)

    meta = SolutionMeta(
        M=verdict.M, N=verdict.N, L=L, grid_points=grid_points,
        regime=f"monotone-{verdict.status}",
    )
    deflection = GridSolution(
        grid=verdict.grid,
        y=verdict.y,
        ypp=verdict.ypp,
        integral_y=verdict.integral_y,
        meta=meta,
    )
    h_w = (bp.EcAc / report.Lc) * report.qh * verdict.integral_y
    return BridgeSolution(
        report=report,
        monotone=verdict,
        deflection=deflection,
        h_w=float(h_w),
    )
