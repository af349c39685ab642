"""Engineering front end: physical bridge parameters to certified deflections.

Maps span, rigidity, cable stiffness and dead-load data to the coefficients
of the nonlinear model (units fixed as kN and m throughout), evaluates the
applicability and uniqueness conditions for the standard zero/sine bracket
at amplitude L/100, checks the live load against its admissible envelope,
runs the two-sided iteration on the load scaled by 1/EI, and post-processes
the additional cable tension caused by the deflection.
"""

from __future__ import annotations

import functools
import warnings as _warnings
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .criteria import ConditionReport, _report, check_positivity, check_sine_conditions
from .errors import ConfigError, EnvelopeViolation
from .kernel import _product, _quiet
from .linear import GridSolution
from .loads import LoadSpec, Sampled
from .monotone import MelanProblem, MonotoneVerdict, _verify_bound, make_sine_pair, run_monotone
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


def _positive(name: str, value) -> float:
    if not (value > 0.0 and np.isfinite(value)):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class BridgeParams:
    """Physical description of a suspension bridge main span (kN, m units).

    The dead-load ratio q/H must be determined either by the sag-span
    ratio `n` (via q/H = 8n/L) or by `H` and `q` directly; when both
    routes are given they must agree to 1e-6 relative.  The cable length
    `Lc` may be omitted, in which case it is derived from the parabolic
    cable shape.  Every quantity but EcAc (which may be 0) must be positive
    and finite, given or derived: construction resolves q/H, H, q, n and
    Lc once, into `_resolved`, or raises ConfigError.
    """

    L: float
    EI: float
    EcAc: float
    n: Optional[float] = None
    H: Optional[float] = None
    q: Optional[float] = None
    Lc: Optional[float] = None
    _resolved: _Resolved = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("L", "EI", "n", "H", "q", "Lc"):
            if getattr(self, name) is not None:
                _positive(name, getattr(self, name))
        if not (self.EcAc >= 0.0 and np.isfinite(self.EcAc)):
            raise ConfigError(f"EcAc must be nonnegative and finite, got {self.EcAc}")

        has_direct = self.H is not None and self.q is not None
        if self.n is not None:
            qh = 8.0 * self.n / self.L
            if has_direct and abs(qh - self.q / self.H) > 1e-6 * (self.q / self.H):
                raise ConfigError(
                    f"inconsistent dead-load data: 8n/L = {qh:.9g} but "
                    f"q/H = {self.q / self.H:.9g}"
                )
        elif has_direct:
            qh = self.q / self.H
        else:
            raise ConfigError("dead-load ratio underdetermined: give n, or both H and q")
        if self.H is None and self.q is None:
            raise ConfigError("horizontal tension underdetermined: give H, or q with n")

        qh = _positive("q/H", qh)
        H = _positive("H", self.H if self.H is not None else self.q / qh)
        q = _positive("q", self.q if self.q is not None else H * qh)
        n = _positive("n", self.n if self.n is not None else qh * self.L / 8.0)
        Lc = _positive("Lc", self.Lc if self.Lc is not None else cable_length(self.L, qh))
        object.__setattr__(self, "_resolved", _Resolved(qh=qh, H=H, q=q, n=n, Lc=Lc))

        if not (_TYPICAL_N[0] <= n <= _TYPICAL_N[1]):
            _warnings.warn(
                f"sag-span ratio n = {n:.6g} is outside the typical range "
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


@_quiet
def cable_length(L: float, qh: float) -> float:
    """Length of a parabolic cable over span L with dead-load ratio qh = q/H.

    The cable shape has slope qh*(L/2 - x); the arc length integrates to
    (L/2)*sqrt(1 + (L**2/4)*qh**2) + asinh((L/2)*qh)/qh, which tends to L
    as qh -> 0 (flat cable).  Raises ConfigError when the length overflows.
    """
    if not (L > 0.0 and np.isfinite(L)):
        raise ValueError(f"L must be positive and finite, got {L}")
    if not (qh > 0.0 and np.isfinite(qh)):
        raise ValueError(f"qh must be positive and finite, got {qh}")
    half_slope = np.float64(0.5 * L * qh)
    length = 0.5 * L * np.sqrt(1.0 + half_slope**2) + np.arcsinh(half_slope) / qh
    if not np.isfinite(length):
        raise ConfigError(f"the cable length overflows (L = {L:.6g}, q/H = {qh:.6g})")
    return length


def derive_coefficients(bp: BridgeParams) -> Tuple[float, float, float]:
    """Map physical parameters to the (a, b, c) of the nonlinear model.

    a = H/EI, b = (q/H)*(EcAc/EI)/Lc and c = (q/H)*b, with q/H = 8n/L when
    the sag-span ratio is given.  Raises ConfigError when a coefficient
    overflows (an EI too small for the other data) or is not positive (no
    cable coupling, EcAc = 0, or an underflow).
    """
    r = bp._resolved
    a = r.H / bp.EI
    b = r.qh * (bp.EcAc / bp.EI) / r.Lc
    c = r.qh * b
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(value):
            raise ConfigError(f"model coefficient {name} = {value} overflows (EI = {bp.EI:.6g})")
        if not value > 0.0:
            raise ConfigError(
                f"the bridge data give no Melan problem: {name} must be positive and "
                f"finite, got {value}"
            )
    return float(a), float(b), float(c)


def load_envelope(bp: BridgeParams) -> Tuple[float, float]:
    """Admissible live-load envelope (A, B) in kN/m; ConfigError if it overflows.

    A live load satisfying 0 <= p(x) <= A*sin(pi*x/L) + B is dominated by
    the standard sine upper bound of amplitude L/100, with

        A = pi**4*EI/(100*L**3) + H*pi**2/(100*L) + (n*pi/625)*EcAc/Lc,
        B = (32*n**2/(25*pi))*EcAc/Lc.
    """
    r = bp._resolved
    L = bp.L
    A = (
        _product((np.pi, 4), (bp.EI, 1), (100.0, -1), (L, -3))
        + r.H * np.pi**2 / (100.0 * L)
        + (r.n * np.pi / 625.0) * bp.EcAc / r.Lc
    )
    B = (_product((32.0, 1), (r.n, 2)) / (25.0 * np.pi)) * bp.EcAc / r.Lc
    if not (np.isfinite(A) and np.isfinite(B)):
        raise ConfigError(f"the live-load envelope overflows (n = {r.n:.6g}, EI = {bp.EI:.6g})")
    return float(A), float(B)


@dataclass(frozen=True)
class ApplicabilityReport:
    """Certification status of the standard bracket for a bridge configuration.

    Carries the derived coefficients, the frozen linearization (M, N) for
    the sine bound of amplitude lam = L/100, each inequality report and the
    physical load envelope; the overall verdict follows from the reports:

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

    @property
    def verdict(self) -> str:
        return ("not-applicable" if not self.positivity.satisfied
                else "certified-unique" if self.sag_ratio.satisfied
                or self.uniqueness_sine.satisfied else "certified-existence")

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
    through c.  A condition with a number beyond the float range raises
    ConfigError.
    """
    r = bp._resolved
    a, b, c = derive_coefficients(bp)
    L = bp.L
    lam = L / 100.0

    M, N = check_sine_conditions(a, b, c, L, lam)
    positivity = check_positivity(M, N, L)
    coeff = 800.0 * r.n + np.pi**2
    bound_b, bound_c = _product((80.0, 1), (L, -4)), _product((80.0, 1), (L, -5))
    necessary_b = _report("necessary-b", coeff * b / 100.0, bound_b)
    necessary_c = _report("necessary-c", coeff * c / (800.0 * r.n), bound_c)
    uniqueness_sine = _report(
        "uniqueness-sine", (40.0 / np.pi + 5.0 * np.pi**2) * b / 100.0, bound_b
    )
    sag_ratio = _report("sag-ratio", _SAG_GATE, r.n)
    for rep in (positivity, necessary_b, necessary_c, uniqueness_sine):
        if not all(np.isfinite((rep.lhs, rep.rhs, rep.margin))):
            raise ConfigError(f"the {rep.name} condition leaves the float range at span "
                              f"L = {L:.6g} (lhs {rep.lhs:.6g}, rhs {rep.rhs:.6g}, margin "
                              f"{rep.margin:.6g})")
    A, B = load_envelope(bp)
    return ApplicabilityReport(
        a=a, b=b, c=c,
        n=r.n, qh=r.qh, H=r.H, q=r.q, Lc=r.Lc,
        lam=float(lam), M=M, N=N,
        positivity=positivity,
        necessary_b=necessary_b,
        necessary_c=necessary_c,
        uniqueness_sine=uniqueness_sine,
        sag_ratio=sag_ratio,
        envelope_sine=A,
        envelope_const=B,
    )


@dataclass(frozen=True, eq=False)
class BridgeSolution:
    """Result of a full bridge run.

    `deflection` is the midpoint of the final bracket in meters; `h_w` is
    the additional horizontal cable tension (kN) caused by that deflection,
    (EcAc/Lc)*(q/H)*integral(w).  The full iteration history lives in
    `monotone` (and its lower/upper iterate tuples).
    """

    report: ApplicabilityReport
    monotone: MonotoneVerdict
    deflection: GridSolution
    h_w: float


@functools.lru_cache(maxsize=1)
def _bridge_facts(bp: BridgeParams) -> ApplicabilityReport:
    """applicability(bp), kept in one slot for the next live load on the same bridge."""
    return applicability(bp)


def _sampled_points(live_load: LoadSpec, L: float) -> np.ndarray:
    """A sampled term's nodes and the midpoints between them.

    The envelope condition is checked on the bracket's grid and, for each
    sampled term, also at these points, where its piecewise-linear shape
    bends.  Only extremes over the points are taken, so they are neither
    sorted nor deduplicated (`np.unique` would also import `numpy.ma` on a
    cold start).
    """
    pts = [np.empty(0)]
    for term in live_load.terms:
        if isinstance(term, Sampled):
            nodes = uniform_grid(L, len(term.values))
            pts.append(nodes)
            pts.append(0.5 * (nodes[:-1] + nodes[1:]))
    return np.concatenate(pts)


@_quiet
def solve_bridge(
    bp: BridgeParams,
    live_load: LoadSpec,
    grid_points: int = 1001,
    max_iter: int = 100,
    tol: Optional[float] = None,
    force: bool = False,
) -> BridgeSolution:
    """Run the certified two-sided analysis for a live load in kN/m.

    The bracket is the standard zero/sine pair of amplitude L/100 for the
    load over EI.  The live load must stay inside the admissible envelope,
    checked as EI times the bracket's load samples against EI times the
    sine's model (the envelope's upper edge) and at a sampled term's nodes
    and midpoints; run_monotone refuses a failing positivity condition.
    `force=True` downgrades both refusals to warnings and runs the
    iteration unverified (an envelope refusal heads its warnings).
    """
    report = _bridge_facts(bp)
    L = bp.L
    try:
        load = live_load.scaled(1.0 / bp.EI)
    except ValueError as exc:  # a term's field over EI leaves the float range
        raise ConfigError(f"the live load over EI = {bp.EI:.6g} is not finite: {exc}") from exc
    problem = MelanProblem(a=report.a, b=report.b, c=report.c, L=L, load=load)
    pair = make_sine_pair(problem, report.lam, grid_points)

    x_extra = _sampled_points(live_load, L)
    p_env = np.concatenate((bp.EI * pair.p, live_load.evaluate(x_extra, L)))
    bound = np.concatenate((bp.EI * pair.model, report.envelope_sine
                            * np.sin(np.pi * x_extra / L) + report.envelope_const))
    # The run's initial bound checks in kN/m; min p is 0.0 - low.lhs, so a 0 prints 0, not -0.
    low = _verify_bound("live-load-lower", 1.0, 0.0, p_env)
    high = _verify_bound("live-load-upper", -1.0, bound, p_env)
    outside = None
    if not (low.satisfied and high.satisfied and np.isfinite(high.rhs)):
        outside = (f"live load leaves the admissible band 0 <= p <= "
                   f"{report.envelope_sine:.6g}*sin(pi*x/L) + {report.envelope_const:.6g}"
                   f" (min p = {0.0 - low.lhs:.6g}, worst excess = {high.lhs:.6g})")
        if not force:
            raise EnvelopeViolation(outside)
        _warnings.warn(outside, stacklevel=3)  # past _quiet's wrapper, at the caller

    verdict = run_monotone(pair, max_iter=max_iter, tol=tol, strict=not force)
    if outside is not None:
        # The run's own bound checks allow roundoff slack that can pass a load just
        # outside the envelope; the forced refusal, as a warning, uncertifies the run.
        verdict = replace(verdict, warnings=(outside, *verdict.warnings))

    deflection = GridSolution(
        grid=verdict.pair.grid,
        y=verdict.y,
        ypp=verdict.ypp,
        integral_y=verdict.integral_y,
        regime=f"monotone-{verdict.status}",
    )
    h_w = (bp.EcAc / report.Lc) * report.qh * verdict.integral_y
    return BridgeSolution(
        report=report,
        monotone=verdict,
        deflection=deflection,
        h_w=float(h_w),
    )
