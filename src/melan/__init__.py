"""Solvers and certification tools for cable-coupled beam deflection models.

The package covers one linear and one nonlinear model of a hinged beam
whose restoring force includes the span-integral of the deflection, the
positivity/uniqueness criteria that make two-sided bracketing work, the
monotone iteration itself, an engineering front end in physical bridge
units, finite-difference reference solvers, and a command-line interface.
"""

from .bridge import (
    ApplicabilityReport,
    BridgeParams,
    BridgeSolution,
    applicability,
    cable_length,
    derive_coefficients,
    load_envelope,
    solve_bridge,
)
from .criteria import (
    ConditionReport,
    SineCheck,
    check_positivity,
    check_sine_conditions,
    check_smallness,
    check_uniqueness,
    contraction_rho,
    sigma,
    xi,
)
from .errors import (
    BoundUnavailable,
    ConfigError,
    EnvelopeViolation,
    InvalidPair,
    MelanError,
    MissingCableLength,
    MonotonicityViolation,
    NewtonDiverged,
    NonFiniteSolution,
    NotApplicable,
    NotContractive,
    NotConverged,
    SingularResonance,
    SingularSystem,
)
from .kernel import (
    KernelParams,
    gm_row_integral,
    green_g,
    green_g0,
    green_gm,
    psi,
    sinh_ratio,
    theta,
    zeta,
)
from .linear import (
    GridSolution,
    LinearOperator,
    LinearProblem,
    SolutionMeta,
    gp_convolution,
    load_moment_g,
    picard_iterate,
    residual,
    solve_linear,
)
from .loads import (
    Affine,
    Constant,
    Cubic,
    LoadSpec,
    Sampled,
    SineHalfWave,
    SinhTerm,
)
from .monotone import (
    BoundPair,
    IterationTrace,
    Iterate,
    MelanProblem,
    MonotoneVerdict,
    SineShape,
    ZeroShape,
    error_bounds,
    iterate_melan,
    iterate_once,
    make_sine_pair,
    run_monotone,
    verify_lower,
    verify_upper,
)
from .oracle import FdConfig, fd_solve_linear, fd_solve_nonlinear

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MelanError",
    "ConfigError",
    "SingularResonance",
    "NonFiniteSolution",
    "NotContractive",
    "InvalidPair",
    "MonotonicityViolation",
    "NotConverged",
    "BoundUnavailable",
    "MissingCableLength",
    "EnvelopeViolation",
    "NotApplicable",
    "SingularSystem",
    "NewtonDiverged",
    # kernel
    "KernelParams",
    "sinh_ratio",
    "green_g",
    "green_g0",
    "green_gm",
    "theta",
    "gm_row_integral",
    "psi",
    "zeta",
    # loads
    "LoadSpec",
    "Constant",
    "Affine",
    "SineHalfWave",
    "Cubic",
    "SinhTerm",
    "Sampled",
    # linear
    "LinearProblem",
    "SolutionMeta",
    "GridSolution",
    "LinearOperator",
    "gp_convolution",
    "load_moment_g",
    "solve_linear",
    "picard_iterate",
    "residual",
    # criteria
    "ConditionReport",
    "SineCheck",
    "sigma",
    "xi",
    "check_positivity",
    "check_smallness",
    "check_uniqueness",
    "contraction_rho",
    "check_sine_conditions",
    # monotone
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
    # bridge
    "BridgeParams",
    "ApplicabilityReport",
    "BridgeSolution",
    "cable_length",
    "derive_coefficients",
    "load_envelope",
    "applicability",
    "solve_bridge",
    # oracle
    "FdConfig",
    "fd_solve_linear",
    "fd_solve_nonlinear",
]
