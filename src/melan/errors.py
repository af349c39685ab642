"""Exception types raised across the package.

Every error that callers are expected to catch derives from MelanError, so
`except MelanError` at a CLI or notebook boundary is always sufficient.
"""

from __future__ import annotations

__all__ = [
    "MelanError",
    "ConfigError",
    "SingularResonance",
    "NonFiniteSolution",
    "NotContractive",
    "InvalidPair",
    "MonotonicityViolation",
    "NotConverged",
    "BoundUnavailable",
    "EnvelopeViolation",
    "NotApplicable",
    "SingularSystem",
    "NewtonDiverged",
]


class MelanError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MelanError):
    """A configuration file or CLI argument set is invalid or inconsistent."""


class SingularResonance(MelanError):
    """The resolvent denominator 1 + N*zeta is (numerically) zero.

    The closed-form solution divides by this factor; when it vanishes the
    linear problem has either no solution or infinitely many for the given
    load, and no finite answer can be returned.
    """


class NonFiniteSolution(MelanError):
    """A solver produced NaN or infinite values, e.g. from an overflowing load term."""


class NotContractive(MelanError):
    """|N*zeta| >= 1, so the fixed-point iteration has no convergence guarantee."""


class InvalidPair(MelanError):
    """A candidate lower/upper bounding pair fails its defining inequalities."""


class MonotonicityViolation(MelanError):
    """An iteration step broke the expected ordering between successive iterates."""


class NotConverged(MelanError):
    """The two-sided iteration stopped before the bracket width reached tolerance.

    Carries the partial iterate tuples so callers can see how far the run got.
    """

    def __init__(self, message: str, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class BoundUnavailable(MelanError):
    """A requested error bound requires a contraction factor rho < 1 that does not hold."""


class EnvelopeViolation(MelanError):
    """The load leaves the admissible band 0 <= p(x) <= A*sin(pi*x/L) + B."""


class NotApplicable(MelanError):
    """The physical configuration fails the applicability conditions of the method."""


class SingularSystem(MelanError):
    """The banded finite-difference system could not be factored."""


class NewtonDiverged(MelanError):
    """The damped Newton iteration for the nonlinear check solver failed to converge."""
