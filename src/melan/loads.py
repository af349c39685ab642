"""Load descriptions for the beam solvers.

A load is a sum of terms, each of a shape the linear solver can convolve
with the Green kernel in closed form (constants, affine ramps, a half-wave
sine, a cubic, hyperbolic sines) plus a catch-all sampled term handled by
quadrature.  Terms are immutable; scaling returns new objects.  The
closed-form terms reject NaN and infinite parameters at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSolution
from .kernel import _quiet
from .quadrature import uniform_grid

__all__ = [
    "Constant",
    "Affine",
    "SineHalfWave",
    "Cubic",
    "SinhTerm",
    "Sampled",
    "LoadSpec",
]


class _FiniteTerm:
    """Base of the closed-form terms: every field must be a finite number."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{type(self).__name__}.{name} must be finite, got {value}")

    def scaled(self, factor: float):
        """The load times factor: a closed-form term is linear in every field."""
        return type(self)(*(v * factor for v in vars(self).values()))


@dataclass(frozen=True)
class Constant(_FiniteTerm):
    """Uniform load p(x) = value."""

    value: float

    def evaluate(self, x, length: float):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class Affine(_FiniteTerm):
    """Linear ramp p(x) = c0 + c1*x."""

    c0: float
    c1: float

    def evaluate(self, x, length: float):
        return self.c0 + self.c1 * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SineHalfWave(_FiniteTerm):
    """Half-wave p(x) = amplitude*sin(pi*x/L), vanishing at both ends."""

    amplitude: float

    def evaluate(self, x, length: float):
        return self.amplitude * np.sin(np.pi * np.asarray(x, dtype=float) / length)


@dataclass(frozen=True)
class Cubic(_FiniteTerm):
    """Pure cubic p(x) = c3*x**3."""

    c3: float

    def evaluate(self, x, length: float):
        return self.c3 * np.asarray(x, dtype=float) ** 3


@dataclass(frozen=True)
class SinhTerm(_FiniteTerm):
    """Hyperbolic term p(x) = coef*sinh(rate*x); rate must be positive."""

    coef: float
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.rate > 0.0):
            raise ValueError(f"rate must be positive, got {self.rate}")

    def evaluate(self, x, length: float):
        return self.coef * np.sinh(self.rate * np.asarray(x, dtype=float))

    def scaled(self, factor: float) -> "SinhTerm":
        return SinhTerm(self.coef * factor, self.rate)


@dataclass(frozen=True, eq=False)
class Sampled:
    """Load given by uniform samples over [0, L]; piecewise-linear in between.

    The samples are held as a read-only float64 array (a copy of the input).
    The sample count must be odd and at least 3 so the values can also be
    integrated with Simpson weights on their native grid.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 3 or vals.size % 2 == 0:
            raise ValueError(f"sample count must be odd and >= 3, got shape {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def evaluate(self, x, length: float):
        xs = uniform_grid(length, self.values.size)
        return np.interp(np.asarray(x, dtype=float), xs, self.values)

    @_quiet  # solvers refuse the overflowing samples
    def scaled(self, factor: float) -> "Sampled":
        return Sampled(self.values * factor)


@dataclass(frozen=True)
class LoadSpec:
    """A load as a sum of terms; at least one term is required."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a load needs at least one term")
        object.__setattr__(self, "terms", terms)

    @_quiet
    def evaluate(self, x, length: float):
        """The load at the positions x; NonFiniteSolution if a value leaves the float range."""
        x = np.asarray(x, dtype=float)
        total = sum((term.evaluate(x, length) for term in self.terms), np.zeros_like(x))
        if not np.isfinite(total).all():
            raise NonFiniteSolution(f"the load leaves the float range on [0, {length:.6g}]")
        return total

    def scaled(self, factor: float) -> "LoadSpec":
        return LoadSpec(tuple(term.scaled(factor) for term in self.terms))
