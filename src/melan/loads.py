"""Load descriptions for the beam solvers.

A load is a sum of terms, each of a shape the linear solver can convolve
with the Green kernel in closed form (constants, affine ramps, a half-wave
sine, a cubic, hyperbolic sines) plus a catch-all sampled term handled by
quadrature.  Terms are immutable; scaling returns new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Constant",
    "Affine",
    "SineHalfWave",
    "Cubic",
    "SinhTerm",
    "Sampled",
    "LoadTerm",
    "LoadSpec",
]


@dataclass(frozen=True)
class Constant:
    """Uniform load p(x) = value."""

    value: float

    def evaluate(self, x, length: float):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def scaled(self, factor: float) -> "Constant":
        return Constant(self.value * factor)


@dataclass(frozen=True)
class Affine:
    """Linear ramp p(x) = c0 + c1*x."""

    c0: float
    c1: float

    def evaluate(self, x, length: float):
        return self.c0 + self.c1 * np.asarray(x, dtype=float)

    def scaled(self, factor: float) -> "Affine":
        return Affine(self.c0 * factor, self.c1 * factor)


@dataclass(frozen=True)
class SineHalfWave:
    """Half-wave p(x) = amplitude*sin(pi*x/L), vanishing at both ends."""

    amplitude: float

    def evaluate(self, x, length: float):
        return self.amplitude * np.sin(np.pi * np.asarray(x, dtype=float) / length)

    def scaled(self, factor: float) -> "SineHalfWave":
        return SineHalfWave(self.amplitude * factor)


@dataclass(frozen=True)
class Cubic:
    """Pure cubic p(x) = c3*x**3."""

    c3: float

    def evaluate(self, x, length: float):
        return self.c3 * np.asarray(x, dtype=float) ** 3

    def scaled(self, factor: float) -> "Cubic":
        return Cubic(self.c3 * factor)


@dataclass(frozen=True)
class SinhTerm:
    """Hyperbolic term p(x) = coef*sinh(rate*x); rate must be positive."""

    coef: float
    rate: float

    def __post_init__(self):
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
        xs = np.linspace(0.0, length, self.values.size)
        return np.interp(np.asarray(x, dtype=float), xs, self.values)

    def scaled(self, factor: float) -> "Sampled":
        return Sampled(self.values * factor)


LoadTerm = Union[Constant, Affine, SineHalfWave, Cubic, SinhTerm, Sampled]


@dataclass(frozen=True)
class LoadSpec:
    """A load as a sum of terms; at least one term is required."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a load needs at least one term")
        object.__setattr__(self, "terms", terms)

    def evaluate(self, x, length: float):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for term in self.terms:
            total = total + term.evaluate(x, length)
        return total

    def scaled(self, factor: float) -> "LoadSpec":
        return LoadSpec(tuple(term.scaled(factor) for term in self.terms))
