"""Compactly supported smooth test functions.

The building block is the unit-mass polynomial bump c (1-s^2)^4 on (-1,1),
c = 315/256, which is C^3; scaled copies, their first two derivatives,
their tails and their norms are available in closed form.  The evaluations
use only +, -, * and /, which are correctly rounded, so their bits do not
depend on the host's SIMD level, and are an exact +0.0 off the support
(also at NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import InputError

__all__ = ["bump", "bump_d1", "bump_d2", "Bump1D"]

# the unit-mass factor of (1 - s^2)^4 on (-1, 1), exact in binary
_C = 315.0 / 256.0


def _clamped(s):
    """s, with every point off (-1, 1) (NaN too) moved to -1, where each
    formula below is an exact +0.0, and 1 - s^2 on it."""
    s = np.asarray(s, dtype=np.float64)
    s = np.where(np.abs(s) < 1.0, s, -1.0)
    return s, 1.0 - s * s


def _value(core):
    core = core * core
    return _C * (core * core)


def _d1(s, core):
    return (-8.0 * _C) * s * (core * core * core)


def bump(s):
    """315/256 (1-s^2)^4 on (-1,1), zero elsewhere."""
    return _value(_clamped(s)[1])


def bump_d1(s):
    return _d1(*_clamped(s))


def bump_d2(s):
    s, core = _clamped(s)
    return (8.0 * _C) * (core * core) * (7.0 * (s * s) - 1.0)


@dataclass(frozen=True)
class Bump1D:
    """Unit-mass bump centered at `center` with support radius `radius`."""

    center: float
    radius: float

    def __post_init__(self):
        # negated comparisons, so that NaN is rejected too
        if not 0.0 < self.radius < np.inf:
            raise InputError(f"radius {self.radius} must be positive and finite")
        if not abs(self.center) < np.inf:
            raise InputError(f"center {self.center} must be finite")

    def _arg(self, x):
        return (np.asarray(x, dtype=np.float64) - self.center) / self.radius

    def __call__(self, x):
        return bump(self._arg(x)) / self.radius

    def d1(self, x):
        return bump_d1(self._arg(x)) / (self.radius * self.radius)

    def d2(self, x):
        return bump_d2(self._arg(x)) / (self.radius * self.radius * self.radius)

    def value_d1(self, x):
        """(self(x), self.d1(x)), bit for bit, from one argument and one
        clamp."""
        s, core = _clamped(self._arg(x))
        return _value(core) / self.radius, _d1(s, core) / (self.radius * self.radius)

    def support(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    @cached_property
    def norms(self) -> tuple[float, float, float]:
        """sup |f|, ||f'||_1 and ||f''||_1 in closed form: f peaks at the
        centre, f' changes sign once, and |f'| peaks where f'' = 0, at
        s* = 1/sqrt(7), so ||f''||_1 = 4 sup |f'|."""
        r = self.radius
        core = 6.0 / 7.0  # 1 - s*^2
        return _C / r, 2.0 * _C / r, 4.0 * (_C / (r * r)) * 8.0 * math.sqrt(1.0 / 7.0) * core * core * core

    def tail_integral(self, x):
        """F_tail(x) = int_x^inf f(y) dy = 1/2 - c P(s) at s = (x - center) /
        radius clipped to [-1, 1], with c P(s) = (315 s - 420 s^3 + 378 s^5
        - 180 s^7 + 35 s^9) / 256 the antiderivative of the unit-mass bump
        through 0, by Horner in s^2.  The integer coefficients sum to 128, so
        the tail is exactly 1 left of the support and 0 right of it; NaN
        stays NaN."""
        s = np.clip(self._arg(x), -1.0, 1.0)
        s2 = s * s
        p = ((((35.0 * s2 - 180.0) * s2 + 378.0) * s2 - 420.0) * s2 + 315.0) * s
        return 0.5 - p * (1.0 / 256.0)
