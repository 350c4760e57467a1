"""Compactly supported smooth test functions.

The building block is the standard bump exp(-1/(1-s^2)) on (-1,1),
normalized to unit integral; scaled copies and their first two derivatives
are available in closed form.  All evaluations are vectorized, compute the
formula only on the support and are exactly zero outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["bump", "bump_d1", "bump_d2", "Bump1D", "BUMP_L1"]

# unit-integral normalization of exp(-1/(1-s^2)) on (-1, 1): the value of
# scipy.integrate.quad(..., -1, 1, epsabs=1e-15), written out so that
# importing rankflow does not load scipy.integrate (tests/test_bumps.py
# pins it to quad)
BUMP_L1 = 0.44399381616807865


def _on_support(s, formula):
    """formula(s_in, core) on the points with |s| < 1, where core = 1 - s^2,
    and exactly 0.0 elsewhere (also at NaN); shape as s, float64."""
    s = np.asarray(s, dtype=np.float64)
    inside = np.abs(s) < 1.0
    out = np.zeros(s.shape)
    if inside.any():
        # a 0-d s is evaluated in numpy scalar arithmetic, whose x**3 rounds
        # differently from the array loop's x*x*x
        s_in = s[inside] if s.ndim else s[()]
        out[inside] = formula(s_in, 1.0 - s_in * s_in)
    return out


def bump(s):
    """exp(-1/(1-s^2)) on (-1,1), zero elsewhere."""
    return _on_support(s, lambda s, core: np.exp(-1.0 / core))


def bump_d1(s):
    return _on_support(s, lambda s, core: np.exp(-1.0 / core) * (-2.0 * s / core**2))


def _d2(s, core):
    g = 2.0 * s / core**2
    gp = 2.0 / core**2 + 8.0 * s * s / core**3
    return np.exp(-1.0 / core) * (g * g - gp)


def bump_d2(s):
    return _on_support(s, _d2)


@dataclass(frozen=True)
class Bump1D:
    """Unit-mass bump centered at `center` with support radius `radius`."""

    center: float
    radius: float
    _tail_x: np.ndarray = field(default=None, repr=False, compare=False)
    _tail_y: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def _arg(self, x):
        return (np.asarray(x, dtype=np.float64) - self.center) / self.radius

    def __call__(self, x):
        return bump(self._arg(x)) / (BUMP_L1 * self.radius)

    def d1(self, x):
        return bump_d1(self._arg(x)) / (BUMP_L1 * self.radius**2)

    def d2(self, x):
        return bump_d2(self._arg(x)) / (BUMP_L1 * self.radius**3)

    def support(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    def tail_integral(self, x):
        """F_tail(x) = int_x^inf f(y) dy, from a dense cached cumulative."""
        if self._tail_x is None:
            lo, hi = self.support()
            xs = np.linspace(lo, hi, 16385)
            ys = self(xs)
            # cumulative trapezoid of f from lo; tail = total - head
            head = np.concatenate(([0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
            tail = head[-1] - head
            object.__setattr__(self, "_tail_x", xs)
            object.__setattr__(self, "_tail_y", tail)
        return np.interp(x, self._tail_x, self._tail_y, left=self._tail_y[0], right=0.0)
