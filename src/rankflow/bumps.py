"""Compactly supported smooth test functions.

The building block is the standard bump exp(-1/(1-s^2)) on (-1,1),
normalized to unit integral; scaled copies and their first two derivatives
are available in closed form.  All evaluations are vectorized, compute the
formula only on the support and are exactly zero outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["bump", "bump_d1", "bump_d2", "Bump1D", "BUMP_L1"]

# unit-integral normalization of exp(-1/(1-s^2)) on (-1, 1): the value of
# scipy.integrate.quad(..., -1, 1, epsabs=1e-15), written out so that
# importing rankflow does not load scipy.integrate (tests/test_bumps.py
# pins it to quad)
BUMP_L1 = 0.44399381616807865

# cells of the uniform table behind Bump1D.tail_integral
_TAIL_CELLS = 16384


def _on_support(s, *formulas):
    """Per formula, formula(s_in, core, e) on the points with |s| < 1, where
    core = 1 - s^2 and e = exp(-1/core), and exactly 0.0 elsewhere (also at
    NaN); shape as s, float64.  One formula gives an array, several a tuple
    of arrays that share the support mask and the exp."""
    s = np.asarray(s, dtype=np.float64)
    inside = np.abs(s) < 1.0
    outs = tuple(np.zeros(s.shape) for _ in formulas)
    if inside.any():
        # a 0-d s is evaluated in numpy scalar arithmetic, whose x**3 rounds
        # differently from the array loop's x*x*x
        s_in = s[inside] if s.ndim else s[()]
        core = 1.0 - s_in * s_in
        e = np.exp(-1.0 / core)
        for out, formula in zip(outs, formulas):
            out[inside] = formula(s_in, core, e)
    return outs if len(outs) > 1 else outs[0]


def _value(s, core, e):
    return e


def _d1(s, core, e):
    return e * (-2.0 * s / core**2)


def _d2(s, core, e):
    g = 2.0 * s / core**2
    gp = 2.0 / core**2 + 8.0 * s * s / core**3
    return e * (g * g - gp)


def bump(s):
    """exp(-1/(1-s^2)) on (-1,1), zero elsewhere."""
    return _on_support(s, _value)


def bump_d1(s):
    return _on_support(s, _d1)


def bump_d2(s):
    return _on_support(s, _d2)


@dataclass(frozen=True)
class Bump1D:
    """Unit-mass bump centered at `center` with support radius `radius`."""

    center: float
    radius: float

    def __post_init__(self):
        # a negated comparison, so that NaN is rejected too
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius {self.radius} must be positive and finite")

    def _arg(self, x):
        return (np.asarray(x, dtype=np.float64) - self.center) / self.radius

    def __call__(self, x):
        return bump(self._arg(x)) / (BUMP_L1 * self.radius)

    def d1(self, x):
        return bump_d1(self._arg(x)) / (BUMP_L1 * self.radius**2)

    def d2(self, x):
        return bump_d2(self._arg(x)) / (BUMP_L1 * self.radius**3)

    def value_d1(self, x):
        """(self(x), self.d1(x)), bit for bit, from one argument, one support
        mask and one exp."""
        v, d = _on_support(self._arg(x), _value, _d1)
        return v / (BUMP_L1 * self.radius), d / (BUMP_L1 * self.radius**2)

    def support(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    @cached_property
    def _tail(self):
        """Nodes, tail values and slopes of the cumulative table: the
        cumulative trapezoid of f from lo on _TAIL_CELLS uniform cells of the
        support, tail = total - head, and np.interp's slope per cell."""
        lo, hi = self.support()
        # a node's rounding error stays below a quarter cell, which keeps
        # tail_integral's index guess within one cell of the node
        if max(abs(lo), abs(hi)) > 2.0**36 * self.radius:
            raise ValueError(f"bump centre {self.center!r} too far from 0 for radius {self.radius!r}")
        xs = np.linspace(lo, hi, _TAIL_CELLS + 1)
        ys = self(xs)
        head = np.concatenate(([0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
        tail = head[-1] - head
        return xs, tail, np.diff(tail) / np.diff(xs)

    @cached_property
    def norms(self) -> tuple[float, float, float]:
        """sup |f|, ||f'||_1 and ||f''||_1, sampled on 8193 uniform points of
        the support (trapezoid for the integrals)."""
        xs = np.linspace(*self.support(), 8193)
        return (float(np.max(np.abs(self(xs)))), float(np.trapezoid(np.abs(self.d1(xs)), xs)),
                float(np.trapezoid(np.abs(self.d2(xs)), xs)))

    def tail_integral(self, x):
        """F_tail(x) = int_x^inf f(y) dy, from a dense cached cumulative:
        bit for bit `np.interp(x, nodes, tail, left=tail[0], right=0.0)`,
        with the cell of x found by index arithmetic on the uniform nodes
        instead of a binary search."""
        xs, tail, slopes = self._tail
        lo, hi = xs[0], xs[-1]
        x = np.asarray(x, dtype=np.float64)
        shape = x.shape
        x = x.reshape(-1)
        # a non-finite x casts to an arbitrary index: +-inf then reads the
        # end values below, and NaN stays NaN as in np.interp
        with np.errstate(invalid="ignore"):
            j = ((x - lo) * (_TAIL_CELLS / (hi - lo))).astype(np.intp)
            np.clip(j, 0, _TAIL_CELLS - 1, out=j)
            # the guess is at most one cell off: step to the last node <= x
            j -= xs[j] > x
            j += xs[j + 1] <= x
            np.clip(j, 0, _TAIL_CELLS - 1, out=j)
            out = x - xs[j]
            out *= slopes[j]
            out += tail[j]
        out[x < lo] = tail[0]
        out[x >= hi] = 0.0
        return out.reshape(shape)[()]
