"""Model coefficients b, sigma, gamma on [0,1] and their integral transforms.

The solver and diagnostics consume five antiderivatives of the raw
coefficients:

    B(r)     = int_0^r b(a) da
    Sigma(r) = 1/2 int_0^r sigma^2(a) da
    Gamma(r) = 1/2 int_0^r gamma^2(a) da
    G(r)     = int_0^r gamma(a) da
    S(r)     = int_0^r sigma(a) da

Each is tabulated at the K+1 nodes r = k/K with fixed-order Gauss-Legendre
quadrature (order 8) per uniform subinterval, and evaluated between nodes
by the same quadrature from the nearest lower node, so evaluation is exact
for polynomial integrands up to degree 15 and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .expr import CoefficientExpr, parse_coefficient

__all__ = [
    "CoefficientSet",
    "ValidationReport",
    "ValidationError",
    "NondegeneracyViolated",
    "PositivityViolated",
    "DomainError",
    "build_coefficient_set",
    "build_from_sources",
    "validate",
    "sample_finite",
    "parse_coefficient",
    "TRANSFORMS",
]

# transform name -> its integrand as a function of (coefficient set, a)
_INTEGRANDS = {
    "B": lambda cs, a: cs.b(a),
    "Sigma": lambda cs, a: 0.5 * np.square(cs.sigma(a)),
    "Gamma": lambda cs, a: 0.5 * np.square(cs.gamma(a)),
    "G": lambda cs, a: cs.gamma(a),
    "S": lambda cs, a: cs.sigma(a),
}

TRANSFORMS = tuple(_INTEGRANDS)

_GL_NODES, _GL_WEIGHTS = leggauss(8)

_DOMAIN_TOL = 1e-12


class ValidationError(ValueError):
    pass


class NondegeneracyViolated(ValidationError):
    """sigma must be bounded away from zero on [0,1]."""


class PositivityViolated(ValidationError):
    """gamma must be strictly positive on [0,1]."""


class DomainError(ValueError):
    """Transform argument outside [0,1] beyond tolerance."""


@dataclass(frozen=True)
class ValidationReport:
    inf_sigma: float
    inf_gamma: float
    sup_abs_b: float
    sup_abs_sigma: float
    sup_abs_gamma: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CoefficientSet:
    """Immutable bundle of coefficients, derivative expressions, and
    antiderivative tables; safe to share across workers."""

    b: CoefficientExpr
    sigma: CoefficientExpr
    gamma: CoefficientExpr
    table_resolution: int
    tables: dict = field(repr=False)
    b_prime: CoefficientExpr = field(repr=False)
    gamma_prime: CoefficientExpr = field(repr=False)
    report: ValidationReport = field(repr=False)

    def eval_transform(self, which: str, r):
        """Continuous evaluation of a transform at r in [0,1].

        Accepts a scalar, which gives a float, or an array of any shape,
        which gives an array of that shape; each entry is evaluated on its
        own.  Values within 1e-12 outside [0,1] are clamped; anything
        further, or NaN, raises DomainError.
        """
        if which not in _INTEGRANDS:
            raise KeyError(f"unknown transform {which!r}; expected one of {TRANSFORMS}")
        shape = np.shape(r)
        r = np.asarray(r, dtype=np.float64).ravel()
        inside = (r >= -_DOMAIN_TOL) & (r <= 1.0 + _DOMAIN_TOL)
        if not inside.all():
            raise DomainError(f"transform argument {r[~inside][0]!r} outside [0,1]")
        r = np.clip(r, 0.0, 1.0)
        K = self.table_resolution
        k = np.minimum((r * K).astype(np.int64), K - 1)
        lo = k / K
        out = self.tables[which][k] + _gauss_legendre(self, which, lo, r - lo)
        return float(out[0]) if not shape else out.reshape(shape)


def _gauss_legendre(cs: CoefficientSet, which: str, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Integral of transform `which`'s integrand over [lo, lo + width] by
    order-8 Gauss-Legendre, entrywise over lo and width."""
    nodes = lo[None, :] + (width[None, :] * (_GL_NODES[:, None] + 1.0)) * 0.5
    return (0.5 * width) * np.einsum("i,ij->j", _GL_WEIGHTS, _INTEGRANDS[which](cs, nodes))


def _dense_grid(K: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, 10 * K + 1)


def sample_finite(expr: CoefficientExpr, grid: np.ndarray, name: str) -> np.ndarray:
    """Sample expr on grid; a non-finite sample raises ValidationError
    naming the expression."""
    vals = np.asarray(expr(grid), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = grid[~np.isfinite(vals)][0]
        raise ValidationError(
            f"coefficient {name} = {expr.source!r} is not finite at a = {bad:.6g}"
        )
    return vals


def validate(cs: CoefficientSet, allow_degenerate: bool = False) -> ValidationReport:
    """Sample coefficients on a dense grid (resolution 10*K), report the
    extremes, and enforce non-degeneracy of sigma and positivity of gamma.

    With allow_degenerate=True the two positivity failures become warnings
    in the report; needed for the closed-form oracle cases (pure heat has
    gamma = 0, pure transport has sigma -> 0).
    """
    grid = _dense_grid(cs.table_resolution)
    b_vals = sample_finite(cs.b, grid, "b")
    s_vals = sample_finite(cs.sigma, grid, "sigma")
    g_vals = sample_finite(cs.gamma, grid, "gamma")

    inf_sigma = float(np.min(s_vals))
    inf_gamma = float(np.min(g_vals))
    warnings = []
    if inf_sigma <= 0.0:
        msg = f"sigma is degenerate: sampled inf sigma = {inf_sigma:.6g} <= 0"
        if allow_degenerate:
            warnings.append(msg)
        else:
            raise NondegeneracyViolated(msg)
    if inf_gamma <= 0.0:
        msg = f"gamma is not strictly positive: sampled inf gamma = {inf_gamma:.6g} <= 0"
        if allow_degenerate:
            warnings.append(msg)
        else:
            raise PositivityViolated(msg)
    return ValidationReport(
        inf_sigma=inf_sigma,
        inf_gamma=inf_gamma,
        sup_abs_b=float(np.max(np.abs(b_vals))),
        sup_abs_sigma=float(np.max(np.abs(s_vals))),
        sup_abs_gamma=float(np.max(np.abs(g_vals))),
        warnings=tuple(warnings),
    )


def build_coefficient_set(
    b: CoefficientExpr,
    sigma: CoefficientExpr,
    gamma: CoefficientExpr,
    K: int,
    allow_degenerate: bool = False,
) -> CoefficientSet:
    """Build antiderivative tables on K uniform subintervals (K >= 16)."""
    if K < 16:
        raise ValidationError(f"table resolution K = {K} below minimum of 16")

    cs = CoefficientSet(
        b=b,
        sigma=sigma,
        gamma=gamma,
        table_resolution=K,
        tables={},
        b_prime=b.derivative(),
        gamma_prime=gamma.derivative(),
        report=ValidationReport(0, 0, 0, 0, 0),
    )
    report = validate(cs, allow_degenerate=allow_degenerate)

    lo = np.arange(K) / K
    width = np.full(K, 1.0 / K)
    tables = {}
    for which in TRANSFORMS:
        table = np.concatenate(([0.0], np.cumsum(_gauss_legendre(cs, which, lo, width))))
        table.setflags(write=False)
        tables[which] = table

    object.__setattr__(cs, "tables", tables)
    object.__setattr__(cs, "report", report)
    return cs


def build_from_sources(
    b: str, sigma: str, gamma: str, K: int, allow_degenerate: bool = False
) -> CoefficientSet:
    """Convenience wrapper: parse three expression strings and build."""
    return build_coefficient_set(
        parse_coefficient(b),
        parse_coefficient(sigma),
        parse_coefficient(gamma),
        K,
        allow_degenerate=allow_degenerate,
    )
