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
from functools import cached_property

import numpy as np

from .expr import CoefficientExpr, enclose, parse_coefficient

__all__ = [
    "CoefficientSet",
    "ValidationReport",
    "ValidationError",
    "NondegeneracyViolated",
    "PositivityViolated",
    "DomainError",
    "build_from_sources",
    "bounds",
    "PIECES",
    "TRANSFORMS",
]

# transform name -> its integrand as a function of (b, sigma, gamma, a)
_INTEGRANDS = {
    "B": lambda b, sigma, gamma, a: b(a),
    "Sigma": lambda b, sigma, gamma, a: 0.5 * np.square(sigma(a)),
    "Gamma": lambda b, sigma, gamma, a: 0.5 * np.square(gamma(a)),
    "G": lambda b, sigma, gamma, a: gamma(a),
    "S": lambda b, sigma, gamma, a: sigma(a),
}

TRANSFORMS = tuple(_INTEGRANDS)

# leggauss(8) as the repr of its doubles, so that the import loads no numpy.polynomial
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                      0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                        0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])

_DOMAIN_TOL = 1e-12

# `eval_transform` works in blocks of this many points, so each Gauss-Legendre
# temporary holds at most 8 x 2048 doubles; on configs/diagnose.cfg, blocks of
# 4096 raised the peak RSS by 0.5 MB and one block of every point by 1.6 MB
_BLOCK_POINTS = 2048

# `bounds` encloses a coefficient on this many equal pieces of [0, 1]; a power
# of two, so that the cuts k / PIECES and the products u * PIECES are exact
PIECES = 1024


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
    enclosures: dict = field(repr=False)  # "b", "sigma", "gamma" -> `bounds`

    @cached_property
    def lipschitz(self) -> tuple[float, float, float]:
        """sup |b'|, sup |gamma'| and sup |sigma'| on [0, 1], read off the
        `bounds` of the symbolic derivatives on first use; a derivative
        unbounded on a piece raises ValidationError."""
        return tuple(float(np.max(np.abs(bounds(e, nm)))) for e, nm in (
            (self.b_prime, "b'"), (self.gamma_prime, "gamma'"), (self.sigma.derivative(), "sigma'")))

    @cached_property
    def _level_values(self) -> dict:
        return {}

    def at_levels(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """b, sigma and gamma at the rank levels k/n, k = 1 .. n: three
        read-only (n,) arrays, evaluated once per n.  The levels are the
        values `particles.rank_fractions` takes, bit for bit."""
        values = self._level_values.get(n)
        if values is None:
            levels = np.arange(1, n + 1) / n
            # broadcast_to gives read-only views; a particle step rejects
            # non-finite results
            with np.errstate(invalid="ignore"):
                values = tuple(np.broadcast_to(np.asarray(e(levels), dtype=np.float64), levels.shape)
                               for e in (self.b, self.sigma, self.gamma))
            self._level_values[n] = values
        return values

    def eval_transform(self, which: str, r):
        """Continuous evaluation of a transform at r in [0,1].

        Accepts a scalar, which gives a float, or an array of any shape,
        which gives an array of that shape; each entry is evaluated on its
        own, in blocks of _BLOCK_POINTS entries.  Values within 1e-12
        outside [0,1] are clamped; anything further, or NaN, raises
        DomainError.
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
        out = self.tables[which][k]
        for i in range(0, r.size, _BLOCK_POINTS):
            j = i + _BLOCK_POINTS
            out[i:j] += _gauss_legendre((self.b, self.sigma, self.gamma), which, lo[i:j], r[i:j] - lo[i:j])
        return float(out[0]) if not shape else out.reshape(shape)


def _gauss_legendre(coefs: tuple, which: str, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Integral of transform `which`'s integrand, given coefs = (b, sigma,
    gamma), over [lo, lo + width] by order-8 Gauss-Legendre, entrywise over
    lo and width."""
    nodes = lo[None, :] + (width[None, :] * (_GL_NODES[:, None] + 1.0)) * 0.5
    return (0.5 * width) * np.einsum("i,ij->j", _GL_WEIGHTS, _INTEGRANDS[which](*coefs, nodes))


def bounds(expr: CoefficientExpr, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lo, hi) with lo[k] <= expr(a) <= hi[k] at every float a of
    piece k, [k, k + 1] / PIECES, by `expr.enclose`.  A piece whose bounds
    are not finite (a pole, a root of a negative, an overflow) raises
    ValidationError naming expr and the piece."""
    cuts = np.arange(PIECES + 1) / PIECES
    lo, hi = enclose(expr.ast, cuts[:-1], cuts[1:])
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"coefficient {name} = {expr.source!r} is not bounded on piece {k} of {PIECES}, "
            f"[{cuts[k]:.8g}, {cuts[k + 1]:.8g}]"
        )
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def _report(enclosures: dict, allow_degenerate: bool) -> ValidationReport:
    """Bounds of b, sigma and gamma read off their `enclosures`, with
    non-degeneracy of sigma and positivity of gamma enforced on the
    certified lower bounds.

    With allow_degenerate=True the two positivity failures become warnings
    in the report; needed for the closed-form oracle cases (pure heat has
    gamma = 0, pure transport has sigma -> 0).
    """
    b, sigma, gamma = (enclosures[name] for name in ("b", "sigma", "gamma"))
    inf_sigma, inf_gamma = float(sigma[0].min()), float(gamma[0].min())
    warnings = []
    for inf, error, what in ((inf_sigma, NondegeneracyViolated, "sigma is degenerate"),
                             (inf_gamma, PositivityViolated, "gamma is not strictly positive")):
        if inf <= 0.0:
            msg = f"{what}: its lower bound {inf:.6g} <= 0"
            if not allow_degenerate:
                raise error(msg)
            warnings.append(msg)
    # lo <= hi, so the max of |lo| and |hi| is max(hi.max(), -lo.min())
    return ValidationReport(
        inf_sigma=inf_sigma,
        inf_gamma=inf_gamma,
        sup_abs_b=float(np.max(np.abs(b))),
        sup_abs_sigma=float(np.max(np.abs(sigma))),
        sup_abs_gamma=float(np.max(np.abs(gamma))),
        warnings=tuple(warnings),
    )


def build_from_sources(
    b: str, sigma: str, gamma: str, K: int, allow_degenerate: bool = False
) -> CoefficientSet:
    """Parse three expression strings, certify them on [0, 1] (`bounds`),
    and tabulate their transforms on K uniform subintervals (K >= 16).  A
    table entry that is not finite, as when a transform overflows, raises
    ValidationError naming the transform."""
    coefs = tuple(parse_coefficient(source) for source in (b, sigma, gamma))
    if K < 16:
        raise ValidationError(f"table resolution K = {K} below minimum of 16")
    enclosures = {name: bounds(e, name) for name, e in zip(("b", "sigma", "gamma"), coefs)}
    report = _report(enclosures, allow_degenerate)

    lo = np.arange(K) / K
    width = np.full(K, 1.0 / K)
    tables = {}
    for which in TRANSFORMS:
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.concatenate(([0.0], np.cumsum(_gauss_legendre(coefs, which, lo, width))))
        bad = ~np.isfinite(table)
        if bad.any():
            raise ValidationError(f"transform {which} of b = {b!r}, sigma = {sigma!r}, gamma = {gamma!r} "
                                  f"is not finite at r = {np.argmax(bad) / K:.8g}")
        table.setflags(write=False)
        tables[which] = table

    b, sigma, gamma = coefs
    return CoefficientSet(b=b, sigma=sigma, gamma=gamma, table_resolution=K, tables=tables,
                          b_prime=b.derivative(), gamma_prime=gamma.derivative(), report=report,
                          enclosures=enclosures)
