"""CDF representations, quantiles, and transport distances on the line.

Two CDF representations are used throughout: the empirical step CDF of a
particle cloud, and a mesh-based CDF that is piecewise linear between cell
centers (anchored at 0 on the left domain edge and 1 on the right).  The
1-d Wasserstein-1 distance between probability measures equals the L1
distance between their CDFs, which is what `w1` computes: exact piecewise
integration of |F - G| over the merged breakpoint set.

Gaussian CDFs use `ndtr`, a numpy port of Cephes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import InputError
from .randomness import STREAM_INIT, _p1evl, _polevl, _sorted_union, ndtri, uniforms

__all__ = [
    "ndtr",
    "StepCDF",
    "GridFunction",
    "InitialDistribution",
    "EmptyInputError",
    "empirical_cdf",
    "w1",
    "l1_cdf_distance",
    "point_mass",
    "uniform",
    "gaussian",
    "mixture",
]


# Cephes ndtr with its erf and erfc (Moshier, "Methods and Programs for
# Mathematical Functions", 1989), the algorithm of scipy.special.ndtr.
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1; erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= x < 8, exp(-x^2) R(x)/S(x) from 8, and 0 where x^2 > MAXLOG.
_SQRT1_2 = 0.70710678118654752440  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _erf(x):
    """Cephes erf on |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def ndtr(a):
    """The standard normal CDF Phi(a), elementwise: Cephes ndtr with its
    erf and erfc, branch points, coefficients and Horner order.  Every
    branch runs on every point and np.where picks one; a 0-d input gives
    a numpy scalar."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        far = z >= 8.0
        ratio = (np.where(far, _polevl(z, _ERFC_R), _polevl(z, _ERFC_P))
                 / np.where(far, _p1evl(z, _ERFC_S), _p1evl(z, _ERFC_Q)))
        erfc = np.where(z < 1.0, 1.0 - _erf(z), np.exp(-z * z) * ratio)
        erfc = np.where(z * z > _MAXLOG, 0.0, erfc)
        half = 0.5 * erfc
        y = np.where(z < _SQRT1_2, 0.5 + 0.5 * _erf(x), np.where(x > 0, 1.0 - half, half))
    return y[()]


class EmptyInputError(InputError):
    pass


@dataclass(frozen=True)
class StepCDF:
    """Empirical CDF: F(x) = #{i : x_i <= x} / n (right-continuous)."""

    points: np.ndarray  # sorted support points

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=np.float64).ravel())
        if pts.size == 0:
            raise EmptyInputError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size

    def value(self, x):
        return np.searchsorted(self.points, x, side="right") / self.n

    def breakpoints(self) -> np.ndarray:
        return _sorted_union(self.points)


@dataclass(frozen=True)
class GridFunction:
    """CDF values on a uniform cell-centered mesh, nondecreasing in [0,1];
    extended as 0 left of the domain and 1 right of it."""

    x_min: float
    x_max: float
    values: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if self.validate:
            if not self.x_min < self.x_max:
                raise ValueError("x_min must be below x_max")
            if vals.ndim != 1 or vals.size < 1:
                raise ValueError("values must be a nonempty 1-d array")
            # negated comparisons, so that NaN fails them
            if not np.all((vals >= -1e-9) & (vals <= 1.0 + 1e-9)):
                raise ValueError("CDF values must lie in [0, 1]")
            if not np.all(np.diff(vals) >= -1e-9):
                raise ValueError("CDF values must be nondecreasing")
            vals = np.clip(vals, 0.0, 1.0)
        # validate=False stores values verbatim so solver output can be
        # checked for genuine range/monotonicity preservation
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cells(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx

    def _anchors(self):
        xs = np.concatenate(([self.x_min], self.centers(), [self.x_max]))
        ys = np.concatenate(([0.0], self.values, [1.0]))
        return xs, ys

    def value(self, x):
        xs, ys = self._anchors()
        return np.interp(x, xs, ys, left=0.0, right=1.0)

    def breakpoints(self) -> np.ndarray:
        return self._anchors()[0]

    def quantiles(self, xi: np.ndarray) -> np.ndarray:
        """Vectorized generalized inverse inf{x : F(x) >= xi}."""
        xs, ys = self._anchors()
        xi = np.asarray(xi, dtype=np.float64)
        k = np.clip(np.searchsorted(ys, xi, side="left"), 1, ys.size - 1)
        y0, y1 = ys[k - 1], ys[k]
        frac = np.where(y1 > y0, (xi - y0) / np.where(y1 > y0, y1 - y0, 1.0), 1.0)
        out = xs[k - 1] + frac * (xs[k] - xs[k - 1])
        return np.where(xi <= ys[0], xs[0], out)


def empirical_cdf(positions) -> StepCDF:
    """Step CDF of a particle cloud; ties share the count-<= value.  No
    positions raise EmptyInputError (`StepCDF`)."""
    return StepCDF(positions)


def _l1_between(F, G) -> float:
    """Exact integral of |F - G| for step / piecewise-linear CDFs.

    On each open interval between merged breakpoints both CDFs are linear;
    the interval integral is evaluated in closed form (with a sign-change
    split where needed).  Outside the breakpoint hull both CDFs are 0 or 1,
    so nothing is lost by integrating over the hull only.
    """
    bps = _sorted_union(F.breakpoints(), G.breakpoints())
    if bps.size < 2:
        return 0.0
    p, q = bps[:-1], bps[1:]
    width = q - p
    x1 = p + width / 3.0
    x2 = p + 2.0 * width / 3.0
    d1 = np.asarray(F.value(x1)) - np.asarray(G.value(x1))
    d2 = np.asarray(F.value(x2)) - np.asarray(G.value(x2))
    dp = 2.0 * d1 - d2  # linear extrapolation to the interval endpoints
    dq = 2.0 * d2 - d1
    same = dp * dq >= 0.0
    seg = np.where(
        same,
        0.5 * np.abs(dp + dq) * width,
        0.5 * (dp * dp + dq * dq) / np.maximum(np.abs(dp) + np.abs(dq), 1e-300) * width,
    )
    return float(np.sum(seg))


def w1(F, G) -> float:
    """Wasserstein-1 distance on the line: the L1 distance of the CDFs."""
    return _l1_between(F, G)


def l1_cdf_distance(u: GridFunction, F: StepCDF) -> float:
    """L1 distance between a mesh CDF and an empirical CDF."""
    return _l1_between(u, F)


_KINDS = ("point_mass", "uniform", "gaussian", "mixture")


@dataclass(frozen=True)
class InitialDistribution:
    """Initial law with an exact CDF and a reproducible sampler."""

    kind: str
    params: tuple = ()
    components: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown initial distribution kind {self.kind!r}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError(f"{self.kind} parameters {self.params} must be finite")
        if self.kind == "mixture":
            if len(self.components) != len(self.weights) or not self.components:
                raise ValueError("mixture needs matching components and weights")
            w = np.asarray(self.weights, dtype=np.float64)
            # negated comparisons, so that NaN and inf fail them
            if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
                raise ValueError("mixture weights must be finite, nonnegative and sum to 1")
        elif self.kind == "uniform":
            a, b = self.params
            if not a < b:
                raise ValueError("uniform(a, b) needs a < b")
        elif self.kind == "gaussian":
            if self.params[1] <= 0:
                raise ValueError("gaussian(mu, s) needs s > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "point_mass":
            return (x >= self.params[0]).astype(np.float64)
        if self.kind == "uniform":
            a, b = self.params
            return np.clip((x - a) / (b - a), 0.0, 1.0)
        if self.kind == "gaussian":
            mu, s = self.params
            return ndtr((x - mu) / s)
        out = np.zeros_like(x, dtype=np.float64)
        for w, comp in zip(self.weights, self.components):
            out += w * comp.cdf(x)
        return out

    def smoothed_cdf(self, x, s: float):
        """CDF convolved with a centered Gaussian of standard deviation s
        (closed form per component); s = 0 returns the exact CDF."""
        if s == 0.0:
            return self.cdf(x)
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "point_mass":
            return ndtr((x - self.params[0]) / s)
        if self.kind == "gaussian":
            mu, sd = self.params
            return ndtr((x - mu) / np.hypot(sd, s))
        if self.kind == "uniform":
            a, b = self.params
            za = (x - a) / s
            zb = (x - b) / s
            psi = lambda z: z * ndtr(z) + np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
            return np.clip(s / (b - a) * (psi(za) - psi(zb)), 0.0, 1.0)
        out = np.zeros_like(x, dtype=np.float64)
        for w, comp in zip(self.weights, self.components):
            out += w * comp.smoothed_cdf(x, s)
        return out

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "point_mass":
            return np.full_like(u, self.params[0])
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        if self.kind == "gaussian":
            mu, s = self.params
            return mu + s * ndtri(u)
        raise NotImplementedError

    def sample(self, n: int, seed, stream_id: int = STREAM_INIT) -> np.ndarray:
        """n i.i.d. draws, reproducible from (seed, stream_id).  An array of
        seeds gives one row of n draws per seed, each row equal to the draws
        of its seed alone."""
        if n < 1:
            raise EmptyInputError("need at least one sample")
        u = uniforms(seed, stream_id, 2 * n)
        u_comp, u_val = u[..., :n], u[..., n:]
        if self.kind != "mixture":
            return self._inverse_cdf(u_val)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u_comp, side="left")
        idx = np.minimum(idx, len(self.components) - 1)
        out = np.empty(u_val.shape)
        for i, comp in enumerate(self.components):
            mask = idx == i
            if np.any(mask):
                out[mask] = comp._inverse_cdf(u_val[mask])
        return out


def point_mass(x0: float) -> InitialDistribution:
    return InitialDistribution("point_mass", (float(x0),))


def uniform(a: float, b: float) -> InitialDistribution:
    return InitialDistribution("uniform", (float(a), float(b)))


def gaussian(mu: float, s: float) -> InitialDistribution:
    return InitialDistribution("gaussian", (float(mu), float(s)))


def mixture(components, weights) -> InitialDistribution:
    return InitialDistribution(
        "mixture", (), tuple(components), tuple(float(w) for w in weights)
    )


def grid_cdf(dist: InitialDistribution, x_min: float, x_max: float, cells: int) -> GridFunction:
    """Exact CDF of `dist` sampled at the cell centers of a uniform mesh."""
    dx = (x_max - x_min) / cells
    centers = x_min + (np.arange(cells) + 0.5) * dx
    return GridFunction(x_min, x_max, dist.cdf(centers))
