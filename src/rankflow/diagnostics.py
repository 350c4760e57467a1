"""Kinetic and entropy structure checks for solver output.

The solution u is probed through the kinetic function chi(xi, u), smooth
compactly supported test functions transported along the characteristics
x = y + b(xi) t + gamma(xi) z_t, and the parabolic dissipation measure
with density (1/2)(S(u)_x)^2 delta_{u(t,x)}(dxi).  Each diagnostic returns
a residual that should vanish (or decay under refinement) for solutions of
the conditional-CDF equation; none of them assumes anything about how the
snapshots were produced.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .bumps import Bump1D
from .bumps import bump, bump_d1, bump_d2  # noqa: F401  (the benchmark traces rankflow.diagnostics.bump*)
from .coefficients import PIECES, CoefficientSet
from .experiments import _fork_rows
from .measures import GridFunction
from .randomness import grid_indices
from .solver import SpdeSolution

__all__ = [
    "BumpTestFunction",
    "RhoValues",
    "eval_rho",
    "chain_rule_residual",
    "chain_rule_forms",
    "coarea_check",
    "dissipation_measure",
    "entropy_identity_residual",
    "weak_form_residual",
]

_XI_ORDER = 256
_XI_BINS = 256  # equal bins of [0, 1] into which the dissipation measure deposits

MIN_XI_SCALE = 0.05

# the transforms of the weak form and the dissipation measure are evaluated
# on groups of consecutive snapshots of at most this many points, one call
# per group.  On configs/diagnose.cfg (33 snapshots of 256 cells), against
# one call per snapshot, one call on all of them raised the peak RSS of a
# run by 1.6 MB and groups of 4096 points by 0.5 MB; groups of 2048 did not
_GROUP_POINTS = 2048


@cache
def _xi_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _XI_ORDER-node Gauss-Legendre rule mapped to
    [0, 1], read-only.  Computed on first use: leggauss(256) takes about
    7 ms, which every import would pay, and only the diagnostics read it."""
    from numpy.polynomial.legendre import leggauss  # about 0.75 MB, loaded for diagnose alone

    gl_nodes, gl_weights = leggauss(_XI_ORDER)
    nodes01, weights01 = 0.5 * (gl_nodes + 1.0), 0.5 * gl_weights
    nodes01.setflags(write=False)
    weights01.setflags(write=False)
    return nodes01, weights01


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized bump rho0(x~, xi~) = psi_{r_x}(x~) psi_{r_xi}(xi~),
    centered at (y, eta); each factor is a unit-mass `Bump1D` centred at 0,
    `fx` of radius r_x and `fxi` of radius r_xi, evaluated at the offsets
    x~ = (x - y) - shift and xi~ = xi - eta."""

    eta: float
    y: float
    r_xi: float
    r_x: float
    fx: Bump1D = field(init=False, repr=False, compare=False)
    fxi: Bump1D = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # negated comparisons, so that NaN is rejected too
        if not MIN_XI_SCALE <= self.r_xi < np.inf:
            raise ValueError(
                f"r_xi = {self.r_xi} must be finite and at least {MIN_XI_SCALE}; the fixed "
                "256-node xi quadrature cannot resolve narrower bumps"
            )
        if not 0.0 < self.r_x < np.inf:
            raise ValueError(f"r_x = {self.r_x} must be positive and finite")
        for name, centre in (("eta", self.eta), ("y", self.y)):
            if not abs(centre) < np.inf:
                raise ValueError(f"{name} = {centre} must be finite")
        object.__setattr__(self, "fx", Bump1D(0.0, self.r_x))
        object.__setattr__(self, "fxi", Bump1D(0.0, self.r_xi))

    def rho0(self, xt, xit):
        return self.fx(xt) * self.fxi(xit)


@dataclass(frozen=True)
class RhoValues:
    value: np.ndarray
    dxi: np.ndarray


def _x_key(tf: BumpTestFunction):
    return tf.y, tf.r_x


def _xi_key(tf: BumpTestFunction):
    return tf.eta, tf.r_xi


def _shared(tfs: Sequence[BumpTestFunction], key, make) -> list:
    """[make(tf) for tf in tfs], with make called once per distinct key(tf)
    and its result shared by every test function with that key."""
    memo = {}
    for tf in tfs:
        if key(tf) not in memo:
            memo[key(tf)] = make(tf)
    return [memo[key(tf)] for tf in tfs]


def _shift(cs: CoefficientSet, xi, t, z_t):
    """Characteristic displacement b(xi) t + gamma(xi) z_t."""
    return np.asarray(cs.b(xi)) * t + np.asarray(cs.gamma(xi)) * z_t


def eval_rho(tf: BumpTestFunction, cs: CoefficientSet, xi, t, x, z_t) -> RhoValues:
    """Transported test function rho0(x - y - b(xi) t - gamma(xi) z_t,
    xi - eta) with its xi partial derivative, which chains through the
    exact b', gamma'.  Every argument broadcasts, so t
    and z_t may be columns with one row per time."""
    xi = np.asarray(xi, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shift = _shift(cs, xi, t, z_t)
    xt = x - tf.y - shift
    xit = xi - tf.eta
    d_shift = np.asarray(cs.b_prime(xi)) * t + np.asarray(cs.gamma_prime(xi)) * z_t
    fx = tf.fx(xt)
    fxi = tf.fxi(xit)
    return RhoValues(
        value=fx * fxi,
        dxi=tf.fx.d1(xt) * (-d_shift) * fxi + fx * tf.fxi.d1(xit),
    )


def _reach(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, tfs: Sequence[BumpTestFunction]) -> slice:
    """The columns [j0, j1) of the (order, cells) grid outside which every
    x-bump of the family, fx((x_j - y) - shift_ij), is exactly zero: the
    hull of the windows of the distinct (y, r_x), slice(0, 0) if all are
    empty.

    A window is read off an interval [lo_j, hi_j] per column that holds
    every shift of the column (`_shift_range`; infinite ends make it
    reachable).  Rounded subtraction and division by r_x > 0 are monotone,
    so the bump argument s_ij = ((x_j - y) - shift_ij) / r_x lies between
    the same expressions at hi_j and lo_j, and a column whose interval
    misses (-1, 1) has no point with |s_ij| < 1."""
    cols = np.zeros(x.size, dtype=bool)
    for y, r_x in dict.fromkeys(map(_x_key, tfs)):
        d = x - y
        cols |= ((d - hi) / r_x < 1.0) & ((d - lo) / r_x > -1.0)
    j = np.flatnonzero(cols)
    return slice(int(j[0]), int(j[-1]) + 1) if j.size else slice(0, 0)


def _shift_range(cs: CoefficientSet, uv: np.ndarray, t: float, w_t: float):
    """Per column j, an interval [lo_j, hi_j] that holds every float shift
    `_shift` gives at a node of the column, all of which lie in [0, u_j].

    On piece k of [0, 1] the shift lies in t B_k + w_t G_k, where B_k and
    G_k are the enclosures of b and gamma stored on cs: rounded products
    and sums are monotone in each operand, so the same operations on the
    ends bound it, and an end that comes out NaN, as 0 * inf does, becomes
    infinite.  Column j takes the hull over the pieces that meet [0, u_j],
    at most one piece wider than [0, u_j], read off running minima and
    maxima, in O(cells) work; a NaN u_j gives (-inf, inf)."""
    ends = []
    with np.errstate(invalid="ignore"):
        for name, scale in (("b", t), ("gamma", w_t)):
            lo, hi = cs.enclosures[name]
            ends.append((np.minimum(lo * scale, hi * scale), np.maximum(lo * scale, hi * scale)))
        (b_lo, b_hi), (g_lo, g_hi) = ends
        # np.fmax(x, -inf) is x, and -inf where x is NaN
        lo = np.minimum.accumulate(np.fmax(b_lo + g_lo, -np.inf))
        hi = np.maximum.accumulate(np.fmin(b_hi + g_hi, np.inf))
    nan = np.isnan(uv)
    # pieces 0 .. last meet [0, u_j]: u_j * PIECES is exact
    last = np.maximum(np.ceil(np.where(nan, 1.0, uv) * PIECES).astype(np.intp) - 1, 0)
    return np.where(nan, -np.inf, lo[last]), np.where(nan, np.inf, hi[last])


def _windowed_quadrature(u: GridFunction, cs: CoefficientSet, tfs: Sequence[BumpTestFunction],
                         t: float, w_t: float):
    """The per-cell xi quadrature of u, Gauss-Legendre on [0, u_j] (the
    integrands are smooth there, unlike on [0, 1], where the kinetic cutoff
    at xi = u_j would cost accuracy), and the shift b(xi) t + gamma(xi) w_t
    on it, kept on the columns `cols` (`_reach`) that an x-bump of the
    family can reach: returns cols and, on them, the cell centres as a row,
    the (order, cols) nodes, weights and shift.  The window is read off the
    certified shift interval of each column (`_shift_range`), in O(cells)
    work, so it holds every column the full grid's shift reaches and may
    hold a few more; the shift kept is evaluated on the window alone.  Each
    value kept is bit for bit the full-grid one, and nodes and weights are
    built contiguous from u's columns."""
    uv = np.clip(u.values, 0.0, 1.0)
    x = u.centers()
    cols = _reach(x, *_shift_range(cs, uv, t, w_t), tfs)
    nodes01, weights01 = _xi_rule()
    nodes = nodes01[:, None] * uv[None, cols]
    weights = weights01[:, None] * uv[None, cols]
    return cols, x[None, cols], nodes, weights, _shift(cs, nodes, t, w_t)


def _padded_sums(buf: np.ndarray, cols: slice, blocks, scale: float) -> list[float]:
    """float(np.sum(full) * scale) per block, where full is the (order,
    cells) array equal to the block on the columns `cols` and 0.0 elsewhere.
    Each block is written into the zero buffer `buf`, which has that shape,
    and the whole buffer is summed: numpy's pairwise summation order
    depends on the shape alone, so every sum is bit for bit the full-grid
    one (a sum of zeros only reads +0.0 where a negative sigma, allowed as
    degenerate, made the full grid's zeros -0.0).  buf is zero again on
    return."""
    out = []
    for block in blocks:
        buf[:, cols] = block
        out.append(float(np.sum(buf) * scale))
    buf[:, cols] = 0.0
    return out


def _grid_sx(values: np.ndarray, dx: float, cs: CoefficientSet) -> np.ndarray:
    """d/dx of S(u(x)) along the last axis of `values`, one state or a stack
    of them on cells of width dx: central differences inside, one-sided at
    the ends, in one transform call."""
    su = cs.eval_transform("S", np.clip(values, 0.0, 1.0))
    return np.gradient(su, dx, axis=-1)


def _row_groups(rows: int, cells: int) -> list[slice]:
    """Consecutive slices of `rows` stacked states of `cells` points each,
    _GROUP_POINTS points or one row at most per slice."""
    step = max(1, _GROUP_POINTS // cells)
    return [slice(i, i + step) for i in range(0, rows, step)]


def chain_rule_forms(u: GridFunction, cs: CoefficientSet, tfs: Sequence[BumpTestFunction],
                     t: float, w_t: float) -> list[tuple[float, float, float]]:
    """For each test function rho of the family `tfs`, in order, the three
    evaluations whose agreement expresses the chain rule:

      lhs   = int int chi(xi, u) sigma(xi) rho_x dx dxi
      rhs   = -int S(u)_x rho(u(t,x), t, x) dx
      qform = -int_0^1 sigma(xi) rho0(u^{-1}(xi) - y - b(xi) t
                                       - gamma(xi) w_t, xi - eta) dxi

    b, gamma and sigma are evaluated once per call, and each bump factor
    once per distinct centre and radius.  The integrand of lhs is evaluated
    only on the columns its x-bumps can reach (`_windowed_quadrature`) and
    summed over the whole zero-padded (order, cells) grid (`_padded_sums`),
    so lhs is bit for bit the full-grid value.
    """
    x = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)

    cols, xw, nodes, weights, shift = _windowed_quadrature(u, cs, tfs, t, w_t)
    w_sig = weights * np.asarray(cs.sigma(nodes))
    fx1 = _shared(tfs, _x_key, lambda tf: tf.fx.d1((xw - tf.y) - shift))
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(nodes - tf.eta))
    buf = np.zeros((_XI_ORDER, x.size))
    lhs = _padded_sums(buf, cols, (w_sig * (a * c) for a, c in zip(fx1, fxi)), u.dx)
    del fx1, fxi, buf

    sx = _grid_sx(u.values, u.dx, cs)
    shift = _shift(cs, uv, t, w_t)
    fx = _shared(tfs, _x_key, lambda tf: tf.fx((x - tf.y) - shift))
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(uv - tf.eta))
    rhs = [float(-np.sum(sx * (a * c)) * u.dx) for a, c in zip(fx, fxi)]

    nodes01, weights01 = _xi_rule()
    q = u.quantiles(nodes01)
    shift = _shift(cs, nodes01, t, w_t)
    w_sig = weights01 * np.asarray(cs.sigma(nodes01))
    fx = _shared(tfs, _x_key, lambda tf: tf.fx((q - tf.y) - shift))
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(nodes01 - tf.eta))
    qform = [float(-np.sum(w_sig * (a * c))) for a, c in zip(fx, fxi)]
    return list(zip(lhs, rhs, qform))


def chain_rule_residual(u: GridFunction, cs: CoefficientSet, tfs: Sequence[BumpTestFunction],
                        t: float, w_t: float) -> list[float]:
    """|lhs - rhs| of the chain rule at one time, per test function in order."""
    return [abs(lhs - rhs) for lhs, rhs, _ in chain_rule_forms(u, cs, tfs, t, w_t)]


def coarea_check(u: GridFunction, cs: CoefficientSet, g) -> float:
    """|int g(x, u) gamma(u) u_x dx - int_0^1 g(u^{-1}(xi), xi) gamma(xi) dxi|."""
    centers = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)
    ux = np.gradient(u.values, u.dx)
    lhs = float(np.sum(np.asarray(g(centers, uv)) * np.asarray(cs.gamma(uv)) * ux) * u.dx)
    nodes01, weights01 = _xi_rule()
    q = u.quantiles(nodes01)
    rhs = float(np.sum(weights01 * np.asarray(g(q, nodes01)) * np.asarray(cs.gamma(nodes01))))
    return abs(lhs - rhs)


def dissipation_measure(sol: SpdeSolution, cs: CoefficientSet) -> tuple[np.ndarray, np.ndarray]:
    """The discrete parabolic dissipation measure of `sol` as two
    (snapshots, cells) arrays (xi, masses): at snapshot k and cell j the
    mass (1/2)(S(u)_x)^2 dx dt sits at xi, the centre of the one of _XI_BINS
    equal bins of [0, 1] that holds u(t_k, x_j).  The snapshot times must
    be the nodes of a uniform grid (`grid_indices`).  S is evaluated on
    groups of stacked snapshots (`_row_groups`), bit for bit the values of
    one call per snapshot."""
    times = np.asarray(sol.times)
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    try:
        grid_indices(times, np.linspace(times[0], times[-1], times.size), "uniform grid time")
    except ValueError:
        raise ValueError("snapshots must be on a uniform time grid") from None
    dt = float(times[1] - times[0])
    edges = np.linspace(0.0, 1.0, _XI_BINS + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    dx = sol.snapshots[0].dx
    xi = np.empty((times.size, sol.snapshots[0].cells))
    masses = np.empty(xi.shape)
    for rows in _row_groups(*xi.shape):
        values = np.stack([snap.values for snap in sol.snapshots[rows]])
        sx = _grid_sx(values, dx, cs)
        masses[rows] = 0.5 * sx * sx * dx * dt
        xi[rows] = centres[np.clip(np.digitize(values, edges) - 1, 0, _XI_BINS - 1)]
    return xi, masses


def _restrict(sol: SpdeSolution, s: float, t: float):
    """The snapshots from s to t (`SpdeSolution.snapshot_index`) and W at
    each of their times."""
    i, j = (int(sol.snapshot_index(r, name)) for name, r in (("s", s), ("t", t)))
    if not i < j:
        raise ValueError("s and t must be snapshot times with snapshots between them")
    sub = SpdeSolution(sol.times[i:j + 1], sol.snapshots[i:j + 1], sol.path)
    return sub, sol.path.values[grid_indices(sol.path.t_grid, sub.times, "snapshot time")]


def _entropy_terms(snap: GridFunction, r: float, w_r: float, cs: CoefficientSet,
                   tfs: Sequence[BumpTestFunction], boundary: bool, buf: np.ndarray):
    """Per test function, int int chi sigma^2 rho_xx at one snapshot and,
    if `boundary`, int int chi rho (else None).  The xi quadrature, shift
    and sigma^2 are built once, each bump factor once per distinct centre
    and radius; all of them are dropped on return.  Both integrands carry
    an x-bump: they are evaluated only on the columns it can reach
    (`_windowed_quadrature`) and summed in the zero (order, cells) buffer
    `buf` (`_padded_sums`), bit for bit the full-grid sums."""
    cols, x, nodes, weights, shift = _windowed_quadrature(snap, cs, tfs, r, w_r)
    sig2 = np.asarray(cs.sigma(nodes)) ** 2
    fxi = _shared(tfs, _xi_key, lambda tf: tf.fxi(nodes - tf.eta))
    fx_d2 = _shared(tfs, _x_key, lambda tf: tf.fx.d2((x - tf.y) - shift))
    diffusion = _padded_sums(buf, cols, (weights * (sig2 * (a * c)) for a, c in zip(fx_d2, fxi)),
                             snap.dx)
    if not boundary:
        return diffusion, None
    del fx_d2
    fx = _shared(tfs, _x_key, lambda tf: tf.fx((x - tf.y) - shift))
    return diffusion, _padded_sums(buf, cols, (weights * (a * c) for a, c in zip(fx, fxi)), snap.dx)


def entropy_identity_residual(sol: SpdeSolution, cs: CoefficientSet,
                              tfs: Sequence[BumpTestFunction], s: float, t: float) -> list[float]:
    """Signed defect of the pathwise entropy identity over [s, t], for each
    test function rho of the family `tfs`, in order:

        -[int int chi rho]_s^t + 1/2 int_s^t int int chi sigma^2 rho_xx
        - int int d_xi rho dn

    with n from dissipation_measure and the entropy defect measure m set
    to zero; each residual therefore estimates the pairing against m.

    The snapshot terms (`_entropy_terms`) are computed once per snapshot,
    each on its own, in one contiguous block of snapshots per usable CPU
    (`experiments._fork_rows`), so the residuals do not depend on the
    number of CPUs.  n is built once per call, here; for each rho, d_xi rho
    is evaluated in one call on all of n's (snapshots, cells) points, and
    the products with the masses are summed per snapshot and the row sums
    added in snapshot order.
    """
    sub, w = _restrict(sol, s, t)
    times = sub.times
    last = len(times) - 1

    def terms(ks: np.ndarray) -> np.ndarray:
        """(2, len(tfs), len(ks)): per snapshot k of ks, the diffusion term
        of each test function, and the boundary term where k is s or t
        (NaN elsewhere)."""
        out = np.full((2, len(tfs), ks.size), np.nan)
        buf = np.zeros((_XI_ORDER, sub.snapshots[0].cells))
        for i, k in enumerate(ks):
            out[0, :, i], bnd = _entropy_terms(sub.snapshots[k], float(times[k]), float(w[k]),
                                               cs, tfs, k in (0, last), buf)
            if bnd is not None:
                out[1, :, i] = bnd
        return out

    diffusion, boundary = _fork_rows(terms, np.arange(times.size))

    xi, masses = dissipation_measure(sub, cs)
    x = sub.snapshots[0].centers()
    out = []
    for tf, diff_vals, bnd in zip(tfs, diffusion, boundary):
        n_pair = 0.0
        for row, mass in zip(eval_rho(tf, cs, xi, times[:, None], x, w[:, None]).dxi, masses):
            n_pair += float(np.sum(row * mass))
        out.append(-(float(bnd[-1]) - float(bnd[0])) + 0.5 * float(np.trapezoid(diff_vals, times)) - n_pair)
    return out


def weak_form_residual(sol: SpdeSolution, cs: CoefficientSet, fs: Sequence[Bump1D],
                       s: float, t: float) -> list[float]:
    """Residual of the weak (distributional) form over [s, t] against each
    compactly supported f of the family `fs`, in order: time integrals by
    trapezoid on the snapshot grid, the noise integral as a left-endpoint
    Ito sum.  B, Sigma + Gamma and G are evaluated for the whole family on
    groups of stacked snapshots (`_row_groups`), bit for bit the values of
    one call per snapshot, G only where the Ito sum reads it: not at t."""
    first = sol.snapshots[0]
    for f in fs:
        lo, hi = f.support()
        if lo <= first.x_min or hi >= first.x_max:
            raise ValueError("test function support must lie inside the domain")
    sub, w = _restrict(sol, s, t)
    centers = first.centers()
    dx = first.dx
    derivs = [(f.d1(centers), f.d2(centers)) for f in fs]

    times = sub.times
    dw = np.diff(w)
    drift = np.empty((times.size, len(fs)))         # per snapshot, per f
    noise_coef = np.empty((times.size - 1, len(fs)))  # per left endpoint, per f
    for rows in _row_groups(times.size, first.cells):
        uv = np.clip(np.stack([snap.values for snap in sub.snapshots[rows]]), 0.0, 1.0)
        Bu = cs.eval_transform("B", uv)
        Du = cs.eval_transform("Sigma", uv) + cs.eval_transform("Gamma", uv)
        for i, (b_row, d_row) in enumerate(zip(Bu, Du), rows.start):
            drift[i] = [float(np.sum(b_row * f1 + d_row * f2) * dx) for f1, f2 in derivs]
        if rows.start < dw.size:
            Gu = cs.eval_transform("G", uv[:dw.size - rows.start])
            for i, g_row in enumerate(Gu, rows.start):
                noise_coef[i] = [float(np.sum(g_row * f1) * dx) for f1, _ in derivs]

    u_s, u_t = sub.snapshots[0].values, sub.snapshots[-1].values
    out = []
    for f, drift_f, noise_f in zip(fs, drift.T, noise_coef.T):
        fv = f(centers)
        drift_int = float(np.trapezoid(drift_f, times))
        noise_sum = float(np.sum(noise_f * dw))
        pairing_s = float(np.sum(u_s * fv) * dx)
        pairing_t = float(np.sum(u_t * fv) * dx)
        out.append(abs(pairing_t - pairing_s - drift_int - noise_sum))
    return out
