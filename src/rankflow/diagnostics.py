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

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bumps import BUMP_L1, Bump1D, bump, bump_d1, bump_d2
from .coefficients import CoefficientSet
from .measures import GridFunction
from .solver import SpdeSolution

__all__ = [
    "BumpTestFunction",
    "KineticMeasureEstimate",
    "RhoValues",
    "chi",
    "eval_rho",
    "chain_rule_residual",
    "chain_rule_forms",
    "coarea_check",
    "dissipation_measure",
    "entropy_identity_residual",
    "weak_form_residual",
]

_XI_ORDER = 256
_gl_nodes, _gl_weights = leggauss(_XI_ORDER)
# mapped to [0, 1]
_NODES01 = 0.5 * (_gl_nodes + 1.0)
_WEIGHTS01 = 0.5 * _gl_weights

MIN_XI_SCALE = 0.05


def chi(xi, u):
    """Kinetic function: 1 on 0 < xi < u, -1 on u < xi < 0, else 0."""
    xi = np.asarray(xi, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    pos = (xi > 0.0) & (xi < u)
    neg = (xi < 0.0) & (xi > u)
    return np.where(pos, 1.0, np.where(neg, -1.0, 0.0))


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized bump rho0(x~, xi~) = psi_{r_x}(x~) psi_{r_xi}(xi~),
    centered at (y, eta); each factor has unit integral."""

    eta: float
    y: float
    r_xi: float
    r_x: float

    def __post_init__(self):
        if self.r_xi < MIN_XI_SCALE:
            raise ValueError(
                f"xi-scale {self.r_xi} below {MIN_XI_SCALE}; the fixed 256-node "
                "quadrature cannot resolve narrower bumps"
            )
        if self.r_x <= 0:
            raise ValueError("r_x must be positive")

    def _fx(self, xt):
        return bump(np.asarray(xt) / self.r_x) / (BUMP_L1 * self.r_x)

    def _fx_d1(self, xt):
        return bump_d1(np.asarray(xt) / self.r_x) / (BUMP_L1 * self.r_x**2)

    def _fx_d2(self, xt):
        return bump_d2(np.asarray(xt) / self.r_x) / (BUMP_L1 * self.r_x**3)

    def _fxi(self, xit):
        return bump(np.asarray(xit) / self.r_xi) / (BUMP_L1 * self.r_xi)

    def _fxi_d1(self, xit):
        return bump_d1(np.asarray(xit) / self.r_xi) / (BUMP_L1 * self.r_xi**2)

    def rho0(self, xt, xit):
        return self._fx(xt) * self._fxi(xit)

    def rho0_dx(self, xt, xit):
        return self._fx_d1(xt) * self._fxi(xit)

    def rho0_dxx(self, xt, xit):
        return self._fx_d2(xt) * self._fxi(xit)

    def rho0_dxi(self, xt, xit):
        return self._fx(xt) * self._fxi_d1(xit)


@dataclass(frozen=True)
class RhoValues:
    value: np.ndarray
    dx: np.ndarray
    dxx: np.ndarray
    dxi: np.ndarray


def eval_rho(tf: BumpTestFunction, cs: CoefficientSet, xi, t: float, x, z_t: float) -> RhoValues:
    """Transported test function rho0(x - y - b(xi) t - gamma(xi) z_t,
    xi - eta) with its x, xx and xi partial derivatives; the xi derivative
    chains through the exact b', gamma'."""
    xi = np.asarray(xi, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shift = np.asarray(cs.b(xi)) * t + np.asarray(cs.gamma(xi)) * z_t
    xt = x - tf.y - shift
    xit = xi - tf.eta
    d_shift = np.asarray(cs.b_prime(xi)) * t + np.asarray(cs.gamma_prime(xi)) * z_t
    fx = tf._fx(xt)
    fx1 = tf._fx_d1(xt)
    fxi = tf._fxi(xit)
    return RhoValues(
        value=fx * fxi,
        dx=fx1 * fxi,
        dxx=tf._fx_d2(xt) * fxi,
        dxi=fx1 * (-d_shift) * fxi + fx * tf._fxi_d1(xit),
    )


def _cell_xi_quadrature(u_vals: np.ndarray):
    """Nodes/weights of per-cell Gauss-Legendre on [0, u_j]: shape
    (order, cells).  Integrands are smooth there, unlike on [0,1] where
    the kinetic cutoff at xi = u_j would cost accuracy."""
    nodes = _NODES01[:, None] * u_vals[None, :]
    weights = _WEIGHTS01[:, None] * u_vals[None, :]
    return nodes, weights


def _grid_sx(u: GridFunction, cs: CoefficientSet) -> np.ndarray:
    """d/dx of S(u(x)): central differences inside, one-sided at the ends."""
    su = cs.eval_transform("S", np.clip(u.values, 0.0, 1.0))
    return np.gradient(su, u.dx)


def _grid_ux(u: GridFunction) -> np.ndarray:
    return np.gradient(u.values, u.dx)


def chain_rule_forms(u: GridFunction, cs: CoefficientSet, tf: BumpTestFunction,
                     t: float, w_t: float):
    """The three evaluations whose agreement expresses the chain rule:

      lhs   = int int chi(xi, u) sigma(xi) rho_x dx dxi
      rhs   = -int S(u)_x rho(u(t,x), t, x) dx
      qform = -int_0^1 sigma(xi) rho0(u^{-1}(xi) - y - b(xi) t
                                       - gamma(xi) w_t, xi - eta) dxi
    """
    centers = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)
    nodes, weights = _cell_xi_quadrature(uv)
    rho = eval_rho(tf, cs, nodes, t, centers[None, :], w_t)
    sig = np.asarray(cs.sigma(nodes))
    lhs = float(np.sum(weights * sig * rho.dx) * u.dx)

    sx = _grid_sx(u, cs)
    rho_at_u = eval_rho(tf, cs, uv, t, centers, w_t)
    rhs = float(-np.sum(sx * rho_at_u.value) * u.dx)

    q = u.quantiles(_NODES01)
    shift = np.asarray(cs.b(_NODES01)) * t + np.asarray(cs.gamma(_NODES01)) * w_t
    vals = tf.rho0(q - tf.y - shift, _NODES01 - tf.eta)
    qform = float(-np.sum(_WEIGHTS01 * np.asarray(cs.sigma(_NODES01)) * vals))
    return lhs, rhs, qform


def chain_rule_residual(u: GridFunction, cs: CoefficientSet, tf: BumpTestFunction,
                        t: float, w_t: float) -> float:
    """|lhs - rhs| of the chain rule at one time."""
    lhs, rhs, _ = chain_rule_forms(u, cs, tf, t, w_t)
    return abs(lhs - rhs)


def coarea_check(u: GridFunction, cs: CoefficientSet, g) -> float:
    """|int g(x, u) gamma(u) u_x dx - int_0^1 g(u^{-1}(xi), xi) gamma(xi) dxi|."""
    centers = u.centers()
    uv = np.clip(u.values, 0.0, 1.0)
    ux = _grid_ux(u)
    lhs = float(np.sum(np.asarray(g(centers, uv)) * np.asarray(cs.gamma(uv)) * ux) * u.dx)
    q = u.quantiles(_NODES01)
    rhs = float(np.sum(_WEIGHTS01 * np.asarray(g(q, _NODES01)) * np.asarray(cs.gamma(_NODES01))))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class KineticMeasureEstimate:
    """Discrete parabolic dissipation measure: at snapshot k and cell j a
    mass (1/2)(S(u)_x)^2 dx dt sits in the xi bin containing u(t_k, x_j)."""

    xi_edges: np.ndarray
    times: np.ndarray
    x_centers: np.ndarray
    bin_idx: np.ndarray  # (snapshots, cells)
    masses: np.ndarray   # (snapshots, cells), nonnegative
    dx: float
    dt: float

    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def xi_centers(self) -> np.ndarray:
        return 0.5 * (self.xi_edges[:-1] + self.xi_edges[1:])

    def pair(self, fn) -> float:
        """sum of fn(xi_bin_center, t_k, x_j) * mass over all deposits."""
        centers = self.xi_centers()
        total = 0.0
        for k, t in enumerate(self.times):
            xi = centers[self.bin_idx[k]]
            total += float(np.sum(np.asarray(fn(xi, float(t), self.x_centers)) * self.masses[k]))
        return total


def dissipation_measure(sol: SpdeSolution, cs: CoefficientSet, xi_bins=256) -> KineticMeasureEstimate:
    """Deposit (1/2)(S(u)_x)^2 dx dt per (cell, snapshot) into the xi bin
    of u(t, x); snapshots must sit on a uniform time grid."""
    times = np.asarray(sol.times)
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("snapshots must be on a uniform time grid")
    dt = float(dts[0])
    edges = np.asarray(xi_bins, dtype=np.float64) if np.ndim(xi_bins) else np.linspace(0.0, 1.0, int(xi_bins) + 1)
    first = sol.snapshots[0]
    dx = first.dx
    nbins = edges.size - 1
    bin_idx = np.empty((times.size, first.cells), dtype=np.int32)
    masses = np.empty_like(bin_idx, dtype=np.float64)
    for k, snap in enumerate(sol.snapshots):
        sx = _grid_sx(snap, cs)
        masses[k] = 0.5 * sx * sx * dx * dt
        bin_idx[k] = np.clip(np.digitize(snap.values, edges) - 1, 0, nbins - 1)
    return KineticMeasureEstimate(
        xi_edges=edges, times=times, x_centers=first.centers(),
        bin_idx=bin_idx, masses=masses, dx=dx, dt=dt,
    )


def _restrict(sol: SpdeSolution, s: float, t: float) -> tuple[SpdeSolution, np.ndarray]:
    times = np.asarray(sol.times)
    mask = (times >= s - 1e-12) & (times <= t + 1e-12)
    idx = np.nonzero(mask)[0]
    if idx.size < 2 or abs(times[idx[0]] - s) > 1e-9 or abs(times[idx[-1]] - t) > 1e-9:
        raise ValueError("s and t must be snapshot times with snapshots between them")
    sub = SpdeSolution(times[idx], tuple(sol.snapshots[i] for i in idx), sol.path)
    return sub, idx


def entropy_identity_residual(sol: SpdeSolution, cs: CoefficientSet, W,
                              tf: BumpTestFunction, s: float, t: float,
                              xi_bins=256) -> float:
    """Signed defect of the pathwise entropy identity over [s, t]:

        -[int int chi rho]_s^t + 1/2 int_s^t int int chi sigma^2 rho_xx
        - int int d_xi rho dn

    with n from dissipation_measure and the entropy defect measure m set
    to zero; the residual therefore estimates the pairing against m.
    """
    sub, _ = _restrict(sol, s, t)
    times = sub.times
    w_at = {float(r): W.value_at(float(r)) for r in times}

    def _chi_pairing(snap: GridFunction, r: float, deriv: str) -> float:
        centers = snap.centers()
        uv = np.clip(snap.values, 0.0, 1.0)
        nodes, weights = _cell_xi_quadrature(uv)
        rho = eval_rho(tf, cs, nodes, r, centers[None, :], w_at[float(r)])
        if deriv == "value":
            integrand = rho.value
        else:
            integrand = np.asarray(cs.sigma(nodes)) ** 2 * rho.dxx
        return float(np.sum(weights * integrand) * snap.dx)

    bnd_s = _chi_pairing(sub.snapshots[0], float(times[0]), "value")
    bnd_t = _chi_pairing(sub.snapshots[-1], float(times[-1]), "value")
    boundary = -(bnd_t - bnd_s)

    diffusion_vals = [
        _chi_pairing(snap, float(r), "sigma2_dxx") for snap, r in zip(sub.snapshots, times)
    ]
    diffusion = 0.5 * float(np.trapezoid(diffusion_vals, times))

    est = dissipation_measure(sub, cs, xi_bins)
    n_pair = est.pair(lambda xi, r, x: eval_rho(tf, cs, xi, r, x, w_at[float(r)]).dxi)

    return boundary + diffusion - n_pair


def weak_form_residual(sol: SpdeSolution, cs: CoefficientSet, W, f: Bump1D,
                       s: float, t: float) -> float:
    """Residual of the weak (distributional) form over [s, t] against a
    compactly supported f: time integrals by trapezoid on the snapshot
    grid, the noise integral as a left-endpoint Ito sum."""
    sub, _ = _restrict(sol, s, t)
    first = sub.snapshots[0]
    lo, hi = f.support()
    if lo <= first.x_min or hi >= first.x_max:
        raise ValueError("test function support must lie inside the domain")
    centers = first.centers()
    dx = first.dx
    fv, f1, f2 = f(centers), f.d1(centers), f.d2(centers)

    times = sub.times
    w_vals = np.array([W.value_at(float(r)) for r in times])

    pairing = [float(np.sum(snap.values * fv) * dx) for snap in sub.snapshots]
    drift = []
    noise_coef = []
    for snap in sub.snapshots:
        uv = np.clip(snap.values, 0.0, 1.0)
        Bu = cs.eval_transform("B", uv)
        Du = cs.eval_transform("Sigma", uv) + cs.eval_transform("Gamma", uv)
        Gu = cs.eval_transform("G", uv)
        drift.append(float(np.sum(Bu * f1 + Du * f2) * dx))
        noise_coef.append(float(np.sum(Gu * f1) * dx))
    drift_int = float(np.trapezoid(drift, times))
    noise_sum = float(np.sum(np.asarray(noise_coef[:-1]) * np.diff(w_vals)))
    return abs(pairing[-1] - pairing[0] - drift_int - noise_sum)
