"""Monotone finite-volume solver for the conditional-CDF SPDE.

The Ito-form equation

    du = (-B(u)_x + Sigma(u)_xx + Gamma(u)_xx) dt - G(u)_x dW

is discretized on a truncated domain with Dirichlet data u = 0 on the left
and u = 1 on the right.  Per noise increment the convective part is the
conservative per-step flux H(u) = B(u) dt + G(u) dW with kinetic derivative
h(xi) = b(xi) dt + gamma(xi) dW, split Engquist-Osher style into

    H+(u) = int_0^u max(h, 0) dxi,   H-(u) = int_0^u min(h, 0) dxi,

and the interface flux is H+(u_left) + H-(u_right).  The diffusion
(Sigma + Gamma)(u)_xx is explicit; Gamma(u)_xx is the Ito correction
already present in the equation, so dW enters only through the flux.
Increments that violate the CFL bound are bisected with Brownian-bridge
refinement (`randomness.refine_path`), preserving the path's law and its
coupling to particle runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .coefficients import CoefficientSet
from .measures import GridFunction, InitialDistribution, StepCDF
from .randomness import BrownianPath, refine_path

__all__ = [
    "SolverConfig",
    "SpdeSolution",
    "CflViolated",
    "SubstepLimitExceeded",
    "DomainMarginError",
    "convective_flux",
    "spde_step",
    "solve",
    "analytic_constant_solution",
    "required_margin",
]


class CflViolated(RuntimeError):
    """spde_step called with a step violating the CFL bound; solve() is
    responsible for pre-subdividing, so reaching this signals a caller bug."""


class SubstepLimitExceeded(RuntimeError):
    """An extreme noise increment needed more than max_substeps bisections."""


class DomainMarginError(ValueError):
    """Truncated domain too small around the initial support."""


@dataclass(frozen=True)
class SolverConfig:
    x_min: float
    x_max: float
    cells: int
    cfl_target: float = 0.9
    max_substeps: int = 4096

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.cells < 8:
            raise ValueError("need at least 8 cells")
        if not 0.0 < self.cfl_target < 1.0:
            raise ValueError("cfl_target must lie in (0, 1)")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


@dataclass(frozen=True)
class SpdeSolution:
    times: np.ndarray
    snapshots: tuple
    path: BrownianPath  # the path actually consumed, post-refinement

    def snapshot_at(self, t: float, tol: float = 1e-9) -> GridFunction:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise KeyError(f"no snapshot at t = {t!r}")
        return self.snapshots[i]


def _interface_flux(cs: CoefficientSet, dt: float, dW: float, ue: np.ndarray) -> np.ndarray:
    """Engquist-Osher fluxes H+(ue[j]) + H-(ue[j+1]) between adjacent
    entries of ue, for H(u) = B(u) dt + G(u) dW.

    The sign pattern of h(xi) = b(xi) dt + gamma(xi) dW is bracketed on a
    scan grid and refined by root finding; partial integrals of h over the
    sign-constant segments come straight from the coefficient tables.  H
    is evaluated once on ue and H- = H - H+.
    """
    def h(xi):
        return np.asarray(cs.b(xi)) * dt + np.asarray(cs.gamma(xi)) * dW

    def H(u):
        return dt * cs.eval_transform("B", u) + dW * cs.eval_transform("G", u)

    scan = np.linspace(0.0, 1.0, 4 * cs.table_resolution + 1)
    hv = h(scan)
    # exact zeros at scan points are segment edges themselves; sign
    # changes are bracketed between consecutive nonzero samples
    roots = list(scan[1:-1][hv[1:-1] == 0.0])
    nz = np.nonzero(hv != 0.0)[0]
    for i, j in zip(nz[:-1], nz[1:]):
        if hv[i] * hv[j] < 0.0:
            roots.append(brentq(h, scan[i], scan[j], xtol=1e-14))
    edges = np.unique(np.concatenate(([0.0], roots, [1.0])))
    seg_positive = h(0.5 * (edges[:-1] + edges[1:])) > 0.0
    H_edges = H(edges)
    cum_plus = np.concatenate(([0.0], np.cumsum(np.where(seg_positive, np.diff(H_edges), 0.0))))

    H_ue = H(ue)
    idx = np.clip(np.searchsorted(edges, ue, side="right") - 1, 0, edges.size - 2)
    hp = cum_plus[idx] + np.where(seg_positive[idx], H_ue - H_edges[idx], 0.0)
    return hp[:-1] + (H_ue - hp)[1:]


def convective_flux(cs: CoefficientSet, dt: float, dW: float, u_left: float, u_right: float) -> float:
    """Engquist-Osher interface flux H+(u_left) + H-(u_right) of the
    per-step flux H(u) = B(u) dt + G(u) dW."""
    return float(_interface_flux(cs, dt, dW, np.array([u_left, u_right], dtype=np.float64))[0])


def _cfl_number(cs: CoefficientSet, dt: float, dW: float, dx: float) -> float:
    rep = cs.report
    conv = (rep.sup_abs_b * dt + rep.sup_abs_gamma * abs(dW)) / dx
    diff = (rep.sup_abs_sigma**2 + rep.sup_abs_gamma**2) * dt / dx**2
    return conv + diff


def _raw_step(values: np.ndarray, cs: CoefficientSet, dt: float, dW: float, dx: float) -> np.ndarray:
    ue = np.concatenate(([0.0], values, [1.0]))
    f_if = _interface_flux(cs, dt, dW, ue)
    D = cs.eval_transform("Sigma", ue) + cs.eval_transform("Gamma", ue)
    return values - np.diff(f_if) / dx + (dt / dx**2) * (D[2:] - 2.0 * D[1:-1] + D[:-2])


def spde_step(u: GridFunction, cs: CoefficientSet, dt: float, dW: float,
              cfl_target: float = 0.9) -> GridFunction:
    """One explicit update over a (sub)step carrying noise increment dW."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if _cfl_number(cs, dt, dW, u.dx) > cfl_target:
        raise CflViolated(
            f"CFL number {_cfl_number(cs, dt, dW, u.dx):.3f} exceeds target {cfl_target}"
        )
    new = _raw_step(u.values, cs, dt, dW, u.dx)
    return GridFunction(u.x_min, u.x_max, new, validate=False)


def required_margin(cs: CoefficientSet, T: float) -> float:
    """Domain margin beyond the initial support: six standard deviations of
    the diffusive spread plus the maximal drift sweep."""
    rep = cs.report
    return 6.0 * (rep.sup_abs_sigma + rep.sup_abs_gamma) * np.sqrt(max(T, 0.0)) + T * rep.sup_abs_b


def _check_margin(u0: GridFunction, cs: CoefficientSet, T: float):
    vals = u0.values
    centers = u0.centers()
    # support up to 1e-6 of mass on each side; the margin itself already
    # covers six standard deviations of spread
    inner = np.nonzero((vals > 1e-6) & (vals < 1.0 - 1e-6))[0]
    if inner.size == 0:
        jump = int(np.searchsorted(vals, 0.5))
        lo = hi = centers[min(jump, vals.size - 1)]
    else:
        lo, hi = centers[inner[0]], centers[inner[-1]]
    margin = required_margin(cs, T)
    if u0.x_min > lo - margin or u0.x_max < hi + margin:
        raise DomainMarginError(
            f"domain [{u0.x_min}, {u0.x_max}] leaves less than the required "
            f"margin {margin:.3g} around the initial support [{lo:.3g}, {hi:.3g}]"
        )


def solve(u0: GridFunction, cs: CoefficientSet, W: BrownianPath,
          config: SolverConfig, snapshot_times=None) -> SpdeSolution:
    """Refine W, then march once over the refined grid.

    Snapshot times off W's grid are inserted first.  Then every noise node
    (interval of that grid) with a substep over the CFL target has all its
    substeps bisected, one `refine_path` call per level, until none is.
    The march records a snapshot wherever the grid hits a snapshot time,
    and the refined path is returned as the path the solver consumed."""
    if u0.cells != config.cells or u0.x_min != config.x_min or u0.x_max != config.x_max:
        raise ValueError("initial data grid does not match the solver config")
    T = W.T
    if snapshot_times is None:
        snapshot_times = W.t_grid
    snapshot_times = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    if snapshot_times.size and (snapshot_times[0] < 0.0 or snapshot_times[-1] > T):
        raise ValueError("snapshot times must lie in [0, T]")

    dx = config.dx
    if T > 0:
        _check_margin(u0, cs, T)
        W = refine_path(W, snapshot_times[~np.isin(snapshot_times, W.t_grid)])
        node = np.arange(W.t_grid.size - 1)  # the noise node of each substep
        while True:
            dts, dWs = np.diff(W.t_grid), np.diff(W.values)
            bad = np.isin(node, node[_cfl_number(cs, dts, dWs, dx) > config.cfl_target])
            if not bad.any():
                break
            first = np.nonzero(node == node[bad][0])[0]  # substeps of the first violating node
            if 2 * first.size > config.max_substeps:
                raise SubstepLimitExceeded(
                    f"increment [{W.t_grid[first[0]]:.6g}, {W.t_grid[first[-1] + 1]:.6g}] still "
                    f"violates CFL after {first.size} substeps (max {config.max_substeps})"
                )
            W = refine_path(W, 0.5 * (W.t_grid[:-1] + W.t_grid[1:])[bad])
            node = np.repeat(node, np.where(bad, 2, 1))

    values = u0.values
    record = np.isin(W.t_grid, snapshot_times)
    snapshots = [values.copy()] if record[0] else []
    for i, (dt, dw) in enumerate(zip(np.diff(W.t_grid), np.diff(W.values))):
        values = _raw_step(values, cs, dt, dw, dx)
        if record[i + 1]:
            snapshots.append(values)
    grids = tuple(GridFunction(config.x_min, config.x_max, v, validate=False) for v in snapshots)
    return SpdeSolution(W.t_grid[record].copy(), grids, W)


def analytic_constant_solution(u0, b0: float, sigma0: float, gamma0: float,
                               t: float, w_t: float, config: SolverConfig) -> GridFunction:
    """Exact conditional CDF for constant coefficients: the initial CDF
    convolved with a centered Gaussian of variance sigma0^2 t, translated
    by b0 t + gamma0 W_t.  For a Heaviside initial condition this is
    Phi((x - b0 t - gamma0 W_t) / (sigma0 sqrt(t)))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    centers = config.centers()
    shift = b0 * t + gamma0 * w_t
    s = sigma0 * np.sqrt(t)
    x = centers - shift
    if isinstance(u0, InitialDistribution):
        vals = u0.smoothed_cdf(x, s)
    elif isinstance(u0, StepCDF):
        if s == 0.0:
            vals = u0.value(x)
        else:
            vals = np.mean(ndtr((x[:, None] - u0.points[None, :]) / s), axis=1)
    else:
        raise TypeError("u0 must be an InitialDistribution or StepCDF")
    return GridFunction(config.x_min, config.x_max, vals)
