"""Pathwise splitting solver for the conditional-CDF SPDE.

The Ito-form equation

    du = (-B(u)_x + Sigma(u)_xx + Gamma(u)_xx) dt - G(u)_x dW

is solved on a truncated domain with Dirichlet data u = 0 on the left and
u = 1 on the right.  Its Stratonovich form is

    du = (-B(u)_x + Sigma(u)_xx) dt - G(u)_x o dW.

In the kinetic formulation the noise moves each level set {u = xi} rigidly
by gamma(xi) dW.  That exact transport carries the Ito correction
Gamma(u)_xx, so Gamma drops out of the scheme.  Each interval (dt, dW) of
the noise grid is one split step:

- diffusion: m explicit substeps u += (dt/m)/dx^2 Delta Sigma(u), with m
  the least count that keeps sup sigma^2 (dt/m)/dx^2 within CFL_TARGET;
- transport-collapse (Brenier, SIAM J. Numer. Anal. 1984): points on the
  graph of u (the cell centres with both ghost points, and L = 4J quantile
  points) move by h(xi) = b(xi) dt + gamma(xi) dW at their level xi.
  Positions and levels are sorted independently (the monotone
  rearrangement, which selects the entropy solution) and interpolated back
  onto the cell centres.  With h = 0 this is the identity, bit for bit.

There is no noise CFL condition, so W's grid is marched as it stands.  A
snapshot time on W's grid (`randomness.grid_indices`) is read at its node;
only the others are inserted, by Brownian-bridge refinement
(`randomness.refine_path`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .measures import GridFunction, InitialDistribution, StepCDF, ndtr
from .randomness import BrownianPath, _nearest_nodes, grid_indices, refine_path

__all__ = [
    "SolverConfig",
    "SpdeSolution",
    "DomainMarginError",
    "spde_step",
    "solve",
    "analytic_constant_solution",
    "required_margin",
]


# bound on the diffusion CFL number sup sigma^2 dt / dx^2 of one substep
CFL_TARGET = 0.9


class DomainMarginError(ValueError):
    """Truncated domain too small around the initial support."""


@dataclass(frozen=True)
class SolverConfig:
    """A mesh of `cells` cells on [x_min, x_max]."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.cells < 8:
            raise ValueError("need at least 8 cells")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


@dataclass(frozen=True)
class SpdeSolution:
    times: np.ndarray
    snapshots: tuple
    path: BrownianPath  # W plus off-grid snapshot inserts

    def snapshot_index(self, t, what: str = "snapshot time"):
        """The index in `times` of the snapshot at t: t is read at its node
        of `path.t_grid` (`grid_indices`), as `solve` read the snapshot
        times, and that node must be a snapshot time."""
        node = self.path.t_grid[grid_indices(self.path.t_grid, t, what)]
        return grid_indices(self.times, node, what)

    def snapshot_at(self, t: float) -> GridFunction:
        """The snapshot at t (`snapshot_index`)."""
        return self.snapshots[self.snapshot_index(t)]


def spde_step(u: GridFunction, cs: CoefficientSet, dt: float, dW: float) -> GridFunction:
    """One split step over a noise interval (dt, dW): diffusion substeps
    within CFL_TARGET, then transport-collapse."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dx, J = u.dx, u.cells
    m = int(np.ceil(cs.report.sup_abs_sigma**2 * dt / (CFL_TARGET * dx**2)))
    ue = np.concatenate(([0.0], u.values, [1.0]))
    for _ in range(m):
        S = cs.eval_transform("Sigma", ue)
        ue[1:-1] += (dt / m) / dx**2 * (S[2:] - 2.0 * S[1:-1] + S[:-2])
    xe = u.x_min + (np.arange(-1, J + 1) + 0.5) * dx
    xi = (np.arange(4 * J) + 0.5) / (4 * J)
    levels = np.concatenate((ue, xi))
    pos = np.concatenate((xe, np.interp(xi, ue, xe)))
    pos = pos + cs.b(levels) * dt + cs.gamma(levels) * dW
    new = np.interp(xe[1:-1], np.sort(pos), np.sort(levels))
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
    """March spde_step over W's grid, after inserting the snapshot times
    off that grid (`grid_indices`) with `refine_path`; a snapshot time on
    the grid is its node.  Snapshots are recorded at the snapshot times, and
    the refined path is returned as the path the solver consumed."""
    if u0.cells != config.cells or u0.x_min != config.x_min or u0.x_max != config.x_max:
        raise ValueError("initial data grid does not match the solver config")
    T = W.T
    times = np.unique(np.asarray(W.t_grid if snapshot_times is None else snapshot_times, dtype=np.float64))
    node, on_grid = _nearest_nodes(W.t_grid, times)
    inserts = times[~on_grid]
    if not np.all((inserts > 0.0) & (inserts < T)):
        raise ValueError("snapshot times must lie in [0, T]")
    times = np.where(on_grid, W.t_grid[node], times)
    if T > 0:
        _check_margin(u0, cs, T)
        W = refine_path(W, inserts)

    u = u0
    record = np.isin(W.t_grid, times)
    snapshots = [u] if record[0] else []
    for i, (dt, dw) in enumerate(zip(np.diff(W.t_grid), np.diff(W.values))):
        u = spde_step(u, cs, dt, dw)
        if record[i + 1]:
            snapshots.append(u)
    return SpdeSolution(W.t_grid[record].copy(), tuple(snapshots), W)


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
