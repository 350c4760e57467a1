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

There is no noise CFL condition, so W's grid is marched as it stands, and
the solver draws no random word.  A snapshot time is read at its node of
W's grid (`randomness.grid_indices`); a caller inserts a time between
nodes first, by Brownian-bridge refinement (`randomness.refine_path`).

`solve_paths` is the one marcher: paths that share one time grid march in
lock-step as one (R, J + 2) block with ghost columns.  A step makes one
Sigma evaluation per diffusion substep and one sort of positions and one of
levels for the whole block; b and gamma at the quantile levels are
evaluated once per solve.  Each row is interpolated on its own, so row r
equals a solve along path r alone, bit for bit.  `solve` and `spde_step`
are its one-row forms.  Noise with a non-finite dt or dW raises ValueError
before the march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .expr import InputError
from .measures import GridFunction, InitialDistribution
from .randomness import BrownianPath, grid_indices
from .randomness import refine_path  # noqa: F401  (the benchmark traces rankflow.solver.refine_path)

__all__ = [
    "SolverConfig",
    "SpdeSolution",
    "DomainMarginError",
    "spde_step",
    "solve",
    "solve_paths",
    "analytic_constant_solution",
    "required_margin",
]


# bound on the diffusion CFL number sup sigma^2 dt / dx^2 of one substep
CFL_TARGET = 0.9


class DomainMarginError(InputError):
    """Truncated domain too small around the initial support."""


@dataclass(frozen=True)
class SolverConfig:
    """A mesh of `cells` cells on [x_min, x_max]."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InputError(f"x_min = {self.x_min!r} must be below x_max = {self.x_max!r}")
        if self.cells < 8:
            raise InputError(f"cells = {self.cells} must be at least 8")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


@dataclass(frozen=True)
class SpdeSolution:
    times: np.ndarray
    snapshots: tuple
    path: BrownianPath  # the path the solve marched

    def snapshot_index(self, t, what: str = "snapshot time"):
        """The index in `times` of the snapshot at t: t is read at its node
        of `path.t_grid` (`grid_indices`), as `solve` read the snapshot
        times, and that node must be a snapshot time."""
        node = self.path.t_grid[grid_indices(self.path.t_grid, t, what)]
        return grid_indices(self.times, node, what)

    def snapshot_at(self, t: float) -> GridFunction:
        """The snapshot at t (`snapshot_index`)."""
        return self.snapshots[self.snapshot_index(t)]


class _Block:
    """The state of R rows marched in lock-step on one noise grid: u with
    its ghost cells, one (R, J + 2) array, and the buffers of the
    transport-collapse.  b and gamma at the 4J quantile levels are
    evaluated once, here; each step reads them."""

    def __init__(self, cs: CoefficientSet, x_min: float, dx: float, values: np.ndarray, rows: int):
        J = values.size
        self.cs, self.dx = cs, dx
        self.ue = np.empty((rows, J + 2))
        self.ue[:, 0], self.ue[:, 1:-1], self.ue[:, -1] = 0.0, values, 1.0
        self.xe = x_min + (np.arange(-1, J + 1) + 0.5) * dx
        self.xi = (np.arange(4 * J) + 0.5) / (4 * J)
        self.b_xi, self.g_xi = cs.b(self.xi), cs.gamma(self.xi)
        # per row: the cell values then the quantile levels, and the
        # positions of both on the graph of u
        self.levels = np.empty((rows, 5 * J + 2))
        self.pos = np.empty((rows, 5 * J + 2))

    def step(self, dt, dW: np.ndarray):
        """One split step of every row over the interval (dt, dW[r]):
        diffusion substeps within CFL_TARGET, then transport-collapse.
        Each row is sorted and interpolated on its own, so a row's bits do
        not depend on the others."""
        cs, dx, ue = self.cs, self.dx, self.ue
        J = ue.shape[1] - 2
        m = int(np.ceil(cs.report.sup_abs_sigma**2 * dt / (CFL_TARGET * dx**2)))
        for _ in range(m):
            S = cs.eval_transform("Sigma", ue)
            ue[:, 1:-1] += (dt / m) / dx**2 * (S[:, 2:] - 2.0 * S[:, 1:-1] + S[:, :-2])
        levels, pos, dW = self.levels, self.pos, dW[:, None]
        levels[:, :J + 2], levels[:, J + 2:] = ue, self.xi
        pos[:, :J + 2] = self.xe + cs.b(ue) * dt + cs.gamma(ue) * dW
        for r in range(ue.shape[0]):
            pos[r, J + 2:] = np.interp(self.xi, ue[r], self.xe)
        pos[:, J + 2:] += self.b_xi * dt
        pos[:, J + 2:] += self.g_xi * dW
        pos.sort(axis=1)
        levels.sort(axis=1)
        for r in range(ue.shape[0]):
            ue[r, 1:-1] = np.interp(self.xe[1:-1], pos[r], levels[r])


def _check_noise(t_grid: np.ndarray, dt: np.ndarray, dW: np.ndarray):
    """Reject a noise interval whose dt or dW (one row per path) is not
    finite, naming the first, before any step is taken."""
    bad = ~(np.isfinite(dt) & np.isfinite(dW))
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        r = int(np.argmax(bad[:, k]))
        raise ValueError(
            f"path {r}: noise interval {k} [{float(t_grid[k])!r}, {float(t_grid[k + 1])!r}] "
            f"has dt = {float(dt[k])!r}, dW = {float(dW[r, k])!r}; the solver needs finite noise"
        )


def spde_step(u: GridFunction, cs: CoefficientSet, dt: float, dW: float) -> GridFunction:
    """One split step over a noise interval (dt, dW): one row of the block
    step of `solve_paths`."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not (np.isfinite(dt) and np.isfinite(dW)):
        raise ValueError(f"noise interval has dt = {dt!r}, dW = {dW!r}; the solver needs finite noise")
    block = _Block(cs, u.x_min, u.dx, u.values, 1)
    block.step(dt, np.array([dW], dtype=np.float64))
    return GridFunction(u.x_min, u.x_max, block.ue[0, 1:-1], validate=False)


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


def solve_paths(u0: GridFunction, cs: CoefficientSet, paths, config: SolverConfig,
                snapshot_times=None) -> tuple[SpdeSolution, ...]:
    """Solve from u0 along each of `paths`, which share one time grid, all
    in lock-step as one (R, J + 2) block: the one marcher.  A snapshot time
    is read at its node of that grid (`grid_indices`), and an off-grid one
    raises ValueError naming it: insert it first with `refine_path`.  None
    means every node.  Solution r records its snapshots at those nodes, with
    paths[r] as its path; it equals a solve along paths[r] alone bit for bit."""
    if u0.cells != config.cells or u0.x_min != config.x_min or u0.x_max != config.x_max:
        raise ValueError("initial data grid does not match the solver config")
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one path")
    t_grid = paths[0].t_grid
    if not all(np.array_equal(W.t_grid, t_grid) for W in paths[1:]):
        raise ValueError("the paths of one block must share one time grid")
    record = np.full(t_grid.size, snapshot_times is None)
    if snapshot_times is not None:
        record[grid_indices(t_grid, snapshot_times, "snapshot time")] = True
    if paths[0].T > 0:
        _check_margin(u0, cs, paths[0].T)
    dt = np.diff(t_grid)
    dW = np.diff(np.stack([W.values for W in paths]), axis=1)
    _check_noise(t_grid, dt, dW)

    block = _Block(cs, config.x_min, config.dx, u0.values, len(paths))
    snapshots = [[u0] if record[0] else [] for _ in paths]
    for i in range(dt.size):
        block.step(dt[i], dW[:, i])
        if record[i + 1]:
            for snaps, row in zip(snapshots, block.ue[:, 1:-1]):
                snaps.append(GridFunction(config.x_min, config.x_max, row.copy(), validate=False))
    return tuple(SpdeSolution(t_grid[record].copy(), tuple(snaps), W)
                 for snaps, W in zip(snapshots, paths))


def solve(u0: GridFunction, cs: CoefficientSet, W: BrownianPath,
          config: SolverConfig, snapshot_times=None) -> SpdeSolution:
    """Solve from u0 along W: `solve_paths` on the one path W."""
    return solve_paths(u0, cs, [W], config, snapshot_times)[0]


def analytic_constant_solution(u0: InitialDistribution, b0: float, sigma0: float, gamma0: float,
                               t: float, w_t: float, config: SolverConfig) -> GridFunction:
    """Exact conditional CDF for constant coefficients: the CDF of u0
    convolved with a centered Gaussian of variance sigma0^2 t
    (`InitialDistribution.smoothed_cdf`), translated by b0 t + gamma0 W_t.
    For a Heaviside initial condition this is
    Phi((x - b0 t - gamma0 W_t) / (sigma0 sqrt(t)))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = config.centers() - (b0 * t + gamma0 * w_t)
    return GridFunction(config.x_min, config.x_max, u0.smoothed_cdf(x, sigma0 * np.sqrt(t)))
