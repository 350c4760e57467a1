"""Euler-Maruyama simulation of the rank-based particle system.

Each particle moves by

    dX_i = b(F_i) dt + sigma(F_i) dB_i + gamma(F_i) dW,

where F_i is particle i's rank fraction #{j : X_j <= X_i}/n evaluated at
the start of the step (explicit scheme), B_i are idiosyncratic Brownian
motions and W is the common one.

One stepper serves every caller: a state holds one system (n,) or R
independent systems (R, n), one per row, and ranks are taken within each
row, so R replicas march in lock-step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSet
from .expr import InputError
from .randomness import grid_indices, step_grid

__all__ = [
    "ParticleState",
    "Trajectory",
    "NonFiniteState",
    "rank_fractions",
    "em_step",
    "march",
    "simulate",
    "snapshot_indices",
]


class NonFiniteState(RuntimeError):
    """A particle position became non-finite during time stepping."""


@dataclass(frozen=True)
class ParticleState:
    """Positions of one system (n,) or of R independent systems in lock-step
    (R, n), one row each."""

    t: float
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim not in (1, 2) or pos.size == 0:
            raise ValueError("positions must be a nonempty (n,) or (R, n) array")
        if not np.all(np.isfinite(pos)):
            raise NonFiniteState(f"non-finite positions at t = {self.t}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[-1]

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, srt), both (rows, n) and read-only: the flat index of each
        row's entries in sorted order, and the sorted rows.  The one sort of
        a state: the ranks, the step from it and `sorted_positions` read it."""
        x = self.positions
        n = x.shape[-1]
        order = np.argsort(x.reshape(-1, n), axis=-1)
        order += np.arange(0, x.size, n)[:, None]
        srt = np.take(x, order)
        order.setflags(write=False)
        srt.setflags(write=False)
        return order, srt

    def sorted_positions(self) -> np.ndarray:
        return self._sorted[1].reshape(self.positions.shape)


def _level_index(srt: np.ndarray):
    """For sorted rows, the index l with (l + 1)/n the count-<= fraction of
    each entry: the last index of its tie group.  None when no row has ties,
    where l is the entry's own index."""
    n = srt.shape[-1]
    tied = srt[:, 1:] == srt[:, :-1]
    has_tie = tied.any(axis=-1)
    if not has_tie.any():
        return None
    # the group end of a sorted entry is the smallest end at or after it
    tied = tied[has_tie]
    last = np.ones((tied.shape[0], n), dtype=bool)
    last[:, :-1] = ~tied
    ends = np.where(last, np.arange(n), n - 1)
    idx = np.tile(np.arange(n), (srt.shape[0], 1))
    idx[has_tie] = np.minimum.accumulate(ends[:, ::-1], axis=-1)[:, ::-1]
    return idx


def rank_fractions(state: ParticleState) -> np.ndarray:
    """Entry i of a row is #{j : X_j <= X_i}/n over that row; ties share the
    count-<= value."""
    order, srt = state._sorted
    levels = np.arange(1, state.n + 1) / state.n
    idx = _level_index(srt)
    fr = np.empty(state.positions.shape)
    fr.reshape(-1)[order] = levels if idx is None else levels[idx]
    return fr


def em_step(state: ParticleState, cs: CoefficientSet, dt: float,
            dB: np.ndarray, dW) -> ParticleState:
    """One explicit Euler-Maruyama step with start-of-step rank fractions,
    every row at once; dB is shaped as the positions and dW holds one common
    increment per row (a scalar for (n,) positions).

    The rank fractions of a row are levels k/n, so b, sigma and gamma are
    read from their values at the levels (`CoefficientSet.at_levels`).  The
    update runs on the sorted rows and is scattered back once; each entry
    gets the additions of x + b dt + sigma dB + gamma dW in that order."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dB = np.asarray(dB, dtype=np.float64)
    if dB.shape != state.positions.shape:
        raise ValueError("dB must have one increment per particle")
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != state.positions.shape[:-1]:
        raise ValueError("dW must have one increment per row")
    order, srt = state._sorted
    b, sigma, gamma = cs.at_levels(state.n)
    idx = _level_index(srt)
    if idx is not None:
        b, sigma, gamma = b[idx], sigma[idx], gamma[idx]
    with np.errstate(invalid="ignore"):  # non-finite results are caught below
        step = srt + b * dt
        term = np.take(dB, order)
        term *= sigma
        step += term
        np.multiply(gamma, dW.reshape(-1, 1), out=term)
        step += term
    del term
    # a fresh array for the positions (reusing the spent buffer raised the
    # peak RSS of `converge` by 1 MB); a fancy-index scatter is faster than
    # np.put
    new = np.empty(state.positions.shape)
    new.reshape(-1)[order] = step
    try:
        return ParticleState(t=state.t + dt, positions=new)
    except NonFiniteState:
        raise NonFiniteState(f"non-finite positions after step from t = {state.t}") from None


def march(state: ParticleState, cs: CoefficientSet, grid: np.ndarray, dB, dW):
    """Yield the state after each step of `grid`: step k runs from grid[k]
    to grid[k+1] on the increments dB[k] (shaped as the positions) and dW[k]
    (one per row).  `dB` and `dW` are iterables, so the noise of a step may
    be drawn only when the step is taken."""
    for dt, dB_k, dW_k in zip(np.diff(grid), dB, dW):
        state = em_step(state, cs, dt, dB_k, dW_k)
        yield state


@dataclass(frozen=True)
class Trajectory:
    """The states at the snapshot times, in order."""

    times: np.ndarray
    states: tuple


def snapshot_indices(snapshot_times, grid: np.ndarray) -> np.ndarray:
    """The step indices of the snapshot times on the step grid
    (`grid_indices`); they must be increasing and distinct.  None stands
    for every step."""
    if snapshot_times is None:
        return np.arange(grid.size)
    idx = grid_indices(grid, snapshot_times, "snapshot time")
    if np.any(np.diff(idx) <= 0):
        raise InputError("snapshot times must be increasing and distinct")
    return idx


def simulate(positions, cs: CoefficientSet, T: float, steps: int, noise,
             snapshot_times=None) -> Trajectory:
    """March the particle system from `positions`, one system (n,) or R
    replicas (R, n), over the step grid of [0, T] (`step_grid`) on `noise`,
    the (W, dB) pair of `make_noise_bundle` for that grid with one row per
    replica.  Snapshot times must lie on the step grid; None captures every
    step."""
    grid = step_grid(T, steps)
    want = snapshot_indices(snapshot_times, grid)
    W, dB = noise
    if np.shape(W)[-1] != steps + 1:
        raise ValueError(f"noise has {np.shape(W)[-1] - 1} steps, not {steps}")
    start = ParticleState(0.0, positions)
    states = itertools.chain([start], march(start, cs, grid, dB, np.diff(W).T))
    # march no further than the last snapshot
    states = itertools.islice(states, max(want, default=-1) + 1)
    want_set = set(want)
    # keep each snapshot as a new state on the same positions: the march
    # fills the sort cache of the state it steps from, which a snapshot
    # would otherwise hold for the life of the trajectory
    kept = tuple(ParticleState(state.t, state.positions) for k, state in enumerate(states) if k in want_set)
    return Trajectory(grid[want], kept)
