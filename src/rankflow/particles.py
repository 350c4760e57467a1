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

import numpy as np

from .coefficients import CoefficientSet
from .randomness import grid_indices

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

    def sorted_positions(self) -> np.ndarray:
        return np.sort(self.positions, axis=-1)


def rank_fractions(state: ParticleState) -> np.ndarray:
    """Entry i of a row is #{j : X_j <= X_i}/n over that row; ties share the
    count-<= value."""
    x = state.positions
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    # flat index of each row's entries in sorted order
    order = np.argsort(rows, axis=-1)
    order += np.arange(0, x.size, n)[:, None]
    srt = np.take(x, order)
    tied = srt[:, 1:] == srt[:, :-1]
    counts = np.broadcast_to(np.arange(1, n + 1) / n, rows.shape)
    has_tie = tied.any(axis=-1)
    if has_tie.any():
        # the count-<= of a sorted entry is one past the last index of its
        # tie group: the smallest group end at or after it
        tied = tied[has_tie]
        last = np.ones((tied.shape[0], n), dtype=bool)
        last[:, :-1] = ~tied
        ends = np.where(last, np.arange(1, n + 1), n)
        counts = counts.copy()
        counts[has_tie] = np.minimum.accumulate(ends[:, ::-1], axis=-1)[:, ::-1] / n
    fr = np.empty(x.shape)
    np.put(fr, order, counts)
    return fr


def em_step(state: ParticleState, cs: CoefficientSet, dt: float,
            dB: np.ndarray, dW) -> ParticleState:
    """One explicit Euler-Maruyama step with start-of-step rank fractions,
    every row at once; dB is shaped as the positions and dW holds one common
    increment per row (a scalar for (n,) positions)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dB = np.asarray(dB, dtype=np.float64)
    if dB.shape != state.positions.shape:
        raise ValueError("dB must have one increment per particle")
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != state.positions.shape[:-1]:
        raise ValueError("dW must have one increment per row")
    fr = rank_fractions(state)
    with np.errstate(invalid="ignore"):  # non-finite results are caught below
        new = (
            state.positions
            + np.asarray(cs.b(fr), dtype=np.float64) * dt
            + np.asarray(cs.sigma(fr), dtype=np.float64) * dB
            + np.asarray(cs.gamma(fr), dtype=np.float64) * dW[..., None]
        )
    if not np.all(np.isfinite(new)):
        raise NonFiniteState(f"non-finite positions after step from t = {state.t}")
    return ParticleState(t=state.t + dt, positions=new)


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
        raise ValueError("snapshot times must be increasing and distinct")
    return idx


def simulate(positions, cs: CoefficientSet, T: float, steps: int, noise,
             snapshot_times=None) -> Trajectory:
    """March the particle system from `positions`, one system (n,) or R
    replicas (R, n), over the uniform grid with `steps` steps over [0, T] on
    `noise`, the (W, dB) pair of `make_noise_bundle` for that grid with one
    row per replica.  Snapshot times must lie on the step grid; None
    captures every step."""
    grid = np.linspace(0.0, T, steps + 1)
    want = snapshot_indices(snapshot_times, grid)
    W, dB = noise
    if steps > 0 and np.shape(W)[-1] != steps + 1:  # a zero-step run reads no noise
        raise ValueError(f"noise has {np.shape(W)[-1] - 1} steps, not {steps}")
    start = ParticleState(0.0, positions)
    states = itertools.chain([start], march(start, cs, grid, dB, np.diff(W).T))
    # march no further than the last snapshot
    states = itertools.islice(states, max(want, default=-1) + 1)
    want_set = set(want)
    kept = tuple(state for k, state in enumerate(states) if k in want_set)
    return Trajectory(grid[want], kept)
