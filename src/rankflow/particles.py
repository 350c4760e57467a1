"""Euler-Maruyama simulation of the rank-based particle system.

Each particle moves by

    dX_i = b(F_i) dt + sigma(F_i) dB_i + gamma(F_i) dW,

where F_i is particle i's rank fraction #{j : X_j <= X_i}/n evaluated at
the start of the step (explicit scheme), B_i are idiosyncratic Brownian
motions and W is the common one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .measures import InitialDistribution
from .randomness import STREAM_INIT, NoiseBundle

__all__ = [
    "ParticleState",
    "Trajectory",
    "NonFiniteState",
    "rank_fractions",
    "em_step",
    "simulate",
]


class NonFiniteState(RuntimeError):
    """A particle position became non-finite during time stepping."""


@dataclass(frozen=True)
class ParticleState:
    t: float
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("positions must be a nonempty 1-d array")
        if not np.all(np.isfinite(pos)):
            raise NonFiniteState(f"non-finite positions at t = {self.t}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.size

    def sorted_positions(self) -> np.ndarray:
        return np.sort(self.positions)


def rank_fractions(state: ParticleState) -> np.ndarray:
    """Entry i is #{j : X_j <= X_i}/n; ties share the count-<= value."""
    srt = state.sorted_positions()
    return np.searchsorted(srt, state.positions, side="right") / state.n


def em_step(state: ParticleState, cs: CoefficientSet, dt: float,
            dB: np.ndarray, dW: float) -> ParticleState:
    """One explicit Euler-Maruyama step with start-of-step rank fractions."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dB = np.asarray(dB, dtype=np.float64)
    if dB.shape != state.positions.shape:
        raise ValueError("dB must have one increment per particle")
    fr = rank_fractions(state)
    with np.errstate(invalid="ignore"):  # non-finite results are caught below
        new = (
            state.positions
            + np.asarray(cs.b(fr), dtype=np.float64) * dt
            + np.asarray(cs.sigma(fr), dtype=np.float64) * dB
            + np.asarray(cs.gamma(fr), dtype=np.float64) * dW
        )
    if not np.all(np.isfinite(new)):
        raise NonFiniteState(f"non-finite positions after step from t = {state.t}")
    return ParticleState(t=state.t + dt, positions=new)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    noise: NoiseBundle

    def state_at(self, t: float, tol: float = 1e-9) -> ParticleState:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise KeyError(f"no snapshot at t = {t!r}")
        return self.states[i]


def _snapshot_indices(snapshot_times, T: float, steps: int) -> list[int]:
    if snapshot_times is None:
        return list(range(steps + 1))
    idx = []
    for t in snapshot_times:
        k = round(t / T * steps) if steps > 0 and T > 0 else 0
        on_grid = (k * T / steps if steps > 0 else 0.0)
        if not (0 <= k <= steps) or abs(on_grid - t) > 1e-9 * max(1.0, T):
            raise ValueError(f"snapshot time {t!r} is not on the step grid")
        idx.append(k)
    if sorted(set(idx)) != idx:
        raise ValueError("snapshot times must be increasing and distinct")
    return idx


def simulate(initial, cs: CoefficientSet, T: float, steps: int,
             noise: NoiseBundle, snapshot_times=None) -> Trajectory:
    """March the particle system over the uniform grid of `noise`.

    `initial` is either an explicit position vector or an
    InitialDistribution sampled with (noise.seed, init stream).  Snapshot
    times must lie on the step grid; None captures every step.
    """
    if isinstance(initial, InitialDistribution):
        positions = initial.sample(noise.n, noise.seed, STREAM_INIT)
    else:
        positions = np.asarray(initial, dtype=np.float64)
    if positions.size != noise.n:
        raise ValueError(f"noise bundle has n = {noise.n}, initial state has {positions.size}")

    state = ParticleState(t=0.0, positions=positions)
    want = _snapshot_indices(snapshot_times, T, steps)
    states = []
    times = []
    if 0 in want:
        states.append(state)
        times.append(0.0)
    if steps == 0:
        return Trajectory(np.asarray(times), tuple(states), noise)

    grid = noise.common.t_grid
    if grid.size != steps + 1 or abs(grid[-1] - T) > 1e-12 * max(1.0, T):
        raise ValueError("noise grid does not match (T, steps)")
    dW = noise.common.increments()
    dB = noise.increments
    want_set = set(want)
    for k in range(steps):
        dt = grid[k + 1] - grid[k]
        state = em_step(state, cs, dt, dB[:, k], float(dW[k]))
        if k + 1 in want_set:
            states.append(state)
            times.append(float(grid[k + 1]))
    return Trajectory(np.asarray(times), tuple(states), noise)
