"""Reproducible Brownian paths from counter-based random streams.

Every random number is addressed by (seed, stream_id, counter): the Philox
generator is keyed with (seed, stream_id) and uniforms come off fixed
counter blocks, so regeneration is bit-identical regardless of the order
in which streams are drawn.  Normals are produced by inverse CDF (one raw word per
variate), which keeps the counter addressing exact.

Bridge refinement draws are keyed by the bit pattern of the inserted time
in a counter block disjoint from the main increment block, so two solver
runs that share (seed, stream_id) refine their paths with coupled noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BrownianPath",
    "NoiseBundle",
    "GridConflict",
    "sample_path",
    "refine_path",
    "make_noise_bundle",
    "uniforms",
    "standard_normals",
    "replica_seed",
    "STREAM_COMMON",
    "STREAM_INIT",
]

_MASK64 = (1 << 64) - 1

# stream ids reserved for non-particle uses; particle i uses stream_id = i
STREAM_COMMON = 1 << 62
STREAM_INIT = (1 << 62) + 1

# counter word 3 partitions each stream into disjoint blocks
_BLOCK_MAIN = 0
_BLOCK_BRIDGE = 1
_BLOCK_SAMPLING = 2


class GridConflict(ValueError):
    """An insert time duplicates an existing grid node."""


def _raw_block(seed: int, stream_id: int, n: int, word1: int = 0, block: int = _BLOCK_MAIN) -> np.ndarray:
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    counter = np.array([0, word1 & _MASK64, 0, block & _MASK64], dtype=np.uint64)
    return np.random.Philox(counter=counter, key=key).random_raw(n)


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, offset by half an ulp so values lie strictly in (0,1)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def uniforms(seed: int, stream_id: int, n: int, block: int = _BLOCK_SAMPLING) -> np.ndarray:
    return _to_uniform(_raw_block(seed, stream_id, n, block=block))


def standard_normals(seed: int, stream_id: int, n: int, block: int = _BLOCK_MAIN) -> np.ndarray:
    return ndtri(_to_uniform(_raw_block(seed, stream_id, n, block=block)))


def _bridge_normal(seed: int, stream_id: int, time: float) -> float:
    word = int(np.float64(time).view(np.uint64))
    raw = _raw_block(seed, stream_id, 1, word1=word, block=_BLOCK_BRIDGE)
    return float(ndtri(_to_uniform(raw))[0])


@dataclass(frozen=True)
class BrownianPath:
    """A Brownian motion sampled on a strictly increasing time grid."""

    t_grid: np.ndarray
    values: np.ndarray
    seed: int
    stream_id: int

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1 or t.size < 1:
            raise ValueError("t_grid and values must be 1-d arrays of equal length")
        if t[0] != 0.0 or v[0] != 0.0:
            raise ValueError("paths start at (t, W) = (0, 0)")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    def value_at(self, t: float, tol: float = 1e-12) -> float:
        """Value at a grid node (exact lookup with tolerance)."""
        i = int(np.searchsorted(self.t_grid, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.t_grid.size and abs(self.t_grid[j] - t) <= tol:
                return float(self.values[j])
        raise KeyError(f"time {t!r} is not a grid node of this path")

    def shifted(self, offset_fn) -> "BrownianPath":
        """Path with values + offset_fn(t); keeps (seed, stream_id) so
        bridge refinement stays coupled with the original."""
        return BrownianPath(
            self.t_grid.copy(),
            self.values + offset_fn(self.t_grid),
            self.seed,
            self.stream_id,
        )


def sample_path(seed: int, stream_id: int, T: float, steps: int) -> BrownianPath:
    """Sample W on the uniform grid with `steps` increments over [0, T].

    Increment k is a deterministic function of (seed, stream_id, k).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    dt = T / steps
    z = standard_normals(seed, stream_id, steps)
    values = np.concatenate(([0.0], np.cumsum(np.sqrt(dt) * z)))
    t_grid = np.linspace(0.0, T, steps + 1)
    return BrownianPath(t_grid, values, seed, stream_id)


def refine_path(path: BrownianPath, insert_times) -> BrownianPath:
    """Insert nodes by Brownian-bridge interpolation.

    Inserted value at s in (t1, t2) is conditionally Gaussian with mean
    linear between the bracketing known values and variance
    (t2 - s)(s - t1)/(t2 - t1); original grid values are unchanged.
    """
    insert_times = np.sort(np.asarray(insert_times, dtype=np.float64))
    if insert_times.size == 0:
        return path
    t = path.t_grid
    if insert_times[0] <= 0.0 or insert_times[-1] >= t[-1]:
        raise ValueError("insert times must lie strictly inside (0, T)")
    if np.any(np.diff(insert_times) == 0.0):
        raise GridConflict("duplicate insert times")
    if np.any(np.isin(insert_times, t)):
        dup = insert_times[np.isin(insert_times, t)][0]
        raise GridConflict(f"insert time {dup!r} duplicates an existing node")

    new_t = list(t)
    new_v = list(path.values)
    # ascending insertion: the left bracket may be a previously inserted
    # node, the right bracket is always the next original node
    for s in insert_times:
        j = int(np.searchsorted(new_t, s))
        t1, w1 = new_t[j - 1], new_v[j - 1]
        t2, w2 = new_t[j], new_v[j]
        frac = (s - t1) / (t2 - t1)
        mean = w1 + frac * (w2 - w1)
        var = (t2 - s) * (s - t1) / (t2 - t1)
        z = _bridge_normal(path.seed, path.stream_id, float(s))
        new_t.insert(j, float(s))
        new_v.insert(j, mean + np.sqrt(var) * z)
    return BrownianPath(np.array(new_t), np.array(new_v), path.seed, path.stream_id)


@dataclass(frozen=True)
class NoiseBundle:
    """One common path W shared by all particles plus an (n, steps) matrix
    of idiosyncratic increments; row i is particle i's Brownian increments."""

    common: BrownianPath
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 2 or inc.shape[1] != self.common.t_grid.size - 1:
            raise ValueError("increments must be (n, steps) on the grid of the common path")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n(self) -> int:
        return self.increments.shape[0]


def make_noise_bundle(seed: int, n: int, T: float, steps: int,
                      common: BrownianPath | None = None) -> NoiseBundle:
    """Build the driving noise for an n-particle run; pass `common` to
    couple a particle run to an existing common path.

    Particle i draws from stream i, and row i of the increments equals
    `sample_path(seed, i, T, steps).increments()` bit for bit: the same
    per-row arithmetic, applied once to the whole block."""
    if common is None:
        common = sample_path(seed, STREAM_COMMON, T, steps)
    if T <= 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    raw = np.empty((n, steps), dtype=np.uint64)
    for i in range(n):
        raw[i] = _raw_block(seed, i, steps)
    values = np.cumsum(np.sqrt(T / steps) * ndtri(_to_uniform(raw)), axis=1)
    return NoiseBundle(common=common, increments=np.diff(values, axis=1, prepend=0.0), seed=seed)


def replica_seed(base_seed: int, replica: int) -> int:
    """Derived seed for an independent replica stream (stable across runs)."""
    ss = np.random.SeedSequence(entropy=base_seed & _MASK64, spawn_key=(replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
