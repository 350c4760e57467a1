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


def uniforms(seed: int, stream_id: int, n: int) -> np.ndarray:
    return _to_uniform(_raw_block(seed, stream_id, n, block=_BLOCK_SAMPLING))


def standard_normals(seed: int, stream_id: int, n: int) -> np.ndarray:
    return ndtri(_to_uniform(_raw_block(seed, stream_id, n)))


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


def _brownian_rows(seed: int, streams, T: float, steps: int) -> np.ndarray:
    """W at the `steps` nodes after 0 of the uniform grid over [0, T], one
    row per stream id: one raw word per increment through ndtri, scaled by
    sqrt(T/steps) and summed.  Row r depends only on (seed, streams[r])."""
    if T <= 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    raw = np.empty((len(streams), steps), dtype=np.uint64)
    for r, stream_id in enumerate(streams):
        raw[r] = _raw_block(seed, stream_id, steps)
    return np.cumsum(np.sqrt(T / steps) * ndtri(_to_uniform(raw)), axis=1)


def sample_path(seed: int, stream_id: int, T: float, steps: int) -> BrownianPath:
    """Sample W on the uniform grid with `steps` increments over [0, T].

    Increment k is a deterministic function of (seed, stream_id, k).
    """
    values = np.concatenate(([0.0], _brownian_rows(seed, [stream_id], T, steps)[0]))
    return BrownianPath(np.linspace(0.0, T, steps + 1), values, seed, stream_id)


def refine_path(path: BrownianPath, insert_times) -> BrownianPath:
    """Insert nodes by Brownian-bridge interpolation; the only bridge sampler.

    The value at s in (t1, t2) between known neighbours (t1, w1) and
    (t2, w2) is Gaussian with mean (1 - f) w1 + f w2 and variance
    f (1 - f) (t2 - t1), where f = (s - t1)/(t2 - t1), and its normal draw
    is keyed by the bits of s.  Several inserts in one interval of the grid
    chain left to right: the left neighbour of each is the insert before it,
    the right neighbour the next original node.  They are drawn in rounds,
    the m-th insert of every interval in one vectorised pass.  Original grid
    values are unchanged.
    """
    s = np.sort(np.asarray(insert_times, dtype=np.float64))
    if s.size == 0:
        return path
    t, w = path.t_grid, path.values
    if s[0] <= 0.0 or s[-1] >= t[-1]:
        raise ValueError("insert times must lie strictly inside (0, T)")
    if (s[1:] == s[:-1]).any():
        raise GridConflict("duplicate insert times")
    right = np.searchsorted(t, s)
    if (t[right] == s).any():
        raise GridConflict(f"insert time {s[t[right] == s][0]!r} duplicates an existing node")

    rank = np.arange(s.size) - np.searchsorted(right, right)  # m: rank within the interval
    t1 = np.maximum(t[right - 1], np.concatenate(([0.0], s[:-1])))  # the later of node and insert
    t2 = t[right]
    f = (s - t1) / (t2 - t1)
    sd = np.sqrt(f * (1.0 - f) * (t2 - t1))
    z = np.array([_bridge_normal(path.seed, path.stream_id, float(x)) for x in s])
    ws = np.empty_like(s)
    for m in range(int(rank.max()) + 1):
        i = np.nonzero(rank == m)[0]
        w1 = w[right[i] - 1] if m == 0 else ws[i - 1]
        ws[i] = (1.0 - f[i]) * w1 + f[i] * w[right[i]] + sd[i] * z[i]
    return BrownianPath(np.insert(t, right, s), np.insert(w, right, ws), path.seed, path.stream_id)


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
    values = _brownian_rows(seed, range(n), T, steps)
    return NoiseBundle(common=common, increments=np.diff(values, axis=1, prepend=0.0), seed=seed)


def replica_seed(base_seed: int, replica: int) -> int:
    """Derived seed for an independent replica stream (stable across runs)."""
    ss = np.random.SeedSequence(entropy=base_seed & _MASK64, spawn_key=(replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
