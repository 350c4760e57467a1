"""Reproducible Brownian paths from counter-based random streams.

Every random word is a word of numpy's Philox4x64-10 (`np.random.Philox`;
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
addressed by a key and a counter, so regeneration is bit-identical
regardless of the order in which words are drawn.  A call draws all its
words from one generator: for each (key, start counter) lane it sets the
generator's state and calls `random_raw`.  Normals are produced by inverse
CDF (one raw word per variate); the inverse CDF is `ndtri`, a numpy port of
Cephes.

A path keyed (seed, stream_id) reads the counter blocks after (0, word1, 0,
block).  Every particle of a run shares the key (seed, STREAM_PARTICLES),
and block c of particle i is the block after counter word 0 = c 2^32 + i,
so one draw of 4n words gives block c of n particles.  Any injective
counter map gives independent streams, and word k of particle i depends
only on (seed, i, k).

Bridge refinement draws are keyed by the bit pattern of the inserted time
in a counter block disjoint from the main increment block, so a path and
its `shifted` copy, which share (seed, stream_id), refine with coupled noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import InputError

__all__ = [
    "ndtri",
    "BrownianPath",
    "step_grid",
    "grid_indices",
    "check_horizon",
    "sample_path",
    "refine_path",
    "make_noise_bundle",
    "uniforms",
    "replica_seed",
    "STREAM_COMMON",
    "STREAM_INIT",
    "STREAM_PARTICLES",
]

_MASK64 = (1 << 64) - 1

# reserved stream ids: the common path, the initial sample and the key of
# every particle (`make_noise_bundle`)
STREAM_COMMON = 1 << 62
STREAM_INIT = (1 << 62) + 1
STREAM_PARTICLES = (1 << 62) + 2

# counter word 3 partitions each stream into disjoint blocks
_BLOCK_MAIN = 0
_BLOCK_BRIDGE = 1
_BLOCK_SAMPLING = 2


# Cephes ndtri (Moshier, "Methods and Programs for Mathematical Functions",
# 1989), the algorithm of scipy.special.ndtri: a rational function of
# y - 1/2 for e^-2 < y < 1 - e^-2, and in the tails, with x = sqrt(-2 log y),
# x - log(x)/x minus a rational function of 1/x: (P1, Q1) for x < 8, that is
# y > e^-32, and (P2, Q2) beyond.
_EXP_M2 = 0.13533528323661269189  # e^-2
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule (Cephes polevl)."""
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], the leading coefficient 1
    implied (Cephes p1evl)."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def ndtri(p):
    """The standard normal quantile Phi^-1(p), elementwise: Cephes ndtri
    with its branch points, coefficients and Horner order.  -inf at 0, inf
    at 1, NaN outside [0, 1]; a 0-d input gives a numpy scalar."""
    return _ndtri_into(np.array(p, dtype=np.float64))


# ndtri works through an array in blocks of this many points: its dozen
# temporaries stay at 64 KiB each, below the size glibc serves by mmap, so
# the allocator hands the same memory back block after block instead of
# mapping and faulting in fresh pages on every large call.  On `converge`,
# one block over the whole array raised the peak RSS by 1.7 MB (39.04 to
# 40.76 MB).
_NDTRI_BLOCK = 8192


def _ndtri_into(y):
    """Overwrite the C-contiguous float64 array y with ndtri(y), block by
    block, and return it (a numpy scalar if y is 0-d)."""
    flat = y.reshape(-1)
    # Out-of-range values, and log 0 in the tail, stay silent.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(0, flat.size, _NDTRI_BLOCK):
            _ndtri_block(flat[k:k + _NDTRI_BLOCK])
    return y[()]


def _ndtri_block(p):
    """Overwrite the 1-d array p with ndtri(p): every read of p comes
    before the first write."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    # the central branch runs on every point, which is cheaper than
    # gathering them; the tail points are overwritten below
    c = y - 0.5
    c2 = c * c
    np.multiply(c2, _polevl(c2, _NDTRI_P0), out=p)
    p /= _p1evl(c2, _NDTRI_Q0)
    p *= c
    p += c
    p *= _S2PI
    tail = np.flatnonzero(~(y > _EXP_M2))
    if tail.size:
        yt = y[tail]
        x = np.sqrt(-2.0 * np.log(yt))
        x0 = x - np.log(x) / x
        z = 1.0 / x
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
        far = x >= 8.0
        if far.any():
            zf = z[far]
            x1[far] = zf * _polevl(zf, _NDTRI_P2) / _p1evl(zf, _NDTRI_Q2)
        xt = np.where(yt == 0.0, np.inf, x0 - x1)
        p[tail] = np.where(upper[tail], xt, -xt)


def _u64(x) -> np.ndarray:
    if isinstance(x, (int, np.integer)):
        return np.asarray(int(x) & _MASK64, dtype=np.uint64)
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    # a sequence of ints converts exactly, never through float64
    return np.asarray(x, dtype=np.uint64)


def _sorted_union(*arrays) -> np.ndarray:
    """The distinct values of the arrays, flattened together, in increasing
    order: what numpy's union1d and unique give for float64, by the same
    sort.  numpy's unique imports numpy.ma on its first call, which no
    command needs."""
    a = np.concatenate(arrays, axis=None)
    a.sort()
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _raw_block(seed, stream_id, n: int, word0=0, word1=0, block=_BLOCK_MAIN) -> np.ndarray:
    """Words 0 .. n-1 of `np.random.Philox(key=[seed, stream_id],
    counter=[word0, word1, 0, block])`, which increments its counter before
    each block of four, for every lane of the broadcast of the five
    arguments; the words run along a new last axis.  One generator draws
    every lane: setting its state to the lane's key and counter costs a
    tenth of building a generator."""
    lanes = np.broadcast_arrays(*(_u64(a) for a in (seed, stream_id, word0, word1, block)))
    out = np.empty(lanes[0].shape + (n,), dtype=np.uint64)
    bg = np.random.Philox(key=0)
    # a fresh generator's state holds no buffered words, so every lane set
    # from it starts at a block
    state = bg.state
    rows = out.reshape(lanes[0].size, n)
    for row, (k0, k1, c0, c1, c3) in zip(rows, zip(*(a.ravel().tolist() for a in lanes))):
        state["state"] = {"counter": [c0, c1, 0, c3], "key": [k0, k1]}
        bg.state = state
        row[:] = bg.random_raw(n)
    return out


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    """(2k + 1) 2^-53 for the top 52 bits k of each word: every value is
    exact, so the lattice lies strictly inside (0, 1) and its points stay
    distinct.  k goes into the mantissa of 1.0, which reads as 1 + k 2^-52;
    subtracting 1 and adding 2^-53 are both exact, and the bit assembly
    avoids the slow uint64 to float64 conversion.  The result is C-ordered
    in raw's shape, also where raw is a transposed view."""
    u = np.right_shift(raw, np.uint64(12), order="C")
    u |= np.uint64(0x3FF0000000000000)
    u = u.view(np.float64)
    u -= 1.0
    u += 2.0**-53
    return u


def uniforms(seed, stream_id, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the sampling block; broadcasts over seed and
    stream_id like `_raw_block`."""
    return _to_uniform(_raw_block(seed, stream_id, n, block=_BLOCK_SAMPLING))


def _bridge_normals(seed, stream_id, times) -> np.ndarray:
    """The bridge normal of each insert time, keyed by the bits of the time;
    shape as the broadcast of the arguments."""
    word1 = np.asarray(times, dtype=np.float64).view(np.uint64)
    return ndtri(_to_uniform(_raw_block(seed, stream_id, 1, word1=word1, block=_BLOCK_BRIDGE)[..., 0]))


def _nearest_nodes(grid, times):
    """Per time, the index of the nearest node of the sorted time grid and
    whether the time is that node, i.e. within 1e-9 max(1, grid[-1]) of it:
    the one on-grid tolerance of rankflow."""
    grid = np.asarray(grid, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    hi = np.searchsorted(grid, times).clip(0, grid.size - 1)
    lo = (hi - 1).clip(0)
    k = np.where(np.abs(grid[hi] - times) < np.abs(times - grid[lo]), hi, lo)
    return k, np.abs(grid[k] - times) <= 1e-9 * max(1.0, float(grid[-1]))


def grid_indices(grid, times, what: str) -> np.ndarray:
    """The index of the node of the sorted time grid `grid` at each of
    `times` (a scalar or an array, shaped alike): the one on-grid rule.  A
    time within 1e-9 max(1, grid[-1]) of a node is that node; a time with
    no node that close raises InputError naming `what` and the time."""
    k, on_grid = _nearest_nodes(grid, times)
    if not on_grid.all():
        bad = np.asarray(times, dtype=np.float64)[~on_grid][0]
        raise InputError(f"{what} = {float(bad)!r} is not a grid time")
    return k


def check_horizon(times, T: float, what: str) -> None:
    """Each of `times` must lie in [0, T], up to the on-grid tolerance
    (`grid_indices`); else InputError names `what` and the first outside."""
    times = np.asarray(times, dtype=np.float64)
    outside = ~((times >= 0.0) & (times <= T)) & ~_nearest_nodes([0.0, T], times)[1]
    if outside.any():
        raise InputError(f"{what} = {float(times[outside][0])!r} must lie in [0, T] = [0, {T!r}]")


def step_grid(T: float, steps: int) -> np.ndarray:
    """The uniform grid of `steps` steps over [0, T] of every path, noise
    bundle and particle run: T must be positive and steps at least 1."""
    if not T > 0:
        raise InputError(f"the time horizon {T} must be positive")
    if steps < 1:
        raise InputError(f"steps = {steps} must be at least 1")
    return np.linspace(0.0, T, steps + 1)


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

    def value_at(self, t: float) -> float:
        """W at the grid node of t (`grid_indices`)."""
        return float(self.values[grid_indices(self.t_grid, t, "time")])

    def shifted(self, offset_fn) -> "BrownianPath":
        """Path with values + offset_fn(t); keeps (seed, stream_id), so
        `refine_path` draws the original's bridge normals for it."""
        return BrownianPath(
            self.t_grid.copy(),
            self.values + offset_fn(self.t_grid),
            self.seed,
            self.stream_id,
        )


def _brownian_rows(seed, stream_id, T: float, steps: int) -> np.ndarray:
    """W at the `steps` nodes after 0 of the uniform grid over [0, T] for
    every (seed, stream_id) of the broadcast of the two, along a new last
    axis: one raw word per increment through ndtri, scaled by sqrt(T/steps)
    and summed.  A row depends only on its own (seed, stream_id)."""
    return np.cumsum(np.sqrt(T / steps) * ndtri(_to_uniform(_raw_block(seed, stream_id, steps))), axis=-1)


def sample_path(seed: int, stream_id: int, T: float, steps: int) -> BrownianPath:
    """Sample W on the uniform grid with `steps` increments over [0, T].

    Increment k is a deterministic function of (seed, stream_id, k).
    """
    grid = step_grid(T, steps)
    values = np.concatenate(([0.0], _brownian_rows(seed, stream_id, T, steps)))
    return BrownianPath(grid, values, seed, stream_id)


def refine_path(path: BrownianPath, insert_times) -> BrownianPath:
    """Insert nodes by Brownian-bridge interpolation; the only bridge sampler.

    A time on a node, or within the on-grid tolerance of one
    (`grid_indices`), is not inserted, and a repeated time is inserted once.
    The value at s in (t1, t2) between known neighbours (t1, w1) and
    (t2, w2) is Gaussian with mean (1 - f) w1 + f w2 and variance
    f (1 - f) (t2 - t1), where f = (s - t1)/(t2 - t1), and its normal draw
    is keyed by the bits of s.  Several inserts in one interval of the grid
    chain left to right: the left neighbour of each is the insert before it,
    the right neighbour the next original node.  They are drawn in rounds,
    the m-th insert of every interval in one vectorised pass.  Original grid
    values are unchanged.  A time to insert outside [0, T] raises InputError
    (`check_horizon`).
    """
    check_horizon(insert_times, path.T, "insert time")
    t, w = path.t_grid, path.values
    s = _sorted_union(np.asarray(insert_times, dtype=np.float64))
    s = s[~_nearest_nodes(t, s)[1]]
    if s.size == 0:
        return path
    right = np.searchsorted(t, s)

    rank = np.arange(s.size) - np.searchsorted(right, right)  # m: rank within the interval
    t1 = np.maximum(t[right - 1], np.concatenate(([0.0], s[:-1])))  # the later of node and insert
    t2 = t[right]
    f = (s - t1) / (t2 - t1)
    sd = np.sqrt(f * (1.0 - f) * (t2 - t1))
    z = _bridge_normals(path.seed, path.stream_id, s)
    ws = np.empty_like(s)
    for m in range(int(rank.max()) + 1):
        i = np.nonzero(rank == m)[0]
        w1 = w[right[i] - 1] if m == 0 else ws[i - 1]
        ws[i] = (1.0 - f[i]) * w1 + f[i] * w[right[i]] + sd[i] * z[i]
    return BrownianPath(np.insert(t, right, s), np.insert(w, right, ws), path.seed, path.stream_id)


def make_noise_bundle(seeds, n: int, T: float, steps: int):
    """The driving noise of an n-particle run on the uniform grid with
    `steps` steps over [0, T], for one seed or for a 1-d array of seeds, one
    lock-step replica each; the one noise constructor.

    Returns (W, dB).  W holds the values of the common path, shaped
    (steps + 1,) for one seed and (R, steps + 1) for R seeds; row r equals
    `sample_path(seeds[r], STREAM_COMMON, T, steps).values` bit for bit.  dB
    yields, for each step k, the (n,) or (R, n) array of the particles'
    increments: particle i's increment k is sqrt(T/steps) times the normal
    of its word k, word k % 4 of `np.random.Philox(key=[seed,
    STREAM_PARTICLES], counter=[c 2^32 + i, 0, 0, 0])` with c = k // 4
    (n < 2^32).  So it depends only on (seed, i, k), not on n, on the other
    seeds or on the order of the draws.  dB draws one counter block (four
    steps of every particle) at a time, one `random_raw` of 4n words per
    seed, so only O(R n) noise is alive: at most two block-sized buffers at
    once, the block's words and the uniforms that become its increments in
    place, beside the one step the caller still holds.  The block is laid
    out step by step, so each step yielded is a contiguous array; the last
    step of a block is a copy, so the caller's hold on it does not keep the
    block alive while the next block is drawn."""
    step_grid(T, steps)  # the rules on T and steps, before any draw
    seeds = _u64(seeds)
    rows = _brownian_rows(seeds, STREAM_COMMON, T, steps)
    W = np.concatenate((np.zeros(seeds.shape + (1,)), rows), axis=-1)
    scale = np.sqrt(T / steps)

    def increments():
        for c in range(-(-steps // 4)):
            raw = _raw_block(seeds, STREAM_PARTICLES, 4 * n, word0=c << 32)
            z = _to_uniform(np.moveaxis(raw.reshape(seeds.shape + (n, 4)), -1, 0))
            del raw
            _ndtri_into(z)
            z *= scale
            last = min(4, steps - 4 * c) - 1
            yield from z[:last]
            yield z[last].copy()
            # the words, then the block, are freed before the next block is
            # drawn: with the last step a copy and ndtri in place, this cut
            # the peak RSS of `converge` by 0.8 MB (39.83 to 39.04 MB)
            del z

    return W, increments()


def replica_seed(base_seed: int, replica: int) -> int:
    """Derived seed for an independent replica stream (stable across runs)."""
    ss = np.random.SeedSequence(entropy=base_seed & _MASK64, spawn_key=(replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
