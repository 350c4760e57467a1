"""Reproducible Brownian paths from counter-based random streams.

Every random number is addressed by (seed, stream_id, counter): the Philox
generator is keyed with (seed, stream_id) and uniforms come off fixed
counter blocks, so regeneration is bit-identical regardless of the order
in which streams are drawn.  Normals are produced by inverse CDF (one raw word per
variate), which keeps the counter addressing exact; the inverse CDF is
`ndtri`, a numpy port of Cephes.

Philox4x64-10 is computed here on uint64 arrays, the same words as
`np.random.Philox`, so the words of any number of streams and counters
come out of one array operation.

Bridge refinement draws are keyed by the bit pattern of the inserted time
in a counter block disjoint from the main increment block, so two solver
runs that share (seed, stream_id) refine their paths with coupled noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ndtri",
    "BrownianPath",
    "GridConflict",
    "grid_indices",
    "sample_path",
    "refine_path",
    "make_noise_bundle",
    "uniforms",
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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): round multipliers and Weyl key increments.  The rounds treat
# counter words (0, 2) alike, words (1, 3) alike and the two key words
# alike, so each pair is held stacked along a leading axis of length 2.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
# 0-d arrays: cheaper ufunc operands than numpy scalars
_LO32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_U32 = np.array(32, dtype=np.uint64)


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
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    out = np.empty(flat.shape)
    # Out-of-range values, and log 0 in the tail, stay silent.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(0, flat.size, _NDTRI_BLOCK):
            _ndtri_block(flat[k:k + _NDTRI_BLOCK], out[k:k + _NDTRI_BLOCK])
    return out.reshape(p.shape)[()]


# ndtri works through an array in blocks of this many points: its dozen
# temporaries stay at 64 KiB each, below the size glibc serves by mmap, so
# the allocator hands the same memory back block after block instead of
# mapping and faulting in fresh pages on every large call
_NDTRI_BLOCK = 8192


def _ndtri_block(p, out):
    """ndtri of the 1-d array p, written into out."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    # the central branch runs on every point, which is cheaper than
    # gathering them; the tail points are overwritten below
    c = y - 0.5
    c2 = c * c
    np.multiply(c2, _polevl(c2, _NDTRI_P0), out=out)
    out /= _p1evl(c2, _NDTRI_Q0)
    out *= c
    out += c
    out *= _S2PI
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
        out[tail] = np.where(upper[tail], xt, -xt)


def _u64(x) -> np.ndarray:
    if isinstance(x, (int, np.integer)):
        return np.asarray(int(x) & _MASK64, dtype=np.uint64)
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    # a sequence of ints converts exactly, never through float64
    return np.asarray(x, dtype=np.uint64)


def _philox_block(seed, stream_id, c, word1=0, block=_BLOCK_MAIN) -> np.ndarray:
    """The four words of counter block c of the stream keyed (seed,
    stream_id), i.e. words 4c .. 4c+3 of
    `np.random.Philox(counter=[0, word1, 0, block], key=[seed, stream_id])`,
    which increments its counter before each block: block c is Philox4x64-10
    of the counter (c + 1, word1, 0, block).  Broadcasts over its arguments;
    the four words run along a new last axis."""
    k0, k1, c0, c1, c3 = np.broadcast_arrays(
        _u64(seed), _u64(stream_id), _u64(c) + np.uint64(1), _u64(word1), _u64(block))
    key, even, odd = np.stack((k0, k1)), np.stack((c0, np.zeros_like(c0))), np.stack((c1, c3))
    pair = (2,) + (1,) * c0.ndim
    m, w = _PHILOX_M.reshape(pair), _PHILOX_W.reshape(pair)
    m_lo, m_hi = m & _LO32, m >> _U32
    # the round runs in place on four scratch pairs, so a lane holds 14
    # words, not the 20 of fresh temporaries
    x_lo, x_hi, u, v = (np.empty_like(even) for _ in range(4))
    with np.errstate(over="ignore"):  # key words wrap mod 2**64
        for rnd in range(10):
            if rnd:
                key += w
            # hi = the high word of m * even from 32-bit halves, where no
            # partial sum overflows (Warren, Hacker's Delight, mulhu)
            np.bitwise_and(even, _LO32, out=x_lo)
            np.right_shift(even, _U32, out=x_hi)
            np.multiply(x_hi, m_lo, out=u)
            np.multiply(x_lo, m_lo, out=v)
            v >>= _U32
            u += v
            np.multiply(x_lo, m_hi, out=v)
            np.bitwise_and(u, _LO32, out=x_lo)
            v += x_lo
            x_hi *= m_hi  # hi
            u >>= _U32
            x_hi += u
            v >>= _U32
            x_hi += v
            # even, odd = hi[::-1] ^ odd ^ key, (even * m)[::-1]
            even *= m
            np.bitwise_xor(x_hi[::-1], odd, out=odd)
            odd ^= key
            even, odd = odd, even[::-1]
    del x_lo, x_hi, u, v, key
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)


def _raw_block(seed, stream_id, n: int, word1=0, block=_BLOCK_MAIN) -> np.ndarray:
    """Words 0 .. n-1 of the stream keyed (seed, stream_id) at counter words
    (word1, block), all streams in one call.  Broadcasts over seed,
    stream_id, word1 and block; the words run along a new last axis."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in (seed, stream_id, word1, block)))
    seed, stream_id, word1, block = (np.expand_dims(_u64(a), -1) for a in (seed, stream_id, word1, block))
    words = _philox_block(seed, stream_id, np.arange(-(-n // 4)), word1, block)
    return words.reshape(shape + (-1,))[..., :n]


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, offset by half an ulp so values lie strictly in (0,1)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


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
    no node that close raises ValueError naming `what` and the time."""
    k, on_grid = _nearest_nodes(grid, times)
    if not on_grid.all():
        bad = np.asarray(times, dtype=np.float64)[~on_grid][0]
        raise ValueError(f"{what} = {float(bad)!r} is not a grid time")
    return k


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
        """Path with values + offset_fn(t); keeps (seed, stream_id) so
        bridge refinement stays coupled with the original."""
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
    if T <= 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    return np.cumsum(np.sqrt(T / steps) * ndtri(_to_uniform(_raw_block(seed, stream_id, steps))), axis=-1)


def sample_path(seed: int, stream_id: int, T: float, steps: int) -> BrownianPath:
    """Sample W on the uniform grid with `steps` increments over [0, T].

    Increment k is a deterministic function of (seed, stream_id, k).
    """
    values = np.concatenate(([0.0], _brownian_rows(seed, stream_id, T, steps)))
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
    increments: particle i draws from stream i, its increment k is
    sqrt(T/steps) times the normal of word k, and the cumulative sum of its
    increments equals `sample_path(seed, i, T, steps).values[1:]` bit for
    bit.  dB draws one Philox counter block (four steps of every stream) at
    a time, so only O(R n) noise is alive."""
    seeds = _u64(seeds)
    rows = _brownian_rows(seeds, STREAM_COMMON, T, steps)
    W = np.concatenate((np.zeros(seeds.shape + (1,)), rows), axis=-1)
    scale = np.sqrt(T / steps)

    def increments():
        keys = np.expand_dims(seeds, -1), np.arange(n, dtype=np.uint64)
        for c in range(-(-steps // 4)):
            z = scale * ndtri(_to_uniform(_philox_block(*keys, c)))
            for j in range(min(4, steps - 4 * c)):
                yield z[..., j]
            del z  # free this block before the next is drawn

    return W, increments()


def replica_seed(base_seed: int, replica: int) -> int:
    """Derived seed for an independent replica stream (stable across runs)."""
    ss = np.random.SeedSequence(entropy=base_seed & _MASK64, spawn_key=(replica,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
