"""Brownian path generation, determinism, and bridge refinement."""

import bisect
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import kstest

from conftest import particle_increments
from rankflow.randomness import (
    grid_indices,
    make_noise_bundle,
    ndtri,
    refine_path,
    replica_seed,
    sample_path,
    STREAM_COMMON,
    STREAM_INIT,
    _EXP_M2,
    _NDTRI_BLOCK,
    _brownian_rows,
    _bridge_normals,
    _raw_block,
    _sorted_union,
    _to_uniform,
)


def _neighbours(points, k=16):
    """Each point and its k float64 neighbours on either side."""
    lo = hi = np.asarray(points, dtype=np.float64)
    out = [lo]
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


class TestNdtri:
    """The Cephes port against scipy.special.ndtri, which runs the same
    algorithm in C: equal bits in the central branch, where only + - * /
    are used.  The tails take log and sqrt, and numpy's SIMD log is not
    libm's; 5 ulp is the largest difference seen on the points below, and
    the test allows 6."""

    TAIL_ULPS = 6

    def test_matches_scipy_on_lattice_points(self):
        u = _to_uniform(_raw_block(11, np.arange(250, dtype=np.uint64), 4000)).ravel()
        # the branch points e^-2 and 1 - e^-2, x = 8 (e^-32 and its mirror),
        # the smallest lattice point 2^-53 and the largest, 1 - 2^-53
        special = _neighbours([_EXP_M2, 1.0 - _EXP_M2, np.exp(-32.0), 1.0 - np.exp(-32.0),
                               2.0**-53, 1.0 - 2.0**-53])
        # the first and last 2000 lattice points: the x >= 8 branch holds
        # the first ~57 and their mirrors
        k = np.arange(2000, dtype=np.uint64) << np.uint64(12)
        ends = _to_uniform(np.concatenate((k, ~k)))
        u = np.concatenate((u, ends, special))
        u = u[(u > 0.0) & (u < 1.0)]
        assert u.size >= 10**6
        got, want = ndtri(u), scipy_ndtri(u)
        central = (u > _EXP_M2) & (u < 1.0 - _EXP_M2)
        assert central.sum() > 7 * 10**5 and (~central).sum() > 2 * 10**5
        assert got[central].tobytes() == want[central].tobytes()
        ulps = np.abs(got[~central].view(np.int64) - want[~central].view(np.int64))
        assert ulps.max() <= self.TAIL_ULPS

    def test_ends_and_shapes(self):
        got = ndtri(np.array([[0.0, 1.0, 0.5], [-0.25, 1.5, np.nan]]))
        assert got.shape == (2, 3)
        assert got[0, 0] == -np.inf and got[0, 1] == np.inf and got[0, 2] == 0.0
        assert np.isnan(got[1]).all()
        assert isinstance(ndtri(0.25), np.float64)
        assert ndtri(0.25) == scipy_ndtri(0.25)
        assert ndtri(np.empty((0, 3))).shape == (0, 3)


    def test_blocks_do_not_change_values(self):
        # three blocks and a part, with tail points on either side of each
        # block edge: the same bits as short pieces that cut elsewhere
        u = _to_uniform(_raw_block(5, 3, 7 * (3 * _NDTRI_BLOCK // 7 + 11)))
        edges = np.arange(1, 4) * _NDTRI_BLOCK
        u[np.concatenate((edges - 1, edges))] = [1e-300, 0.01, 0.99, 1e-20, 1.0 - 1e-9, 0.1]
        given_u = u.copy()
        pieces = np.concatenate([ndtri(u[k:k + 1000]) for k in range(0, u.size, 1000)])
        assert ndtri(u).tobytes() == pieces.tobytes()
        assert ndtri(u.reshape(7, -1)).tobytes() == pieces.tobytes()
        # ndtri works in place on a copy: its argument keeps its values
        assert u.tobytes() == given_u.tobytes()


def test_uniform_lattice_strictly_inside_unit_interval():
    """The smallest and largest words map strictly inside (0, 1), to
    2^-53 and 1 - 2^-53, where ndtri is finite, and the lattice points next
    to either end, and next to 1/2, stay distinct."""
    k = np.arange(64, dtype=np.uint64) << np.uint64(12)
    half = np.uint64(1 << 63)
    words = np.concatenate((k, ~k, half - k - np.uint64(1 << 12), half + k))
    u = _to_uniform(words)
    assert u.min() == 2.0**-53 and u.max() == 1.0 - 2.0**-53
    assert (u > 0.0).all() and (u < 1.0).all()
    assert np.isfinite(ndtri(u)).all()
    assert np.unique(u).size == u.size
    # the low 12 bits of a word do not move it
    assert (_to_uniform(words | np.uint64(0xFFF)) == u).all()


def test_uniform_bit_assembly_equals_float_formula():
    """_to_uniform builds (2k + 1) 2^-53 from the mantissa bits; it equals
    the float formula k 2^-52 + 2^-53 on the end words, the words next to
    the dropped 12 bits, and random words."""
    edges = np.array([0, 2**12 - 1, 2**12, 2**64 - 1], dtype=np.uint64)
    words = np.concatenate((edges, np.random.default_rng(7).integers(0, 2**64, 4096, dtype=np.uint64,
                                                                    endpoint=False)))
    want = (words >> np.uint64(12)).astype(np.float64) * 2.0**-52 + 2.0**-53
    assert _to_uniform(words).tobytes() == want.tobytes()
    assert _to_uniform(words[3]) == 1.0 - 2.0**-53


# few distinct values, so most draws repeat; -0.0 ties with 0.0
_REPEATS = arrays(np.float64, st.integers(0, 24), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324]), st.floats(allow_nan=False)))


@given(a=_REPEATS, b=st.none() | _REPEATS)
@example(a=np.array([]), b=None)
@example(a=np.array([-0.0]), b=None)
@example(a=np.array([]), b=np.array([0.0, -0.0, 0.0]))
def test_sorted_union_equals_numpy(a, b):
    """_sorted_union gives np.unique of one array and np.union1d of two,
    strictly increasing."""
    got = _sorted_union(a) if b is None else _sorted_union(a, b)
    assert np.array_equal(got, np.unique(a) if b is None else np.union1d(a, b))
    assert (got[1:] > got[:-1]).all()


class TestSamplePath:
    def test_starts_at_zero(self):
        assert sample_path(1, 2, 1.0, 10).values[0] == 0.0

    def test_bit_identical_regeneration(self):
        a = sample_path(42, 7, 2.0, 500)
        b = sample_path(42, 7, 2.0, 500)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.t_grid, b.t_grid)

    def test_different_streams_differ(self):
        a = sample_path(42, 7, 1.0, 50)
        b = sample_path(42, 8, 1.0, 50)
        c = sample_path(43, 7, 1.0, 50)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_increment_variance_band(self):
        # 1e5 increments with dt = 0.01: sample variance within [0.0094, 0.0106]
        path = sample_path(2024, 3, 1000.0, 100_000)
        inc = path.increments()
        assert 0.0094 <= inc.var() <= 0.0106

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_path(1, 1, 0.0, 10)
        with pytest.raises(ValueError):
            sample_path(1, 1, 1.0, 0)

    def test_ks_normality_of_standardized_increments(self):
        # 100 particles' streams over 100 steps: 10_000 increments
        T, steps = 2.0, 100
        z = np.stack(list(make_noise_bundle(123, 100, T, steps)[1])) / np.sqrt(T / steps)
        assert kstest(z.ravel(), "norm").pvalue > 0.001


def _sequential_refine(path, insert_times):
    """Reference bridge: one insert at a time, ascending, by list insertion;
    a time within the on-grid tolerance 1e-9 max(1, T) of an original node
    is that node and is skipped."""
    t, w = list(path.t_grid), list(path.values)
    for s in sorted(insert_times):
        if np.min(np.abs(path.t_grid - s)) <= 1e-9 * max(1.0, path.T):
            continue
        j = bisect.bisect(t, s)
        t1, w1, t2, w2 = t[j - 1], w[j - 1], t[j], w[j]
        f = (s - t1) / (t2 - t1)
        z = float(_bridge_normals(path.seed, path.stream_id, s))
        t.insert(j, s)
        w.insert(j, (1.0 - f) * w1 + f * w2 + np.sqrt(f * (1.0 - f) * (t2 - t1)) * z)
    return np.array(t), np.array(w)


class TestRefinePath:
    def test_midpoint_of_pinned_bridge_has_mean_of_endpoints(self):
        from rankflow.randomness import BrownianPath

        # with W_0 = 0 and W_1 = 0 the conditional mean at 0.5 is 0: the
        # midpoints sampled for seeds 0 .. 999, drawn in one call, average to 0
        seeds = np.arange(1000, dtype=np.uint64)
        f = 0.5
        mids = (1.0 - f) * 0.0 + f * 0.0 + np.sqrt(f * (1.0 - f) * 1.0) * _bridge_normals(seeds, 2, 0.5)
        # the same samples as the public sampler, bit for bit
        for k in range(64):
            pinned = BrownianPath(np.array([0.0, 1.0]), np.array([0.0, 0.0]), seed=k, stream_id=2)
            assert refine_path(pinned, [0.5]).values[1] == mids[k]
        assert abs(mids.mean()) <= 3 * 0.5 / np.sqrt(1000)
        # and re-refining the same path reproduces the same value
        path = sample_path(5, 9, 1.0, 1)
        assert refine_path(path, [0.5]).values[1] == refine_path(path, [0.5]).values[1]

    def test_original_grid_values_unchanged(self):
        path = sample_path(11, 4, 1.0, 20)
        refined = refine_path(path, [0.013, 0.512, 0.98765])
        keep = np.isin(refined.t_grid, path.t_grid)
        assert np.array_equal(refined.t_grid[keep], path.t_grid)
        assert np.array_equal(refined.values[keep], path.values)

    def test_insertion_order_irrelevant(self):
        path = sample_path(11, 4, 1.0, 20)
        a = refine_path(path, [0.013, 0.512, 0.98765])
        b = refine_path(path, [0.98765, 0.013, 0.512])
        assert np.array_equal(a.values, b.values)

    def test_node_times_and_repeats_are_not_inserted_again(self):
        """A time on a node, or 5e-10 from one (within the on-grid
        tolerance), is that node and is not inserted, and a repeated time
        is inserted once: refining by a whole snapshot list is refining by
        its distinct off-grid times."""
        path = sample_path(11, 4, 1.0, 10)
        for times in ([0.5], [0.0, 0.5 + 5e-10, 0.7 - 5e-10, 1.0, 1.0 + 5e-10]):
            same = refine_path(path, times)
            assert same.t_grid.tobytes() == path.t_grid.tobytes()
            assert same.values.tobytes() == path.values.tobytes()
        once = refine_path(path, [0.123])
        assert once.t_grid.size == path.t_grid.size + 1
        for times in ([0.123, 0.123], [0.5, 0.123, 0.5 - 5e-10, 0.123, 1.0]):
            got = refine_path(path, times)
            assert got.t_grid.tobytes() == once.t_grid.tobytes()
            assert got.values.tobytes() == once.values.tobytes()

    def test_outside_range_rejected(self):
        path = sample_path(11, 4, 1.0, 10)
        for bad in (1.5, -0.25, np.nan):
            with pytest.raises(ValueError, match=rf"^insert time {bad!r} is not inside \(0, T\) = \(0, 1\.0\)$"):
                refine_path(path, [0.25, bad])

    def test_midpoint_conditional_variance(self):
        # bridge variance at the midpoint of a unit interval is 1/4; the
        # midpoints of sample_path(k, 1, 1.0, 1) for seeds k < 1e5, all drawn
        # in one call, land within 3 standard errors of 0.25
        n = 100_000
        seeds = np.arange(n, dtype=np.uint64)
        end = _brownian_rows(seeds, 1, 1.0, 1)[:, 0]
        f = (0.5 - 0.0) / (1.0 - 0.0)
        mid = (1.0 - f) * 0.0 + f * end + np.sqrt(f * (1.0 - f) * (1.0 - 0.0)) * _bridge_normals(seeds, 1, 0.5)
        devs = mid - 0.5 * (0.0 + end)
        # the same samples as the public sampler, bit for bit
        for k in range(64):
            p = sample_path(k, 1, 1.0, 1)
            r = refine_path(p, [0.5])
            assert r.values[1] - 0.5 * (p.values[0] + p.values[1]) == devs[k]
        var = devs.var()
        band = 3.0 * 0.25 * np.sqrt(2.0 / n)
        assert abs(var - 0.25) <= band

    @given(
        seed=st.integers(0, 2**64 - 1),
        steps=st.integers(1, 4),
        T=st.floats(1e-2, 10.0),
        fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=16, unique=True),
    )
    def test_equals_sequential_reference(self, seed, steps, T, fracs):
        # up to 16 inserts over at most 4 intervals: several share an interval
        path = sample_path(seed, 5, T, steps)
        times = sorted({f * T for f in fracs})
        assume(0.0 < times[0] and times[-1] < T)
        refined = refine_path(path, times[::-1])
        ref_t, ref_w = _sequential_refine(path, times)
        assert refined.t_grid.tobytes() == ref_t.tobytes()
        assert refined.values.tobytes() == ref_w.tobytes()


_U64 = st.integers(0, 2**64 - 1)


class TestNoiseBundle:
    def test_streams_distinct(self):
        W, dB = make_noise_bundle(3, 10, 1.0, 5)
        rows = {r.tobytes() for r in np.stack(list(dB), axis=-1)} | {np.diff(W).tobytes()}
        assert len(rows) == 11

    def test_reproducible(self):
        a = np.stack(list(make_noise_bundle(3, 4, 1.0, 5)[1]))
        b = np.stack(list(make_noise_bundle(3, 4, 1.0, 5)[1]))
        assert np.array_equal(a, b)

    def test_increment_matrix_shape(self):
        W, dB = make_noise_bundle(3, 4, 1.0, 5)
        assert W.shape == (6,)
        assert np.stack(list(dB), axis=-1).shape == (4, 5)

    @given(
        # one seed over n, steps <= 64; a seed array over a smaller range
        case=st.one_of(
            st.tuples(_U64, st.integers(1, 64), st.integers(1, 64)),
            st.tuples(st.lists(_U64, min_size=1, max_size=4), st.integers(1, 16),
                      st.integers(1, 13)),
        ),
        T=st.floats(1e-3, 10.0),
    )
    def test_batched_rows_equal_per_stream_paths(self, case, T):
        """For one seed and for a seed array, the common path equals
        `sample_path` of its stream, and particle i's increment k is
        sqrt(T/steps) times the normal of its word k, block k // 4 of the
        particle key at counter word 0 = (k // 4) 2^32 + i, bit for bit."""
        seeds, n, steps = case
        W, dB = make_noise_bundle(seeds, n, T, steps)
        steps_drawn = np.stack(list(dB), axis=-1)   # (n, steps) or (R, n, steps)
        if isinstance(seeds, int):
            assert W.shape == (steps + 1,) and steps_drawn.shape == (n, steps)
            W, steps_drawn, seeds = W[None], steps_drawn[None], [seeds]
        assert W.shape == (len(seeds), steps + 1)
        assert steps_drawn.shape == (len(seeds), n, steps)
        for w, drawn, seed in zip(W, steps_drawn, seeds):
            assert w.tobytes() == sample_path(seed, STREAM_COMMON, T, steps).values.tobytes()
            assert drawn.tobytes() == particle_increments(seed, n, T, steps).tobytes()


@given(
    seeds=st.lists(st.one_of(_U64, st.sampled_from([0, 2**64 - 1])), min_size=1, max_size=3),
    streams=st.lists(st.one_of(_U64, st.sampled_from([0, STREAM_COMMON, STREAM_INIT])),
                     min_size=1, max_size=3),
    times=st.lists(st.floats(allow_nan=False), min_size=1, max_size=3),
    block=st.sampled_from([0, 1, 2]),
    m=st.one_of(st.integers(1, 9), st.just(128)),
)
def test_vectorised_philox_equals_numpy_philox(seeds, streams, times, block, m):
    """Every (seed, stream, word1) lane of one broadcast call, word1 the bits
    of a float64 time as for bridge draws, equals numpy's Philox4x64-10."""
    word1 = np.array(times, dtype=np.float64).view(np.uint64)
    got = _raw_block(np.array(seeds, dtype=np.uint64)[:, None, None],
                     np.array(streams, dtype=np.uint64)[:, None], m, word1=word1, block=block)
    assert got.shape == (len(seeds), len(streams), len(times), m)
    for (a, b, c), lane in np.ndenumerate(got[..., 0]):
        key = np.array([seeds[a], streams[b]], dtype=np.uint64)
        counter = np.array([0, word1[c], 0, block], dtype=np.uint64)
        ref = np.random.Philox(counter=counter, key=key).random_raw(m)
        assert got[a, b, c].tobytes() == ref.tobytes()
    # a scalar call is the same lane
    assert _raw_block(seeds[0], streams[0], m, word1=int(word1[0]), block=block).tobytes() \
        == got[0, 0, 0].tobytes()


@given(
    seeds=st.lists(_U64, min_size=1, max_size=4),
    n=st.integers(1, 16),
    steps=st.integers(1, 13),
    T=st.floats(1e-3, 10.0),
)
def test_replica_noise_equals_bundles(seeds, n, steps, T):
    """Row r of the noise for a seed array is the noise for seeds[r] alone."""
    W, dB = make_noise_bundle(np.array(seeds, dtype=np.uint64), n, T, steps)
    steps_drawn = np.stack(list(dB), axis=-1)   # (R, n, steps)
    for r, seed in enumerate(seeds):
        W1, dB1 = make_noise_bundle(seed, n, T, steps)
        assert W[r].tobytes() == W1.tobytes()
        assert steps_drawn[r].tobytes() == np.stack(list(dB1), axis=-1).tobytes()


@given(
    seeds=st.one_of(_U64, st.lists(_U64, min_size=1, max_size=3)),
    n=st.integers(1, 9),
    more=st.integers(1, 9),
    steps=st.integers(1, 13),
)
def test_particle_noise_is_a_prefix_in_n(seeds, n, more, steps):
    """The increments of an n-particle bundle are those of the first n
    particles of a larger one: a particle's words do not depend on n."""
    small = np.stack(list(make_noise_bundle(seeds, n, 1.0, steps)[1]), axis=-1)
    large = np.stack(list(make_noise_bundle(seeds, n + more, 1.0, steps)[1]), axis=-1)
    assert small.tobytes() == np.ascontiguousarray(large[..., :n, :]).tobytes()


def test_initial_samples_per_seed_row():
    from rankflow.measures import gaussian, mixture, point_mass, uniform

    seeds = np.array([replica_seed(7, r) for r in range(5)], dtype=np.uint64)
    for dist in (gaussian(0.5, 2.0), uniform(-1.0, 1.0), point_mass(0.0),
                 mixture([gaussian(-1.0, 0.5), uniform(0.0, 2.0)], [0.3, 0.7])):
        rows = dist.sample(32, seeds, STREAM_INIT)
        assert rows.shape == (5, 32)
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == dist.sample(32, int(seed), STREAM_INIT).tobytes()


def test_replica_seeds_distinct_and_stable():
    seeds = [replica_seed(123, r) for r in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [replica_seed(123, r) for r in range(200)]


@given(
    T=st.floats(0.01, 100.0),
    steps=st.integers(1, 4096),
    data=st.data(),
)
def test_grid_indices_one_tolerance(T, steps, data):
    """A time within 1e-9 max(1, T) of node k maps to k; one 2 tol away
    from every node raises, naming what and the time."""
    grid = np.linspace(0.0, T, steps + 1)
    tol = 1e-9 * max(1.0, T)
    ks = np.array(data.draw(st.lists(st.integers(0, steps), min_size=1, max_size=5)))
    # 0.999: the rounding of grid[k] + d must not carry it past tol
    d = np.array(data.draw(st.lists(st.floats(-0.999, 0.999), min_size=ks.size, max_size=ks.size)))
    np.testing.assert_array_equal(grid_indices(grid, grid[ks] + d * tol, "t"), ks)
    assert grid_indices(grid, float(grid[ks[0]] + d[0] * tol), "t") == ks[0]

    k = data.draw(st.integers(0, steps))
    off = float(grid[k] + data.draw(st.sampled_from([-2.0, 2.0])) * tol)
    with pytest.raises(ValueError, match=re.escape(f"snapshot time = {off!r} is not a grid time")):
        grid_indices(grid, np.append(grid[ks], off), "snapshot time")


def test_value_at_reads_the_node_within_tolerance():
    path = sample_path(3, STREAM_COMMON, 2.0, 8)
    assert path.value_at(0.5 + 1.5e-9) == path.values[2]
    assert path.value_at(2.0 + 1.5e-9) == path.values[-1]
    with pytest.raises(ValueError, match="time = 0.500000003 is not a grid time"):
        path.value_at(0.500000003)
