"""Rank evaluation and Euler-Maruyama stepping of the particle system."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import particle_increments
from rankflow.coefficients import build_from_sources
from rankflow.expr import InputError
from rankflow.measures import GridFunction, empirical_cdf, point_mass, uniform, w1
from rankflow.particles import (
    NonFiniteState,
    ParticleState,
    em_step,
    march,
    rank_fractions,
    simulate,
)
from rankflow.randomness import STREAM_COMMON, STREAM_INIT, make_noise_bundle, replica_seed, sample_path, uniforms


@pytest.fixture(scope="module")
def cs_const():
    return build_from_sources("1", "1", "0.5", 32)


# rank-dependent coefficients through every transcendental of the grammar
CS_GENERAL = build_from_sources("a - 0.5 + 0.3*sin(5*a)", "1 + 0.5*exp(-a)", "0.5*(1 + cos(a))", 32)
CS_CONST = build_from_sources("0.3", "1", "0.5", 32)

# few distinct values, so rows are full of ties; -0.0 ties with 0.0
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300])


@st.composite
def tied_blocks(draw):
    """(R, n) positions with heavy ties; some rows all equal."""
    R, n = draw(st.integers(1, 5)), draw(st.integers(1, 16))
    x = draw(arrays(np.float64, (R, n), elements=st.one_of(_TIED, st.floats(-4.0, 4.0))))
    for r in draw(st.sets(st.integers(0, R - 1))):
        x[r] = draw(_TIED)
    return x


def _ranks_along_axis(x):
    """rank_fractions as take_along_axis / put_along_axis over the last axis:
    the reference for the flat-index version."""
    n = x.shape[-1]
    order = np.argsort(x, axis=-1)
    srt = np.take_along_axis(x, order, axis=-1)
    last = np.ones(x.shape, dtype=bool)
    last[..., :-1] = srt[..., 1:] != srt[..., :-1]
    ends = np.where(last, np.arange(1, n + 1), n)
    counts = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    fr = np.empty(x.shape)
    np.put_along_axis(fr, order, counts / n, axis=-1)
    return fr


def _em_step_reference(state, cs, dt, dB, dW):
    """The positions after em_step as rank fractions plus b, sigma and gamma
    evaluated on every entry: the reference for the step from the tables
    at the rank levels."""
    fr = rank_fractions(state)
    with np.errstate(invalid="ignore"):
        return (state.positions + np.asarray(cs.b(fr), dtype=np.float64) * dt
                + np.asarray(cs.sigma(fr), dtype=np.float64) * dB
                + np.asarray(cs.gamma(fr), dtype=np.float64) * np.asarray(dW)[..., None])


@st.composite
def tied_replica_blocks(draw):
    """(R, n) positions with R in {1, 3}, heavy ties and some rows all
    equal, or their first row alone as (n,) positions."""
    x = draw(tied_blocks())
    x = np.concatenate([x] * 3)[:draw(st.sampled_from([1, 3]))]
    if draw(st.booleans()):
        x[-1] = 0.0  # an all-tied point-mass row
    return x[0] if draw(st.booleans()) else x


class TestRankFractions:
    def test_direct_count(self):
        st = ParticleState(0.0, np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(rank_fractions(st), [1.0, 1 / 3, 2 / 3])

    def test_single_particle(self):
        assert rank_fractions(ParticleState(0.0, np.array([7.0])))[0] == 1.0

    def test_ties_share_value(self):
        st = ParticleState(0.0, np.array([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(rank_fractions(st), [1.0, 1.0, 1 / 3])

    def test_against_quadratic_counting_oracle(self):
        rng = np.random.default_rng(500)
        pos = rng.normal(size=500)
        assert len(np.unique(pos)) == 500
        st = ParticleState(0.0, pos)
        got = rank_fractions(st)
        oracle = np.array([np.sum(pos <= x) for x in pos]) / 500
        np.testing.assert_array_equal(got, oracle)


class TestBlocks:
    """(R, n) blocks: each row is its own system, bit for bit."""

    @given(tied_blocks())
    def test_rank_fractions_equal_searchsorted_per_row(self, x):
        got = rank_fractions(ParticleState(0.0, x))
        want = np.stack([np.searchsorted(np.sort(row), row, side="right") / row.size for row in x])
        assert got.tobytes() == want.tobytes()
        for row, got_row in zip(x, got):
            assert rank_fractions(ParticleState(0.0, row)).tobytes() == got_row.tobytes()

    @given(tied_blocks(), st.booleans())
    def test_rank_fractions_equal_along_axis_formula(self, x, one_row):
        if one_row:
            x = x[0]
        got = rank_fractions(ParticleState(0.0, x))
        assert got.shape == x.shape
        assert got.tobytes() == _ranks_along_axis(x).tobytes()

    @given(tied_blocks(), st.integers(0, 2**32 - 1))
    def test_em_step_equals_row_steps(self, x, seed):
        rng = np.random.default_rng(seed)
        dB = rng.normal(size=x.shape) * 0.1
        dW = rng.normal(size=x.shape[0]) * 0.1
        block = em_step(ParticleState(0.25, x), CS_GENERAL, 0.01, dB, dW)
        for r in range(x.shape[0]):
            row = em_step(ParticleState(0.25, x[r]), CS_GENERAL, 0.01, dB[r], float(dW[r]))
            assert row.positions.tobytes() == block.positions[r].tobytes()
            assert row.t == block.t

    @given(tied_replica_blocks(), st.integers(0, 2**32 - 1), st.booleans())
    def test_em_step_equals_full_evaluation(self, x, seed, general):
        """The table step equals rank fractions plus evaluation on every
        entry, bit for bit, with ties and with exp, sin and cos."""
        cs = CS_GENERAL if general else CS_CONST
        rng = np.random.default_rng(seed)
        dB = rng.normal(size=x.shape) * 0.1
        dW = rng.normal(size=x.shape[:-1]) * 0.1
        state = ParticleState(0.25, x)
        got = em_step(state, cs, 0.01, dB, dW).positions
        assert got.tobytes() == _em_step_reference(state, cs, 0.01, dB, dW).tobytes()

    def test_em_step_equals_full_evaluation_on_a_large_block(self):
        """(3, 512) positions, one row a point mass, one with a tied pair."""
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 512))
        x[0] = 0.0
        x[1, 7] = x[1, 300]
        dB, dW = rng.normal(size=x.shape) * 0.05, rng.normal(size=3) * 0.05
        state = ParticleState(0.0, x)
        for dt in (0.01, 1.0 / 128):
            got = em_step(state, CS_GENERAL, dt, dB, dW).positions
            assert got.tobytes() == _em_step_reference(state, CS_GENERAL, dt, dB, dW).tobytes()

    @given(tied_replica_blocks())
    def test_one_cached_sort(self, x):
        """sorted_positions is np.sort's values, from the sort that the ranks
        and the step read."""
        state = ParticleState(0.0, x)
        srt = state.sorted_positions()
        assert srt.shape == x.shape
        np.testing.assert_array_equal(srt, np.sort(x, axis=-1))
        assert np.shares_memory(srt, state.sorted_positions())
        assert not srt.flags.writeable
        assert rank_fractions(state).tobytes() == _ranks_along_axis(x).tobytes()

    def test_non_finite_row_names_step_time(self):
        x = np.zeros((3, 4))
        dB = np.zeros((3, 4))
        dB[1, 2] = np.inf
        with pytest.raises(NonFiniteState, match=r"t = 0\.375"):
            em_step(ParticleState(0.375, x), CS_GENERAL, 0.125, dB, np.zeros(3))

    def test_one_common_increment_per_row(self):
        with pytest.raises(ValueError):
            em_step(ParticleState(0.0, np.zeros((3, 4))), CS_GENERAL, 0.1, np.zeros((3, 4)), 0.0)


class TestEmStep:
    def test_pure_drift(self):
        cs = build_from_sources("1", "0", "0", 16, allow_degenerate=True)
        st = ParticleState(0.0, np.array([0.0, 1.0, -2.0]))
        out = em_step(st, cs, 0.1, np.zeros(3), 0.0)
        np.testing.assert_allclose(out.positions - st.positions, 0.1)
        assert out.t == pytest.approx(0.1)

    def test_rigid_common_shift(self):
        cs = build_from_sources("0", "0", "1", 16, allow_degenerate=True)
        st = ParticleState(0.0, np.array([0.0, 1.0, -2.0]))
        out = em_step(st, cs, 0.1, np.zeros(3), -0.7)
        np.testing.assert_allclose(out.positions - st.positions, -0.7)

    def test_single_particle_matches_logged_increments(self):
        cs = build_from_sources("0", "1", "0", 16, allow_degenerate=True)
        for seed in (1, 2, 3):
            path = sample_path(seed, 0, 1.0, 1)
            dB = path.increments()
            st = ParticleState(0.0, np.array([0.3]))
            out = em_step(st, cs, 1.0, dB, 0.0)
            assert out.positions[0] == pytest.approx(0.3 + dB[0], abs=0)

    def test_non_finite_rejected(self):
        cs = build_from_sources("1", "0", "0", 16, allow_degenerate=True)
        st = ParticleState(0.0, np.array([0.0]))
        with pytest.raises(NonFiniteState):
            em_step(st, cs, 1.0, np.array([np.inf]), 0.0)

    def test_permutation_equivariance(self, cs_const):
        rng = np.random.default_rng(4)
        pos = rng.normal(size=40)
        dB = rng.normal(size=40) * 0.1
        perm = rng.permutation(40)
        a = em_step(ParticleState(0.0, pos), cs_const, 0.05, dB, 0.3)
        b = em_step(ParticleState(0.0, pos[perm]), cs_const, 0.05, dB[perm], 0.3)
        np.testing.assert_array_equal(a.positions[perm], b.positions)

    def test_row_mean_moves_by_the_level_sums(self):
        """On tie-free rows one step moves each row's mean by exactly
        (1/n) sum_k [b(k/n) dt + sigma(k/n) dB_(k) + gamma(k/n) dW], with
        dB_(k) the increment of the particle of rank k: an exact check of
        `CoefficientSet.at_levels` with rank-dependent coefficients.  The
        tolerance 1e-13 covers the rounding of O(1) positions and sums over
        n = 257; a level off by one moves a mean by about dt / n = 4e-4."""
        cs = build_from_sources("a - 0.5", "1 + 0.2*a", "0.5*(1 + a)", 32)
        rng = np.random.default_rng(8)
        R, n, dt = 6, 257, 0.1
        pos = rng.normal(size=(R, n))
        dB, dW = rng.normal(size=(R, n)) * np.sqrt(dt), rng.normal(size=R) * np.sqrt(dt)
        out = em_step(ParticleState(0.0, pos), cs, dt, dB, dW)
        a = np.arange(1, n + 1) / n
        dB_ranked = np.take_along_axis(dB, np.argsort(pos, axis=-1), axis=-1)
        want = ((a - 0.5).mean() * dt + ((1 + 0.2 * a) * dB_ranked).mean(axis=-1)
                + (0.5 * (1 + a)).mean() * dW)
        np.testing.assert_allclose(out.positions.mean(axis=-1) - pos.mean(axis=-1), want, rtol=0, atol=1e-13)


def _bundle(seed, n, T, steps):
    """The noise of `make_noise_bundle` as arrays: the common path's values
    and the (steps, n) increments."""
    W, dB = make_noise_bundle(seed, n, T, steps)
    return W, np.stack(list(dB))


def _march_to_end(positions, cs, T, steps, dB, W):
    """The final state of `march` on explicit (steps, n) increments dB and
    common-path values W."""
    state = ParticleState(0.0, positions)
    for state in march(state, cs, np.linspace(0.0, T, steps + 1), dB, np.diff(W)):
        pass
    return state


class TestSimulate:
    @pytest.mark.parametrize("T, steps, message", [
        (0.0, 0, "the time horizon 0.0 must be positive"), (1.0, 0, "steps = 0 must be at least 1")])
    def test_empty_step_grid_rejected(self, cs_const, T, steps, message):
        """A run needs a positive horizon and at least one step (`step_grid`):
        the zero-step run T = 0, steps = 0, or steps = 0 alone, is an input
        error before any step."""
        noise = make_noise_bundle(5, 2, 1.0, 1)
        with pytest.raises(InputError, match=f"^{message}$"):
            simulate(np.array([1.0, 2.0]), cs_const, T, steps, noise, snapshot_times=[0.0])

    def test_exact_for_constant_coefficients(self, cs_const):
        # X_i(T) = X_i(0) + b T + B^i_T + gamma W_T exactly for EM
        noise = make_noise_bundle(77, 8, 2.0, 50)
        traj = simulate(point_mass(0.0).sample(8, 77), cs_const, 2.0, 50, noise,
                        snapshot_times=[0.0, 2.0])
        x0 = traj.states[0].positions
        xt = traj.states[-1].positions
        bt = np.cumsum(particle_increments(77, 8, 2.0, 50), axis=-1)[:, -1]
        wt = noise[0][-1]
        np.testing.assert_allclose(xt, x0 + 2.0 + bt + 0.5 * wt, atol=2e-14)

    def test_permutation_of_initial_positions_and_streams(self, cs_const):
        rng = np.random.default_rng(6)
        n = 12
        W, dB = _bundle(9, n, 1.0, 20)
        pos = rng.normal(size=n)
        perm = rng.permutation(n)
        a = _march_to_end(pos, cs_const, 1.0, 20, dB, W)
        b = _march_to_end(pos[perm], cs_const, 1.0, 20, dB[:, perm], W)
        np.testing.assert_array_equal(a.positions[perm], b.positions)

    def test_common_noise_factorization(self):
        # gamma constant: X_i - g W_t does not depend on the common path
        cs = build_from_sources("a - 0.5", "1", "0.7", 32)
        n, T, steps = 30, 1.0, 40
        W, dB = _bundle(21, n, T, steps)
        other_W = sample_path(4242, STREAM_COMMON, T, steps).values
        pos0 = point_mass(0.0).sample(n, 21)
        a = _march_to_end(pos0, cs, T, steps, dB, W)
        b = _march_to_end(pos0, cs, T, steps, dB, other_W)
        ca = a.positions - 0.7 * W[-1]
        cb = b.positions - 0.7 * other_W[-1]
        # float accumulation prevents exact cancellation; 1e-12 is tight
        np.testing.assert_allclose(ca, cb, atol=1e-12)

    def test_recentered_cloud_matches_idiosyncratic_motion(self, cs_const):
        # constant coefficients: the empirical law of X(T) - (bT + gamma W_T)
        # equals that of X(0) + sigma B_T
        noise = make_noise_bundle(33, 64, 1.0, 32)
        x0 = point_mass(0.0).sample(64, 33)
        traj = simulate(x0, cs_const, 1.0, 32, noise, snapshot_times=[1.0])
        shifted = traj.states[-1].positions - (1.0 + 0.5 * noise[0][-1])
        target = x0 + np.cumsum(particle_increments(33, 64, 1.0, 32), axis=-1)[:, -1]
        assert w1(empirical_cdf(shifted), empirical_cdf(target)) < 1e-13

    def test_snapshot_off_grid_rejected(self, cs_const):
        noise = make_noise_bundle(5, 2, 1.0, 10)
        with pytest.raises(ValueError):
            simulate(np.array([0.0, 1.0]), cs_const, 1.0, 10, noise, snapshot_times=[0.55])

    def test_mismatched_bundle_rejected(self, cs_const):
        noise = make_noise_bundle(5, 3, 1.0, 10)
        with pytest.raises(ValueError):
            simulate(np.array([0.0, 1.0]), cs_const, 1.0, 10, noise)

    @pytest.mark.parametrize("noise_steps", [8, 12])
    def test_noise_for_other_step_count_rejected(self, cs_const, noise_steps):
        noise = make_noise_bundle(5, 2, 1.0, noise_steps)
        with pytest.raises(ValueError, match="steps"):
            simulate(np.array([0.0, 1.0]), cs_const, 1.0, 10, noise, snapshot_times=[0.5])

    def test_trajectory_reproducible(self, cs_const):
        x0 = point_mass(0.0).sample(5, 13)
        a = simulate(x0, cs_const, 1.0, 16, make_noise_bundle(13, 5, 1.0, 16))
        b = simulate(x0, cs_const, 1.0, 16, make_noise_bundle(13, 5, 1.0, 16))
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.positions, sb.positions)

    def test_replica_rows_equal_single_runs(self):
        """(R, n) positions on a seed array: row r is the run of seed r alone,
        bit for bit, at every snapshot."""
        seeds = np.array([3, 2**64 - 1, 40], dtype=np.uint64)
        x0 = point_mass(0.0).sample(8, seeds)
        block = simulate(x0, CS_GENERAL, 0.5, 12, make_noise_bundle(seeds, 8, 0.5, 12),
                         snapshot_times=[0.25, 0.5])
        for r, seed in enumerate(seeds):
            row = simulate(x0[r], CS_GENERAL, 0.5, 12, make_noise_bundle(int(seed), 8, 0.5, 12),
                           snapshot_times=[0.25, 0.5])
            assert row.times.tobytes() == block.times.tobytes()
            for a, b in zip(row.states, block.states):
                assert a.positions.tobytes() == b.positions[r].tobytes()

    def test_time_step_self_refinement(self):
        """Rank-dependent coefficients: halving dt (with bridge-coupled
        noise) moves the final cloud less and less; the explicit scheme is
        consistent in dt."""
        from rankflow.randomness import refine_path

        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
        n, T = 64, 0.5
        paths = [sample_path(29, STREAM_COMMON, T, 64)] + [sample_path(29, i, T, 64) for i in range(n)]

        def noise_at(steps):
            refined = []
            for p in paths:
                cur = p
                while cur.t_grid.size - 1 < steps:
                    mids = 0.5 * (cur.t_grid[:-1] + cur.t_grid[1:])
                    cur = refine_path(cur, mids)
                refined.append(cur)
            return refined[0].values, np.stack([p.increments() for p in refined[1:]], axis=1)

        x0 = point_mass(0.0).sample(n, 29)
        finals = {}
        for steps in (64, 128, 256):
            W, dB = noise_at(steps)
            finals[steps] = _march_to_end(x0, cs, T, steps, dB, W).positions
        d1 = np.max(np.abs(finals[64] - finals[128]))
        d2 = np.max(np.abs(finals[128] - finals[256]))
        assert d2 < d1


class TestEntropySelection:
    """At sigma = 0 with gamma = 1/2, Heaviside data follow the entropy
    solution of the conservation law with flux B, translated by W_t / 2
    (ROADMAP Direction 16).  In z = x - W_t / 2, b = -a (B concave) keeps a
    shock, the law of a point mass at -t/2, and b = a (B convex) opens the
    fan u = clip(z / t, 0, 1), the uniform law on [0, t].  Both laws are
    exact CDFs of `measures`, so w1 is the exact L1 error."""

    @pytest.mark.parametrize("b, law", [("-a", empirical_cdf([-0.5])), ("a", GridFunction(0.0, 1.0, [0.5]))],
                             ids=["shock", "fan"])
    def test_particles_converge_to_the_entropy_solution(self, b, law):
        """Started from uniform(-1e-3, 1e-3), 256 steps to T = 1, 8 replicas
        each on its own W.  Per-replica errors measured at n = 256, 1024 and
        4096: shock 1.95e-3, 6.0e-4 and 5.1e-4; fan 2.00e-3, 6.7e-4 and
        5.1e-4.  The floor near 5e-4 is the initial data's own L1 distance
        from the Heaviside, so n = 4096 is left out."""
        cs = build_from_sources(b, "0", "0.5", 64, allow_degenerate=True)
        seeds = np.array([replica_seed(2024, r) for r in range(8)], dtype=np.uint64)
        errs = {}
        for n in (256, 1024):
            W, dB = make_noise_bundle(seeds, n, 1.0, 256)
            final = simulate(uniform(-1e-3, 1e-3).sample(n, seeds), cs, 1.0, 256, (W, dB),
                             snapshot_times=[1.0]).states[-1].positions
            errs[n] = np.mean([w1(empirical_cdf(z), law) for z in final - 0.5 * W[:, -1:]])
        assert errs[256] / errs[1024] >= 2.5 and errs[1024] <= 1e-3, errs


class TestRankDependentGammaLaw:
    """b = 0, sigma = 0 and gamma = 1/2 + a, with Heaviside data at 0: every
    rise of W opens a fan, every fall compresses it back, and a fall below
    the running minimum m = min(0, min W) closes it into a shock.  With
    tau = W_T - m, u(T) is the uniform law on [m + tau/2, m + 3 tau/2], or
    a point mass at m when tau = 0 (ROADMAP Direction 17).  The law depends
    on the path only through (W_T, m), so each replica is held to the law of
    the step-grid path it marched."""

    def test_particles_converge_at_order_sqrt_dt(self):
        """Started from uniform(-1e-3, 1e-3), 16 replicas each on its own W.
        Mean errors measured at n = 256: 0.0102 on 256 steps and 0.0032 on
        2048 (ratio 3.17, where sqrt(8) = 2.83); n = 1024 on 256 steps gave
        0.973 times the n = 256 error, so the error is the time step's.
        Over five base seeds the step ratio was 2.53-3.35 and the n ratio
        0.96-0.98."""
        cs = build_from_sources("0", "0", "0.5 + a", 64, allow_degenerate=True)
        seeds = np.array([replica_seed(2024, r) for r in range(16)], dtype=np.uint64)

        def mean_error(n, steps):
            W, dB = make_noise_bundle(seeds, n, 1.0, steps)
            final = simulate(uniform(-1e-3, 1e-3).sample(n, seeds), cs, 1.0, steps, (W, dB),
                             snapshot_times=[1.0]).states[-1].positions
            errs = []
            for x, w in zip(final, W):
                m = w.min()  # w[0] = 0, so m = min(0, min W)
                tau = w[-1] - m
                law = GridFunction(m + 0.5 * tau, m + 1.5 * tau, [0.5]) if tau > 0 else empirical_cdf([m])
                errs.append(w1(empirical_cdf(x), law))
            return np.mean(errs)

        coarse = mean_error(256, 256)
        assert coarse / mean_error(256, 2048) >= 2.0
        assert 0.9 <= mean_error(1024, 256) / coarse <= 1.1


class TestTravellingWave:
    """b = 1/2 - a, sigma = 1 and gamma = 1/2 have B(1) = 0 and the logistic
    travelling wave U(x) = 1/(1 + e^-x), so particles started from U follow
    U(x - W_t / 2) exactly in law (ROADMAP Direction 15)."""

    def test_particles_converge_at_order_inverse_sqrt_n(self):
        """Exact wave samples logit(u), 256 steps to T = 1, 8 replicas each on
        its own W; the cloud shifted back by W_T / 2 is held to U on a mesh
        of 2^16 cells over [-30, 30].  Mean errors measured: 0.0876 at
        n = 1024 and 0.0366 at n = 4096 (ratio 2.39, where n^(-1/2) gives 2);
        over base seeds 2024, 7 and 11 the ratio was 1.82-2.39."""
        cs = build_from_sources("0.5 - a", "1", "0.5", 64)
        seeds = np.array([replica_seed(2024, r) for r in range(8)], dtype=np.uint64)
        centers = -30.0 + (np.arange(2**16) + 0.5) * (60.0 / 2**16)
        wave = GridFunction(-30.0, 30.0, 1.0 / (1.0 + np.exp(-centers)))
        errs = {}
        for n in (1024, 4096):
            u = uniforms(seeds, STREAM_INIT, n)
            W, dB = make_noise_bundle(seeds, n, 1.0, 256)
            final = simulate(np.log(u / (1.0 - u)), cs, 1.0, 256, (W, dB),
                             snapshot_times=[1.0]).states[-1].positions
            errs[n] = np.mean([w1(empirical_cdf(z), wave) for z in final - 0.5 * W[:, -1:]])
        assert errs[1024] / errs[4096] >= 1.5, errs
