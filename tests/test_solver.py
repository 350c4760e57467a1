"""Splitting solver: the transport-collapse step, monotonicity, the
comparison principle, and closed-form oracles."""

import numpy as np
import pytest
from scipy.special import ndtr

from rankflow import randomness
from rankflow.coefficients import build_from_sources
from rankflow.measures import GridFunction, grid_cdf, point_mass, w1
from rankflow.randomness import BrownianPath, refine_path, sample_path, STREAM_COMMON
from rankflow.solver import (
    CFL_TARGET,
    DomainMarginError,
    SolverConfig,
    analytic_constant_solution,
    solve,
    solve_paths,
    spde_step,
)


@pytest.fixture(scope="module")
def cs_const():
    return build_from_sources("1", "1", "0.5", 64)


@pytest.fixture(scope="module")
def cs_heat():
    return build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)


@pytest.fixture(scope="module")
def cs_general():
    return build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)


def _heaviside(cfg: SolverConfig, jump=0.0) -> GridFunction:
    return GridFunction(cfg.x_min, cfg.x_max, (cfg.centers() >= jump).astype(float))


class TestSpdeStep:
    def test_zero_coefficients_fixed_point(self):
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        cfg = SolverConfig(-2.0, 2.0, 32)
        u = _heaviside(cfg)
        out = spde_step(u, cs, 0.1, 0.37)
        np.testing.assert_array_equal(out.values, u.values)

    def test_heat_stencil_identity(self, cs_heat):
        # sigma = sqrt(2): Sigma(u) = u, so one step is the classic stencil
        cfg = SolverConfig(-8.0, 8.0, 64)
        vals = np.clip(np.linspace(0, 1, 64) ** 1.3, 0, 1)
        u = GridFunction(cfg.x_min, cfg.x_max, vals)
        dt = 0.2 * u.dx**2
        out = spde_step(u, cs_heat, dt, 0.0)
        ue = np.concatenate(([0.0], vals, [1.0]))
        manual = vals + dt / u.dx**2 * (ue[2:] - 2 * ue[1:-1] + ue[:-2])
        np.testing.assert_allclose(out.values, manual, atol=1e-15)

    def test_collapse_is_identity_without_transport(self):
        """b = gamma = 0 (and sigma = 0, so no diffusion substep): the
        transport-collapse returns any nondecreasing input bit for bit,
        whatever dt and dW."""
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        cfg = SolverConfig(-2.0, 2.0, 64)
        rng = np.random.default_rng(31)
        for _ in range(200):
            vals = np.clip(np.sort(rng.uniform(-0.2, 1.2, cfg.cells)), 0.0, 1.0)
            u = GridFunction(cfg.x_min, cfg.x_max, vals, validate=False)
            out = spde_step(u, cs, float(rng.uniform(0.01, 1.0)), float(rng.normal()))
            assert out.values.tobytes() == vals.tobytes()

    def test_constant_transport_shifts_by_whole_cells(self):
        """sigma = 0 and constant b, gamma: a shift of exactly k cells moves
        the grid values k cells to the right."""
        cs = build_from_sources("1", "0", "0.5", 16, allow_degenerate=True)
        cfg = SolverConfig(-4.0, 4.0, 64)
        vals = np.clip(np.linspace(-0.5, 1.5, cfg.cells), 0.0, 1.0)
        u = GridFunction(cfg.x_min, cfg.x_max, vals)
        dt, k = 0.25, 3
        dw = (k * cfg.dx - dt) / 0.5
        out = spde_step(u, cs, dt, dw)
        np.testing.assert_allclose(out.values[k:], vals[:-k], atol=1e-12)
        np.testing.assert_array_equal(out.values[:k], 0.0)

    def test_monotone_and_range_on_fuzzed_steps(self, cs_general):
        """10^4 fuzzed (u, dt, dW): output stays a monotone CDF in [0,1];
        pairs also verify the comparison principle.  There is no noise CFL,
        so |dW| goes up to 20 sqrt(dt); dt spans up to five diffusion
        substeps."""
        rng = np.random.default_rng(20240520)
        cfg = SolverConfig(-3.0, 3.0, 24)
        dx = cfg.dx
        sup_s2 = cs_general.report.sup_abs_sigma**2
        for _ in range(10_000):
            raw = np.sort(rng.uniform(-0.2, 1.2, cfg.cells))
            u_vals = np.clip(raw, 0.0, 1.0)
            dt = float(rng.uniform(0.1, 1.0)) * 4.0 * dx**2 / sup_s2
            dw = float(rng.uniform(-20.0, 20.0)) * np.sqrt(dt)
            u = GridFunction(cfg.x_min, cfg.x_max, u_vals, validate=False)
            out = spde_step(u, cs_general, dt, dw)
            assert np.all(out.values >= -1e-12)
            assert np.all(out.values <= 1.0 + 1e-12)
            assert np.all(np.diff(out.values) >= -1e-12)
            # comparison principle: a cellwise-larger input stays larger
            v_vals = np.minimum(np.clip(u_vals + rng.uniform(0, 0.3), 0.0, 1.0), 1.0)
            v = GridFunction(cfg.x_min, cfg.x_max, v_vals, validate=False)
            out_v = spde_step(v, cs_general, dt, dw)
            assert np.all(out_v.values >= out.values - 1e-12)


class TestSolve:
    def test_zero_horizon_returns_initial(self, cs_const):
        cfg = SolverConfig(-2.0, 2.0, 32)
        u0 = _heaviside(cfg)
        trivial = BrownianPath(np.array([0.0]), np.array([0.0]), seed=0, stream_id=0)
        sol = solve(u0, cs_const, trivial, cfg, snapshot_times=[0.0])
        assert len(sol.snapshots) == 1
        np.testing.assert_array_equal(sol.snapshots[0].values, u0.values)

    def test_snapshots_between_noise_nodes(self, cs_heat):
        cfg = SolverConfig(-9.0, 9.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(1, STREAM_COMMON, 1.0, 8)
        sol = solve(u0, cs_heat, refine_path(W, [0.3, 1.0]), cfg, snapshot_times=[0.3, 1.0])
        np.testing.assert_allclose(sol.times, [0.3, 1.0])

    def test_off_grid_snapshot_time_raises_and_draws_nothing(self, cs_general, monkeypatch):
        """The solver reads snapshot times only at nodes of the path it is
        given: a time between nodes raises ValueError naming it, and no
        solve draws a random word or returns a path other than its own."""
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(17, STREAM_COMMON, 1.0, 4)

        def no_draw(*args, **kwargs):
            raise AssertionError("the solver drew a random word")

        monkeypatch.setattr(randomness, "_raw_block", no_draw)
        with pytest.raises(ValueError, match=r"^snapshot time = 0\.3 is not a grid time$"):
            solve_paths(u0, cs_general, [W, W], cfg, snapshot_times=[0.25, 0.3, 1.0])
        with pytest.raises(ValueError, match=r"^snapshot time = 1\.5 is not a grid time$"):
            solve(u0, cs_general, W, cfg, snapshot_times=[1.5])
        assert solve(u0, cs_general, W, cfg, snapshot_times=[0.25, 1.0]).path is W

    def test_constant_coefficient_oracle_first_order(self, cs_const):
        """L1 error against the exact conditional law, J=128 vs 256.

        Ratios observed 2.23-2.27 on seeds 1-5 and 2024 with a 384-step
        base grid."""
        init = point_mass(0.0)
        W = sample_path(2024, STREAM_COMMON, 1.0, 384)
        errs = {}
        for J in (128, 256):
            cfg = SolverConfig(-11.0, 12.0, J)
            u0 = grid_cdf(init, cfg.x_min, cfg.x_max, J)
            sol = solve(u0, cs_const, W, cfg, snapshot_times=[1.0])
            exact = analytic_constant_solution(init, 1.0, 1.0, 0.5, 1.0, W.values[-1], cfg)
            errs[J] = w1(sol.snapshots[-1], exact)
        assert errs[256] < errs[128]
        assert 1.5 <= errs[128] / errs[256] <= 2.6

    def test_heat_oracle_first_order(self, cs_heat):
        init = point_mass(0.0)
        W = sample_path(7, STREAM_COMMON, 1.0, 64)
        errs = {}
        for J in (128, 256):
            cfg = SolverConfig(-9.0, 9.0, J)
            u0 = grid_cdf(init, cfg.x_min, cfg.x_max, J)
            sol = solve(u0, cs_heat, W, cfg, snapshot_times=[1.0])
            exact = GridFunction(cfg.x_min, cfg.x_max, ndtr(cfg.centers() / np.sqrt(2.0)))
            errs[J] = w1(sol.snapshots[-1], exact)
        # at least first order; the parabolic-CFL regime is second order
        assert errs[128] / errs[256] >= 1.5

    def test_snapshots_stay_cdfs(self, cs_general):
        cfg = SolverConfig(-16.0, 16.0, 96)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(3, STREAM_COMMON, 1.0, 64)
        sol = solve(u0, cs_general, W, cfg)
        for snap in sol.snapshots:
            assert np.all(snap.values >= -1e-12)
            assert np.all(snap.values <= 1 + 1e-12)
            assert np.all(np.diff(snap.values) >= -1e-12)

    @pytest.mark.parametrize("T", [0.3, 1.0])
    def test_consumed_path_is_refine_path_by_level(self, cs_heat, T):
        """No noise CFL: the path the solver consumes is W refined by zero
        levels, bit for bit, on a heat config whose diffusion number
        2 dt / dx^2 exceeds CFL_TARGET on every noise node (a scheme that
        bisected the noise until it held would refine two or more levels
        here).  The diffusion is subdivided inside spde_step instead."""
        cfg = SolverConfig(-9.0, 9.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(17, STREAM_COMMON, T, 4)
        dt, levels = W.t_grid[1] - W.t_grid[0], 0
        while 2.0 * dt / cfg.dx**2 > CFL_TARGET:
            dt, levels = 0.5 * dt, levels + 1
        assert levels >= 2
        sol = solve(u0, cs_heat, W, cfg, snapshot_times=[T])
        assert sol.path.t_grid.tobytes() == W.t_grid.tobytes()
        assert sol.path.values.tobytes() == W.values.tobytes()

    @pytest.mark.parametrize("T", [0.3, 1.0])
    def test_consumed_path_is_refine_path_of_snapshot_inserts(self, cs_general, T):
        """The path the solver consumes is the one it is given: W refined by
        the whole snapshot list, which inserts only the off-grid times, bit
        for bit, whatever the noise."""
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(17, STREAM_COMMON, T, 4)
        off_grid = [0.13 * T, 0.6 * T]
        ref = refine_path(W, off_grid)
        times = off_grid + [0.5 * T, T]
        sol = solve(u0, cs_general, refine_path(W, times), cfg, snapshot_times=times)
        assert sol.path.t_grid.tobytes() == ref.t_grid.tobytes()
        assert sol.path.values.tobytes() == ref.values.tobytes()
        np.testing.assert_array_equal(sol.times, [0.13 * T, 0.5 * T, 0.6 * T, T])

    def test_snapshot_near_a_node_is_that_node(self, cs_general):
        """A snapshot time within the on-grid tolerance of a W node is read
        at that node, and refine_path inserts no bridge value for it; a time
        2e-9 off is inserted."""
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(17, STREAM_COMMON, 1.0, 4)
        exact = solve(u0, cs_general, W, cfg, snapshot_times=[0.25, 1.0])
        near_times = [0.25 + 5e-10, 1.0 + 5e-10]
        near = solve(u0, cs_general, refine_path(W, near_times), cfg, snapshot_times=near_times)
        assert near.path.t_grid.tobytes() == W.t_grid.tobytes()
        np.testing.assert_array_equal(near.times, [0.25, 1.0])
        assert [s.values.tobytes() for s in near.snapshots] == [s.values.tobytes() for s in exact.snapshots]
        assert near.snapshot_at(0.25 - 5e-10) is near.snapshots[0]
        off = solve(u0, cs_general, refine_path(W, [0.25 + 2e-9]), cfg, snapshot_times=[0.25 + 2e-9])
        np.testing.assert_array_equal(off.times, [0.25 + 2e-9])
        assert off.path.t_grid.size == W.t_grid.size + 1
        with pytest.raises(ValueError, match="snapshot time = 0.25 is not a grid time"):
            off.snapshot_at(0.25)

    def test_lookup_tolerance_is_the_solves(self):
        """For T > 1 the solve snaps a snapshot time with the tolerance
        1e-9 T of W's grid; the lookup of that time reads the same node,
        although the last snapshot time is below T."""
        cs = build_from_sources("0", "0.3", "0.2", 64)
        cfg = SolverConfig(-12.0, 12.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(1, 2, 4.0, 8)
        sol = solve(u0, cs, W, cfg, snapshot_times=[1.0 + 3e-9])
        np.testing.assert_array_equal(sol.times, [1.0])
        assert sol.snapshot_at(1.0 + 3e-9) is sol.snapshots[0]
        assert sol.snapshot_at(1.0) is sol.snapshots[0]
        with pytest.raises(ValueError, match="snapshot time = 1.5 is not a grid time"):
            sol.snapshot_at(1.5)

    def test_domain_margin_enforced(self, cs_const):
        cfg = SolverConfig(-2.0, 2.0, 32)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(1, STREAM_COMMON, 1.0, 8)
        with pytest.raises(DomainMarginError):
            solve(u0, cs_const, W, cfg, snapshot_times=[1.0])

    def test_domain_doubling_leaves_solution_unchanged(self, cs_heat):
        """Truncation check behind the margin rule: doubling the domain at
        fixed dx changes the interior solution by less than 1e-8."""
        W = sample_path(7, STREAM_COMMON, 1.0, 32)
        init = point_mass(0.0)
        small = SolverConfig(-9.0, 9.0, 128)
        big = SolverConfig(-18.0, 18.0, 256)  # same dx, twice the span
        sols = {}
        for cfg in (small, big):
            u0 = grid_cdf(init, cfg.x_min, cfg.x_max, cfg.cells)
            sols[cfg.cells] = solve(u0, cs_heat, W, cfg, snapshot_times=[1.0])
        inner = sols[128].snapshots[-1].values
        outer = sols[256].snapshots[-1].values[64:-64]
        np.testing.assert_allclose(outer, inner, atol=1e-8)

    def test_comparison_principle_full_march(self, cs_general):
        cfg = SolverConfig(-16.0, 16.0, 64)
        c = cfg.centers()
        u0 = GridFunction(cfg.x_min, cfg.x_max, (c >= 0.5).astype(float))
        v0 = GridFunction(cfg.x_min, cfg.x_max, (c >= -0.5).astype(float))
        W = sample_path(12, STREAM_COMMON, 0.5, 32)
        su = solve(u0, cs_general, W, cfg, snapshot_times=[0.5])
        sv = solve(v0, cs_general, W, cfg, snapshot_times=[0.5])
        assert np.all(sv.snapshots[-1].values >= su.snapshots[-1].values - 1e-12)


def _first_order_errors(b: str, sigma: str, gamma: str, half_width: float, seeds, start, exact) -> dict:
    """The mean over `seeds` of the L1 error at T = 1 of the mesh solution
    on [-half_width, half_width], on each seed's 32-step common-noise path,
    for J = 128, 256, 512 and 1024; `start(cfg)` is the initial GridFunction
    and `exact(x, W)` the law at the cell centres x on the marched path W."""
    cs = build_from_sources(b, sigma, gamma, 64, allow_degenerate=True)
    paths = [sample_path(seed, STREAM_COMMON, 1.0, 32) for seed in seeds]
    errs = {}
    for J in (128, 256, 512, 1024):
        cfg = SolverConfig(-half_width, half_width, J)
        sols = solve_paths(start(cfg), cs, paths, cfg, snapshot_times=[1.0])
        errs[J] = np.mean([w1(sol.snapshots[-1], GridFunction(cfg.x_min, cfg.x_max, exact(cfg.centers(), W)))
                           for sol, W in zip(sols, paths)])
    return errs


class TestEntropyLaws:
    """Exact entropy solutions at sigma = 0, where an entropy solution and
    other weak solutions differ (ROADMAP Directions 16 and 17)."""

    def test_fan_first_order(self):
        """b = a has the convex flux B = a^2/2: Heaviside data open the
        rarefaction fan u = clip(z / T, 0, 1), z = x - 0.5 W_T (Lax-Oleinik).
        Measured errors 0.163, 0.065, 0.025 and 0.0087 (ratios 2.5-2.8)."""
        errs = _first_order_errors("a", "0", "0.5", 8.0, [1, 2], _heaviside,
                                   lambda x, W: np.clip(x - 0.5 * W.values[-1], 0.0, 1.0))
        for J in (128, 256, 512):
            assert errs[J] / errs[2 * J] >= 2.0, errs

    def test_rank_dependent_gamma_law_first_order(self):
        """gamma = g0 + g1 a with g0 = 0.5, g1 = 1, so G(1) = 1: each rise of
        W opens a fan, each fall compresses it, and a fall below the running
        minimum m_T = min(0, min W) closes it into a shock, so with
        tau = W_T - m_T, u = clip(((x - G(1) m_T)/tau - g0)/g1, 0, 1).
        Measured errors 0.234, 0.096 and 0.039 (ratios 2.4 and 2.5).  The
        step to J = 1024 (0.022, ratio 1.7) is left for Direction 8."""

        def law(x, W):
            m = min(0.0, W.values.min())
            return np.clip((x - m) / (W.values[-1] - m) - 0.5, 0.0, 1.0)

        errs = _first_order_errors("0", "0", "0.5 + a", 12.0, [1, 2, 3], _heaviside, law)
        for J in (128, 256):
            assert errs[J] / errs[2 * J] >= 2.0, errs


class TestTravellingWave:
    """b = 1/2 - a, sigma = 1 and gamma = 1/2 have B(xi) = (xi - xi^2)/2,
    so B(1) = 0, and the travelling wave U' = U (1 - U), the logistic
    U(x) = 1/(1 + e^-x), moves only with the common noise:
    u(t, x) = U(x - W_t / 2) (ROADMAP Direction 15)."""

    def test_wave_first_order(self):
        """Started on U at the cell centres of [-30, 30].  Measured errors
        0.178, 0.063, 0.0156 and 0.0033 (ratios 2.8, 4.1 and 4.7)."""

        def logistic(x):
            return 1.0 / (1.0 + np.exp(-x))

        errs = _first_order_errors("0.5 - a", "1", "0.5", 30.0, [1, 2],
                                   lambda cfg: GridFunction(cfg.x_min, cfg.x_max, logistic(cfg.centers())),
                                   lambda x, W: logistic(x - 0.5 * W.values[-1]))
        for J in (128, 256, 512):
            assert errs[J] / errs[2 * J] >= 2.0, errs


def _reference_solve(u0, cs, W, cfg, times):
    """One path marched with the per-path step the block step replaced:
    b and gamma evaluated on the cell values and the 4J quantile levels
    together, every step, on 1-d arrays.  `times` are snapshot times, with
    off-grid ones inserted by refine_path.  Returns the snapshot values."""
    W = refine_path(W, [t for t in times if not np.isclose(W.t_grid, t, rtol=0, atol=1e-9).any()])
    dx, J = cfg.dx, cfg.cells
    xe = cfg.x_min + (np.arange(-1, J + 1) + 0.5) * dx
    xi = (np.arange(4 * J) + 0.5) / (4 * J)
    u, out = u0.values, []
    for t, dt, dw in zip(W.t_grid[1:], np.diff(W.t_grid), np.diff(W.values)):
        m = int(np.ceil(cs.report.sup_abs_sigma**2 * dt / (CFL_TARGET * dx**2)))
        ue = np.concatenate(([0.0], u, [1.0]))
        for _ in range(m):
            S = cs.eval_transform("Sigma", ue)
            ue[1:-1] += (dt / m) / dx**2 * (S[2:] - 2.0 * S[1:-1] + S[:-2])
        levels = np.concatenate((ue, xi))
        pos = np.concatenate((xe, np.interp(xi, ue, xe)))
        pos = pos + cs.b(levels) * dt + cs.gamma(levels) * dw
        u = np.interp(xe[1:-1], np.sort(pos), np.sort(levels))
        if np.isclose(times, t, rtol=0, atol=1e-9).any():
            out.append(u)
    return W, out


class TestSolvePaths:
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("times", [[0.25, 0.5, 1.0], [0.13, 0.5, 0.6, 1.0]],
                             ids=["on_grid", "off_grid"])
    def test_rows_equal_per_path_solves(self, cs_general, R, times):
        """Row r of the block equals a solve along paths[r] alone, and the
        per-path reference march, bit for bit: snapshots, times and the
        refined path; the rows differ, so a row paired with another row's
        noise fails here.  The off-grid times are refined into each path
        first."""
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        paths = [sample_path(40 + r, STREAM_COMMON, 1.0, 16) for r in range(R)]
        block = solve_paths(u0, cs_general, [refine_path(W, times) for W in paths], cfg, snapshot_times=times)
        assert len(block) == R
        for W, sol in zip(paths, block):
            one = solve(u0, cs_general, refine_path(W, times), cfg, snapshot_times=times)
            ref_path, ref = _reference_solve(u0, cs_general, W, cfg, times)
            np.testing.assert_array_equal(sol.times, times)
            assert sol.times.tobytes() == one.times.tobytes()
            assert sol.path.t_grid.tobytes() == one.path.t_grid.tobytes() == ref_path.t_grid.tobytes()
            assert sol.path.values.tobytes() == one.path.values.tobytes() == ref_path.values.tobytes()
            got = [g.values.tobytes() for g in sol.snapshots]
            assert got == [g.values.tobytes() for g in one.snapshots]
            assert got == [v.tobytes() for v in ref]
        finals = {sol.snapshots[-1].values.tobytes() for sol in block}
        assert len(finals) == R

    def test_shifted_family_rows_equal_per_path_solves(self, cs_general):
        """stability_experiment's family: a base path and its ramps
        base + eps t/T, each refined after its shift, one block, each row as
        its own solve."""
        cfg = SolverConfig(-18.0, 18.0, 96)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        base = sample_path(11, STREAM_COMMON, 1.0, 24)
        paths = [base] + [base.shifted(lambda t, e=eps: e * t) for eps in (0.0, 0.04, 0.64)]
        times = [0.3, 1.0]
        block = solve_paths(u0, cs_general, [refine_path(W, times) for W in paths], cfg, snapshot_times=times)
        for W, sol in zip(paths, block):
            _, ref = _reference_solve(u0, cs_general, W, cfg, times)
            assert [g.values.tobytes() for g in sol.snapshots] == [v.tobytes() for v in ref]
        assert [g.values.tobytes() for g in block[0].snapshots] == \
            [g.values.tobytes() for g in block[1].snapshots]

    def test_paths_on_different_grids_raise(self, cs_general):
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        paths = [sample_path(1, STREAM_COMMON, 1.0, 16), sample_path(2, STREAM_COMMON, 1.0, 8)]
        with pytest.raises(ValueError, match="share one time grid"):
            solve_paths(u0, cs_general, paths, cfg)
        with pytest.raises(ValueError, match="at least one path"):
            solve_paths(u0, cs_general, [], cfg)

    def test_nonfinite_dw_in_a_step_raises(self, cs_general):
        cfg = SolverConfig(-3.0, 3.0, 64)
        u = _heaviside(cfg)
        for dt, dw in ((0.01, np.nan), (0.01, np.inf), (np.inf, 0.1)):
            with pytest.raises(ValueError, match="finite noise"):
                spde_step(u, cs_general, dt, dw)

    def test_inf_path_raises_naming_its_interval(self, cs_general):
        cfg = SolverConfig(-14.0, 14.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(1, STREAM_COMMON, 1.0, 8)
        values = W.values.copy()
        values[3] = np.inf
        bad = BrownianPath(W.t_grid, values, W.seed, W.stream_id)
        with pytest.raises(ValueError, match=r"path 0: noise interval 2 \[0.25, 0.375\]"):
            solve(u0, cs_general, bad, cfg)
        with pytest.raises(ValueError, match=r"path 1: noise interval 2 "):
            solve_paths(u0, cs_general, [W, bad], cfg)


class TestAnalyticConstantSolution:
    def test_zero_time_returns_initial_cdf(self):
        cfg = SolverConfig(-4.0, 4.0, 64)
        init = point_mass(0.5)
        out = analytic_constant_solution(init, 1.0, 1.0, 1.0, 0.0, 0.0, cfg)
        np.testing.assert_array_equal(out.values, init.cdf(cfg.centers()))

    def test_pure_shift_when_sigma_zero(self):
        cfg = SolverConfig(-4.0, 4.0, 64)
        init = point_mass(0.0)
        out = analytic_constant_solution(init, 2.0, 0.0, 0.5, 1.0, -1.0, cfg)
        shift = 2.0 - 0.5
        np.testing.assert_array_equal(out.values, init.cdf(cfg.centers() - shift))

    def test_phi_symmetry_at_origin(self):
        cfg = SolverConfig(-4.0, 4.0, 129)  # odd cell count: a center at x = 0
        init = point_mass(0.0)
        out = analytic_constant_solution(init, 0.0, 1.0, 0.0, 1.0, 0.0, cfg)
        j = int(np.argmin(np.abs(cfg.centers())))
        assert abs(cfg.centers()[j]) < 1e-12
        assert out.values[j] == pytest.approx(0.5, abs=1e-14)
