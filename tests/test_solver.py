"""Finite-volume solver: flux splitting, monotonicity, conservativity, and
closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from rankflow.coefficients import build_from_sources
from rankflow.measures import GridFunction, grid_cdf, point_mass, w1
from rankflow.randomness import BrownianPath, refine_path, sample_path, STREAM_COMMON
from rankflow.solver import (
    CflViolated,
    DomainMarginError,
    SolverConfig,
    SubstepLimitExceeded,
    analytic_constant_solution,
    convective_flux,
    solve,
    spde_step,
)
from rankflow.solver import _interface_flux


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


class TestConvectiveFlux:
    def test_pure_upwind_positive_speed(self, cs_const):
        # b = 1, dW = 0: h > 0, flux = dt * u_left
        cs = build_from_sources("1", "1", "1", 32)
        assert convective_flux(cs, 0.1, 0.0, 0.7, 0.3) == pytest.approx(0.07, abs=1e-14)

    def test_pure_downwind_negative_noise(self):
        cs = build_from_sources("0", "1", "1", 32)
        assert convective_flux(cs, 0.1, -0.2, 0.7, 0.3) == pytest.approx(-0.2 * 0.3, abs=1e-14)

    def test_sign_change_zero_at_matched_states(self):
        cs = build_from_sources("a - 0.5", "1", "1", 32)
        assert convective_flux(cs, 1.0, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_sign_change_rarefaction_positive_part(self):
        # H+(1) = int_{0.5}^{1} (a - 0.5) da = 0.125
        cs = build_from_sources("a - 0.5", "1", "1", 32)
        assert convective_flux(cs, 1.0, 0.0, 1.0, 0.0) == pytest.approx(0.125, abs=1e-13)

    def test_splitting_reassembles_total_flux(self, cs_general):
        # H+(u) + H-(u) = B(u) dt + G(u) dW for matched states
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = float(rng.uniform(0, 1))
            dt, dw = float(rng.uniform(0.001, 0.1)), float(rng.normal() * 0.1)
            total = cs_general.eval_transform("B", u) * dt + cs_general.eval_transform("G", u) * dw
            assert convective_flux(cs_general, dt, dw, u, u) == pytest.approx(total, abs=1e-13)

    @given(
        u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24).map(sorted),
        dt_frac=st.floats(0.01, 1.0),
        dw_frac=st.floats(-1.0, 1.0),
        sign_change=st.booleans(),
    )
    def test_vector_flux_equals_pairwise_flux(self, cs_general, u, dt_frac, dw_frac, sign_change):
        # the vectorized interface fluxes pair ue[j] with ue[j + 1]; sign_change
        # keeps |dW| < 2 dt, where h = (a - 0.5) dt + 0.5 (1 + a) dW can
        # change sign inside (0, 1)
        dx = 0.25
        rep = cs_general.report
        sup_d = rep.sup_abs_sigma**2 + rep.sup_abs_gamma**2
        dt = dt_frac * 0.8 * dx**2 / sup_d
        room = 0.9 - (rep.sup_abs_b * dt / dx + sup_d * dt / dx**2)
        dw = dw_frac * min(room * dx / rep.sup_abs_gamma, 2.0 * dt if sign_change else np.inf)
        ue = np.concatenate(([0.0], u, [1.0]))
        f_if = _interface_flux(cs_general, dt, dw, ue)
        assert f_if.shape == (ue.size - 1,)
        for j, f in enumerate(f_if):
            assert f == convective_flux(cs_general, dt, dw, ue[j], ue[j + 1])


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

    def test_cfl_violation_raises(self, cs_const):
        cfg = SolverConfig(-2.0, 2.0, 64)
        u = _heaviside(cfg)
        with pytest.raises(CflViolated):
            spde_step(u, cs_const, dt=1.0, dW=0.0)

    def test_monotone_and_range_on_fuzzed_steps(self, cs_general):
        """10^4 fuzzed (u, dt, dW) under CFL: output stays a monotone CDF
        in [0,1]; pairs also verify the comparison principle."""
        rng = np.random.default_rng(20240520)
        cfg = SolverConfig(-3.0, 3.0, 24)
        dx = cfg.dx
        rep = cs_general.report
        sup_h = rep.sup_abs_b
        sup_g = rep.sup_abs_gamma
        sup_d = rep.sup_abs_sigma**2 + rep.sup_abs_gamma**2
        for _ in range(10_000):
            raw = np.sort(rng.uniform(-0.2, 1.2, cfg.cells))
            u_vals = np.clip(raw, 0.0, 1.0)
            dt = float(rng.uniform(0.1, 1.0)) * 0.8 * dx**2 / sup_d
            # pick dW to keep the full CFL number below 0.9
            room = 0.9 - (sup_h * dt / dx + sup_d * dt / dx**2)
            dw = float(rng.uniform(-1.0, 1.0)) * room * dx / sup_g
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

    def test_conservative_update_bookkeeping(self, cs_general):
        # sum_j (u'_j - u_j) dx equals the net boundary contribution exactly
        rng = np.random.default_rng(9)
        cfg = SolverConfig(-3.0, 3.0, 48)
        dx = cfg.dx
        for _ in range(50):
            u_vals = np.clip(np.sort(rng.uniform(-0.2, 1.2, cfg.cells)), 0, 1)
            u = GridFunction(cfg.x_min, cfg.x_max, u_vals, validate=False)
            dt = 0.3 * dx**2 / 2.0
            dw = float(rng.normal() * 0.2 * dx)
            out = spde_step(u, cs_general, dt, dw)
            ue = np.concatenate(([0.0], u_vals, [1.0]))
            f_if = _interface_flux(cs_general, dt, dw, ue)
            D = cs_general.eval_transform("Sigma", ue) + cs_general.eval_transform("Gamma", ue)
            boundary = (
                -(f_if[-1] - f_if[0])
                + dt / dx * ((D[-1] - D[-2]) - (D[1] - D[0]))
            )
            assert np.sum(out.values - u_vals) * dx == pytest.approx(boundary, abs=1e-13)


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
        sol = solve(u0, cs_heat, W, cfg, snapshot_times=[0.3, 1.0])
        np.testing.assert_allclose(sol.times, [0.3, 1.0])

    def test_constant_coefficient_oracle_first_order(self, cs_const):
        """L1 error against the exact conditional law, J=128 vs 256.

        Refinement band frozen from the repository study: ratios observed
        1.65-1.75 across seeds with a 384-step base grid."""
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
        """The path the solver consumes is W refined level by level at all
        midpoints by refine_path, bit for bit: with b = gamma = 0 the CFL
        number 2 dt / dx^2 is the same on every noise node, so every node
        bisects the same number of times (two or more here)."""
        cfg = SolverConfig(-9.0, 9.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(17, STREAM_COMMON, T, 4)
        ref, levels = W, 0
        while 2.0 * (ref.t_grid[1] - ref.t_grid[0]) / cfg.dx**2 > cfg.cfl_target:
            ref = refine_path(ref, 0.5 * (ref.t_grid[:-1] + ref.t_grid[1:]))
            levels += 1
        assert levels >= 2
        sol = solve(u0, cs_heat, W, cfg, snapshot_times=[T])
        assert sol.path.t_grid.tobytes() == ref.t_grid.tobytes()
        assert sol.path.values.tobytes() == ref.values.tobytes()

    def test_substep_limit(self, cs_const):
        cfg = SolverConfig(-11.0, 11.0, 64, max_substeps=2)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        # a manufactured path with a huge jump cannot satisfy CFL in 2 substeps
        W = BrownianPath(np.array([0.0, 1.0]), np.array([0.0, 50.0]), seed=1, stream_id=7)
        with pytest.raises(SubstepLimitExceeded):
            solve(u0, cs_const, W, cfg, snapshot_times=[1.0])
        # only the second of three nodes carries a jump too large for 4
        # substeps; the message names that node
        cfg = SolverConfig(-11.0, 11.0, 64, max_substeps=4)
        W = BrownianPath(np.array([0.0, 0.01, 0.02, 0.03]), np.array([0.0, 0.01, 50.0, 50.01]),
                         seed=1, stream_id=7)
        with pytest.raises(SubstepLimitExceeded, match=r"increment \[0\.01, 0\.02\] .* after 4 substeps"):
            solve(u0, cs_const, W, cfg)

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
