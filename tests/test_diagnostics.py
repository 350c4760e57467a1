"""Kinetic function, transported test functions, chain rule, co-area,
dissipation measure, entropy identity, and weak form."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rankflow.bumps import Bump1D
from rankflow.coefficients import build_from_sources
from rankflow.diagnostics import (
    BumpTestFunction,
    chain_rule_forms,
    chain_rule_residual,
    chi,
    coarea_check,
    dissipation_measure,
    entropy_identity_residual,
    eval_rho,
    weak_form_residual,
)
from rankflow.diagnostics import _grid_sx
from rankflow.measures import GridFunction, grid_cdf, point_mass, gaussian
from rankflow.randomness import sample_path, STREAM_COMMON
from rankflow.solver import SolverConfig, SpdeSolution, solve


@pytest.fixture(scope="module")
def tf():
    return BumpTestFunction(eta=0.5, y=0.0, r_xi=0.3, r_x=1.5)


@pytest.fixture(scope="module")
def cs_general():
    return build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 128)


@pytest.fixture(scope="module")
def cs_heat():
    return build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)


def _identity_ramp(J=512):
    dx = 3.0 / J
    centers = -1.0 + (np.arange(J) + 0.5) * dx
    return GridFunction(-1.0, 2.0, np.clip(centers, 0.0, 1.0))


def _heat_solution(J, steps, T=1.0, seed=3, snapshot_times=None):
    cs = build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)
    cfg = SolverConfig(-9.0, 9.0, J)
    u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, J)
    W = sample_path(seed, STREAM_COMMON, T, steps)
    return solve(u0, cs, W, cfg, snapshot_times=snapshot_times), cs, cfg


class TestChi:
    def test_three_branches(self):
        assert chi(0.2, 0.5) == 1.0
        assert chi(-0.2, -0.5) == -1.0
        assert chi(0.7, 0.5) == 0.0
        assert chi(0.0, 0.5) == 0.0  # boundary excluded
        assert chi(-0.7, -0.5) == 0.0

    def test_integral_recovers_state(self):
        # int chi(xi, u) dxi = u, checked by dense quadrature
        xs = np.linspace(0, 1, 200_001)
        for u in (0.0, 0.15, 0.5, 0.97, 1.0):
            val = np.trapezoid(chi(xs, u), xs)
            assert val == pytest.approx(u, abs=1e-5)


class TestEvalRho:
    def test_initial_condition(self, tf, cs_general):
        rng = np.random.default_rng(1)
        xis, xs = rng.uniform(0, 1, 30), rng.uniform(-2, 2, 30)
        got = eval_rho(tf, cs_general, xis, 0.0, xs, 0.0)
        np.testing.assert_array_equal(got.value, tf.rho0(xs - tf.y, xis - tf.eta))

    def test_compact_support(self, tf, cs_general):
        out = eval_rho(tf, cs_general, 0.5, 0.7, 50.0, 0.3)
        assert out.value == 0.0 and out.dx == 0.0 and out.dxi == 0.0

    def test_xi_derivative_second_order_in_h(self, tf, cs_general):
        """Central differences of rho in xi converge to the analytic dxi at
        rate ~2 (slope of the max error under h-refinement)."""
        rng = np.random.default_rng(42)
        xis = rng.uniform(0.05, 0.95, 100)
        xs = rng.uniform(-1.5, 1.5, 100)
        t, z = 0.6, -0.4
        exact = eval_rho(tf, cs_general, xis, t, xs, z).dxi
        errs = []
        for h in (1e-2, 1e-3):
            fd = (
                eval_rho(tf, cs_general, xis + h, t, xs, z).value
                - eval_rho(tf, cs_general, xis - h, t, xs, z).value
            ) / (2 * h)
            errs.append(np.max(np.abs(fd - exact)))
        slope = math.log10(errs[0] / errs[1])
        assert 1.7 <= slope <= 2.3

    def test_narrow_xi_scale_rejected(self):
        with pytest.raises(ValueError):
            BumpTestFunction(eta=0.5, y=0.0, r_xi=0.01, r_x=1.0)


class TestChainRule:
    def test_zero_state(self, tf, cs_general):
        u = GridFunction(-1.0, 1.0, np.zeros(64), validate=False)
        assert chain_rule_residual(u, cs_general, tf, 0.3, 0.1) == 0.0

    def test_identity_ramp_value_and_residual(self, tf):
        # sigma = 1, b = 0, gamma = 1, t = 0: all three forms equal
        # -int_0^1 rho0(xi - y, xi - eta) dxi
        cs = build_from_sources("0", "1", "1", 64)
        u = _identity_ramp(512)
        lhs, rhs, qform = chain_rule_forms(u, cs, tf, 0.0, 0.0)
        oracle = -quad(lambda xi: tf.rho0(xi - tf.y, xi - tf.eta), 0.0, 1.0, limit=200)[0]
        assert abs(lhs - rhs) <= 1e-6
        assert lhs == pytest.approx(oracle, abs=1e-8)
        assert rhs == pytest.approx(oracle, abs=1e-6)
        assert qform == pytest.approx(oracle, abs=1e-10)

    def test_forms_agree_on_solver_snapshots(self, tf, cs_general):
        cfg = SolverConfig(-16.0, 16.0, 256)
        u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(5, STREAM_COMMON, 0.5, 64)
        sol = solve(u0, cs_general, W, cfg, snapshot_times=[0.5])
        u = sol.snapshots[-1]
        lhs, rhs, qform = chain_rule_forms(u, cs_general, tf, 0.5, W.values[-1])
        assert lhs == pytest.approx(qform, abs=5e-3)
        assert rhs == pytest.approx(qform, abs=5e-3)

    def test_refinement_slope_at_least_one(self, tf, cs_general):
        W = sample_path(5, STREAM_COMMON, 0.5, 64)
        res = {}
        for J in (128, 256):
            cfg = SolverConfig(-16.0, 16.0, J)
            u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, J)
            sol = solve(u0, cs_general, W, cfg, snapshot_times=[0.5])
            res[J] = chain_rule_residual(sol.snapshots[-1], cs_general, tf, 0.5, W.values[-1])
        slope = math.log2(res[128] / res[256])
        assert slope >= 1.0


class TestCoarea:
    def test_identity_ramp_constant_gamma(self):
        cs = build_from_sources("0", "1", "1", 64)
        u = _identity_ramp(256)
        g = lambda x, v: np.ones_like(x)
        assert coarea_check(u, cs, g) <= 1e-12

    def test_identity_ramp_affine_gamma(self):
        # both sides equal G(1) = 1.5 for gamma = 1 + a, g = 1
        cs = build_from_sources("0", "1", "1 + a", 64)
        u = _identity_ramp(256)
        g = lambda x, v: np.ones_like(x)
        assert coarea_check(u, cs, g) <= 1e-12

    def test_fuzzed_monotone_cdfs_first_order(self, cs_general):
        """Smooth random CDFs: residual bounded by C dx with C frozen from
        the refinement study (observed ~1e-4 at J=128, slope ~2)."""
        rng = np.random.default_rng(31)
        g = lambda x, v: np.cos(x) + v**2
        for _ in range(20):
            mu, sd = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            for J in (128, 256):
                dx = 24.0 / J
                centers = -12.0 + (np.arange(J) + 0.5) * dx
                u = GridFunction(-12.0, 12.0, gaussian(mu, sd).cdf(centers))
                assert coarea_check(u, cs_general, g) <= 0.05 * dx


class TestDissipationMeasure:
    def test_constant_state_no_mass(self, cs_general):
        snaps = tuple(
            GridFunction(-1.0, 1.0, np.full(32, 0.5), validate=False) for _ in range(3)
        )
        sol = SpdeSolution(np.array([0.0, 0.1, 0.2]), snaps, None)
        est = dissipation_measure(sol, cs_general, 64)
        assert est.total_mass() == 0.0

    def test_masses_nonnegative_and_bookkeeping(self, cs_heat):
        sol, cs, cfg = _heat_solution(128, 64, snapshot_times=(np.arange(32) + 0.5) / 32)
        est = dissipation_measure(sol, cs, 256)
        assert np.all(est.masses >= 0.0)
        book = 0.0
        for snap in sol.snapshots:
            sx = _grid_sx(snap, cs)
            book += 0.5 * float(np.sum(sx * sx)) * snap.dx * est.dt
        assert abs(est.total_mass() - book) <= 1e-10

    def test_heat_total_mass_close_to_closed_form(self):
        """Total mass vs the closed-form value int_0^1 ||u_x||^2 dt for the
        exact profile Phi(x / sqrt(2t)), which is sqrt(T / (2 pi))."""
        T = 1.0
        mids = (np.arange(128) + 0.5) * T / 128
        sol, cs, cfg = _heat_solution(256, 64, snapshot_times=mids)
        est = dissipation_measure(sol, cs, 256)
        closed = np.sqrt(T / (2 * np.pi))
        assert abs(est.total_mass() - closed) / closed <= 0.05

    def test_total_mass_cauchy_under_refinement(self):
        T = 1.0
        mids = (np.arange(128) + 0.5) * T / 128
        totals = {}
        for J in (256, 512):
            sol, cs, cfg = _heat_solution(J, 64, snapshot_times=mids)
            totals[J] = dissipation_measure(sol, cs, 256).total_mass()
        assert abs(totals[256] - totals[512]) / totals[512] <= 0.02

    def test_requires_uniform_time_grid(self, cs_general):
        snaps = tuple(
            GridFunction(-1.0, 1.0, np.full(8, 0.5), validate=False) for _ in range(3)
        )
        sol = SpdeSolution(np.array([0.0, 0.1, 0.5]), snaps, None)
        with pytest.raises(ValueError):
            dissipation_measure(sol, cs_general, 16)


class TestEntropyIdentity:
    def test_zero_coefficients_static_state(self, tf):
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        cfg = SolverConfig(-2.0, 2.0, 32)
        vals = (cfg.centers() >= 0).astype(float)
        snaps = tuple(GridFunction(cfg.x_min, cfg.x_max, vals) for _ in range(5))
        times = np.linspace(0.0, 1.0, 5)
        from rankflow.randomness import BrownianPath

        W = BrownianPath(times, np.zeros(5), seed=0, stream_id=0)
        sol = SpdeSolution(times, snaps, W)
        assert entropy_identity_residual(sol, cs, W, [tf], 0.0, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_decays_under_refinement(self, tf):
        res = {}
        for J, steps in ((128, 64), (256, 128)):
            sol, cs, cfg = _heat_solution(J, steps)
            res[J] = abs(entropy_identity_residual(sol, cs, sol.path, [tf], 0.25, 0.75)[0])
        # slope at least 0.5; the study observed ~4
        assert res[256] <= res[128] / np.sqrt(2.0)

    def test_constant_coefficients_vs_chain_rule_scale(self, tf):
        """Cross-diagnostic calibration: the entropy residual at J=512 stays
        below 10x the chain-rule residual at the same resolution."""
        cs = build_from_sources("1", "1", "0.5", 64)
        cfg = SolverConfig(-11.0, 12.0, 512)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(3, STREAM_COMMON, 1.0, 256)
        sol = solve(u0, cs, W, cfg)
        ent = abs(entropy_identity_residual(sol, cs, sol.path, [tf], 0.25, 0.75)[0])
        cr = chain_rule_residual(sol.snapshot_at(0.75), cs, tf, 0.75, sol.path.value_at(0.75))
        assert ent <= 10.0 * cr

    def test_family_equals_single_calls(self, cs_general):
        """A call on a family returns, in order, bit for bit what one call
        per test function returns; an empty family returns []."""
        cfg = SolverConfig(-16.0, 16.0, 64)
        u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(4, STREAM_COMMON, 0.5, 8)
        sol = solve(u0, cs_general, W, cfg)
        tfs = [BumpTestFunction(eta=0.3, y=-0.5, r_xi=0.25, r_x=1.0),
               BumpTestFunction(eta=0.7, y=0.5, r_xi=0.3, r_x=1.5),
               BumpTestFunction(eta=0.5, y=0.0, r_xi=0.2, r_x=2.0)]
        family = entropy_identity_residual(sol, cs_general, sol.path, tfs, 0.125, 0.5)
        singles = [entropy_identity_residual(sol, cs_general, sol.path, [tf], 0.125, 0.5)[0]
                   for tf in tfs]
        assert [np.float64(v).tobytes() for v in family] == [np.float64(v).tobytes() for v in singles]
        assert len(set(family)) == 3
        assert entropy_identity_residual(sol, cs_general, sol.path, [], 0.125, 0.5) == []


class TestWeakForm:
    def test_zero_test_function(self, cs_general):
        class ZeroF:
            def __call__(self, x):
                return np.zeros_like(x)

            d1 = d2 = __call__

            def support(self):
                return (-0.5, 0.5)

        sol, cs, cfg = _heat_solution(64, 16)
        assert weak_form_residual(sol, cs, sol.path, ZeroF(), 0.0, 1.0) == 0.0

    def test_zero_coefficient_run(self, tf):
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        cfg = SolverConfig(-3.0, 3.0, 48)
        vals = (cfg.centers() >= 0).astype(float)
        u0 = GridFunction(cfg.x_min, cfg.x_max, vals)
        W = sample_path(2, STREAM_COMMON, 1.0, 8)
        sol = solve(u0, cs, W, cfg)
        f = Bump1D(0.0, 1.5)
        assert weak_form_residual(sol, cs, sol.path, f, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_residual_halves_with_dx(self):
        """Oracle run at J in {128, 256, 512}: the residual at least halves
        with each halving of dx."""
        cs = build_from_sources("1", "1", "0.5", 64)
        init = point_mass(0.0)
        W = sample_path(3, STREAM_COMMON, 1.0, 128)
        f = Bump1D(0.5, 2.0)
        res = {}
        for J in (128, 256, 512):
            cfg = SolverConfig(-11.0, 12.0, J)
            u0 = grid_cdf(init, cfg.x_min, cfg.x_max, J)
            sol = solve(u0, cs, W, cfg)
            res[J] = weak_form_residual(sol, cs, sol.path, f, 0.25, 0.75)
        assert res[128] / res[256] >= 2.0
        assert res[256] / res[512] >= 2.0

    def test_support_must_be_inside_domain(self, cs_general):
        sol, cs, cfg = _heat_solution(64, 16)
        with pytest.raises(ValueError):
            weak_form_residual(sol, cs, sol.path, Bump1D(0.0, 100.0), 0.0, 1.0)
