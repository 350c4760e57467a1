"""Experiment orchestration: convergence, martingale statistic, stability."""

import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import particle_increments
from rankflow import diagnostics, experiments
from rankflow.bumps import Bump1D
from rankflow.cli import run
from rankflow.coefficients import ValidationError, build_from_sources
from rankflow.diagnostics import BumpTestFunction, entropy_identity_residual
from rankflow.experiments import (
    PhiConst,
    PhiLinear,
    PhiProduct,
    PhiSquare,
    PhiTanh,
    PsiConst,
    PsiCosNoise,
    PsiMixed,
    PsiTanhPairing,
    bias_allowance,
    convergence_study,
    default_martingale_suite,
    martingale_statistic,
    stability_experiment,
)
from rankflow.measures import empirical_cdf, gaussian, grid_cdf, l1_cdf_distance, point_mass, w1
from rankflow.particles import NonFiniteState, ParticleState, march
from rankflow.randomness import STREAM_COMMON, make_noise_bundle, refine_path, replica_seed, sample_path
from rankflow.solver import SolverConfig, solve


@pytest.fixture(scope="module")
def cs_const():
    return build_from_sources("1", "1", "0.5", 64)


class TestConvergenceStudy:
    def test_frozen_dynamics_single_particle(self):
        """All coefficients zero with a point mass: the error reduces to the
        solver's deterministic projection error and does not vary across
        replicas."""
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        rep = convergence_study(
            cs, point_mass(0.0), [1], 3, SolverConfig(-2.0, 2.0, 64),
            [0.5, 1.0], seed=9, T=1.0, steps=8, reference="spde",
        )
        errors = [r[2] for r in rep.rows]
        assert len(set(errors)) == 1
        assert errors[0] == pytest.approx(0.015625)  # dx/4 projection error

    def test_constant_coefficients_root_n_scaling(self, cs_const):
        rep = convergence_study(
            cs_const, point_mass(0.0), [100, 1600], 10,
            SolverConfig(-11.0, 12.0, 128), [0.5, 1.0],
            seed=42, T=1.0, steps=128, reference="analytic",
        )
        means = rep.summary["mean_error"]
        ratio = means[100] / means[1600]
        assert 2.5 <= ratio <= 6.5

    def test_analytic_reference_requires_constant_coefficients(self):
        cs = build_from_sources("a", "1", "1", 16)
        with pytest.raises(ValueError):
            convergence_study(
                cs, point_mass(0.0), [10], 2, SolverConfig(-8.0, 8.0, 32),
                [1.0], seed=1, T=1.0, steps=8, reference="analytic",
            )

    def test_stderr_clt_shrink(self, cs_const):
        """Doubling the replica count shrinks the stderr by roughly sqrt(2):
        the ratio lands in [1.2, 1.7]."""
        r1 = convergence_study(cs_const, point_mass(0.0), [64], 16,
                               SolverConfig(-11.0, 12.0, 64), [1.0],
                               seed=11, T=1.0, steps=64, reference="analytic")
        r2 = convergence_study(cs_const, point_mass(0.0), [64], 32,
                               SolverConfig(-11.0, 12.0, 64), [1.0],
                               seed=11, T=1.0, steps=64, reference="analytic")
        ratio = r1.summary["stderr"][64] / r2.summary["stderr"][64]
        assert 1.2 <= ratio <= 1.7

    def test_report_reproducible(self, cs_const):
        kw = dict(seed=5, T=0.5, steps=32, reference="analytic")
        reps = [
            convergence_study(cs_const, point_mass(0.0), [16, 32], 6,
                              SolverConfig(-9.0, 9.0, 32), [0.5], **kw)
            for _ in range(2)
        ]
        assert reps[0].rows == reps[1].rows

    def test_rows_equal_per_replica_loop(self):
        """The lock-step study writes the rows of one particle run per
        (replica, n), each on its own particles' words, bit for bit."""
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
        init, sc, times = gaussian(0, 1), SolverConfig(-11.0, 11.0, 48), [0.125, 0.25]
        n_list, replicas, T, steps = [8, 32], 3, 0.25, 8
        rep = convergence_study(cs, init, n_list, replicas, sc, times,
                                seed=23, T=T, steps=steps, reference="spde")
        u0 = grid_cdf(init, sc.x_min, sc.x_max, sc.cells)
        grid = np.linspace(0.0, T, steps + 1)
        errors = {}
        for r in range(replicas):
            seed_r = replica_seed(23, r)
            W = sample_path(seed_r, STREAM_COMMON, T, steps)
            sol = solve(u0, cs, W, sc, snapshot_times=times)
            for n in n_list:
                dB = particle_increments(seed_r, n, T, steps).T
                state = ParticleState(0.0, init.sample(n, seed_r))
                states = dict(zip(grid[1:], march(state, cs, grid, dB, W.increments())))
                errors[n, r] = max(l1_cdf_distance(sol.snapshot_at(t), empirical_cdf(states[t].positions))
                                   for t in times)
        assert rep.rows == tuple((n, r, errors[n, r]) for n in n_list for r in range(replicas))

    def test_rows_schema(self, cs_const):
        rep = convergence_study(cs_const, point_mass(0.0), [8], 2,
                                SolverConfig(-9.0, 9.0, 32), [0.5],
                                seed=5, T=0.5, steps=16, reference="analytic")
        assert rep.columns == ("n", "replica", "error")
        assert all(len(r) == 3 for r in rep.rows)


_PHIS = [PhiConst(1.5), PhiLinear(), PhiSquare(1.0), PhiProduct(1.0), PhiTanh(2.0)]
_PSIS = [PsiConst(), PsiTanhPairing(3.0), PsiCosNoise(), PsiMixed()]


def _rows_equal_block(fn, *block):
    """fn on a block equals fn on each row alone, bit for bit."""
    out = fn(*block)
    for r in range(block[0].shape[0]):
        assert np.asarray(fn(*(a[r] for a in block))).tobytes() == out[r].tobytes()


@given(data=st.data(), phi=st.sampled_from(_PHIS), R=st.integers(1, 5))
def test_phi_block_derivatives_and_rows(data, phi, R):
    """On an (R, k) block, grad is the central difference of value and hess
    that of grad, hess is symmetric, and every method equals its one-row
    calls bit for bit."""
    v = data.draw(arrays(np.float64, (R, phi.k), elements=st.floats(-3.0, 3.0)))
    h = 1e-5
    shifts = h * np.eye(phi.k)
    fd_grad = np.stack([(phi.value(v + e) - phi.value(v - e)) / (2 * h) for e in shifts], axis=-1)
    fd_hess = np.stack([(phi.grad(v + e) - phi.grad(v - e)) / (2 * h) for e in shifts], axis=-1)
    grad, hess = phi.grad(v), phi.hess(v)
    assert phi.value(v).shape == (R,) and grad.shape == (R, phi.k)
    assert hess.shape == (R, phi.k, phi.k)
    np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-7)
    np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-7)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
    for method in (phi.value, phi.grad, phi.hess):
        _rows_equal_block(method, v)


@given(data=st.data(), psi=st.sampled_from(_PSIS), R=st.integers(1, 5), k=st.integers(1, 2))
def test_psi_block_equals_rows(data, psi, R, k):
    v = data.draw(arrays(np.float64, (R, k), elements=st.floats(-3.0, 3.0)))
    w = data.draw(arrays(np.float64, (R,), elements=st.floats(-5.0, 5.0)))
    assert psi(v, w).shape == (R,)
    _rows_equal_block(psi, v, w)


def _martingale_loop(cs, init, suite, s, t, n, replicas, steps, seed):
    """Reference for `martingale_statistic`: each replica marched on its own
    noise, each triple evaluated state by state with one-trajectory
    (k, n) @ (n,) pairings and scalar phi and psi.  Returns the estimates
    and standard errors, one per triple."""
    grid = np.linspace(0.0, t, steps + 1)
    s_idx = round(s / t * steps)
    levels = np.arange(n + 1) / n
    dB_lv = np.diff(cs.eval_transform("B", levels))
    dD_lv = np.diff(cs.eval_transform("Sigma", levels) + cs.eval_transform("Gamma", levels))
    dG_lv = np.diff(cs.eval_transform("G", levels))
    samples = np.empty((len(suite), replicas))
    for r in range(replicas):
        seed_r = replica_seed(seed, r)
        W, dB = make_noise_bundle(seed_r, n, t, steps)
        start = ParticleState(0.0, init.sample(n, seed_r))
        states = [start, *march(start, cs, grid, dB, np.diff(W))][s_idx:]
        for j, (f_list, phi, psi) in enumerate(suite):
            v, integrand = [], []
            for state in states:
                srt = state.sorted_positions()
                fv = -np.stack([f(srt) for f in f_list])
                f1v = -np.stack([f.d1(srt) for f in f_list])
                pair_b, pair_d, pair_g = fv @ dB_lv, f1v @ dD_lv, fv @ dG_lv
                v_m = np.array([f.tail_integral(srt).mean() for f in f_list])
                v.append(v_m)
                integrand.append(float(phi.grad(v_m) @ (pair_b + pair_d))
                                 + 0.5 * float(pair_g @ phi.hess(v_m) @ pair_g))
            m_diff = (float(phi.value(v[-1])) - float(phi.value(v[0]))
                      - float(np.trapezoid(integrand, grid[s_idx:])))
            samples[j, r] = m_diff * float(psi(v[0], W[s_idx]))
    return samples.mean(axis=1), samples.std(axis=1, ddof=1) / np.sqrt(replicas)


def _no_noise(*args, **kwargs):
    raise AssertionError("noise drawn")


class TestMartingaleStatistic:
    @pytest.mark.parametrize("s", [0.0, 0.25])
    def test_block_statistic_equals_per_replica_loop(self, s):
        """The block computation over (replicas, kept states) agrees with the
        per-replica, per-triple loop on the whole default suite."""
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
        suite = default_martingale_suite()
        kw = dict(s=s, t=0.5, n=24, replicas=3, steps=8, seed=29)
        rep = martingale_statistic(cs, gaussian(0, 1), suite, **kw)
        estimate, stderr = _martingale_loop(cs, gaussian(0, 1), suite, **kw)
        np.testing.assert_allclose(rep.summary["estimate"], estimate, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.summary["stderr"], stderr, rtol=1e-12, atol=0)

    def test_constant_phi_statistic_exactly_zero(self, cs_const):
        rep = martingale_statistic(
            cs_const, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiConst(), PsiConst())],
            s=0.25, t=0.5, n=32, replicas=8, steps=16, seed=3,
        )
        assert rep.summary["estimate"] == [0.0]
        assert rep.summary["stderr"] == [0.0]

    @pytest.mark.parametrize("s", [0.5, 0.4999999995])
    def test_s_on_t_node_rejected_before_any_noise(self, cs_const, monkeypatch, s):
        """s on t's grid node would give an increment M_t - M_s of exactly
        0, a vacuous pass; it is rejected before any noise is drawn."""
        monkeypatch.setattr(experiments, "make_noise_bundle", _no_noise)
        with pytest.raises(ValueError, match=re.escape(f"s = {s!r} is t's grid node")):
            martingale_statistic(
                cs_const, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
                s=s, t=0.5, n=32, replicas=8, steps=16, seed=3,
            )

    @pytest.mark.parametrize("replicas", [0, -1])
    def test_no_replicas_rejected_before_any_noise(self, cs_const, monkeypatch, replicas):
        for name in ("make_noise_bundle", "sample_path"):
            monkeypatch.setattr(experiments, name, _no_noise)
        msg = re.escape(f"replicas = {replicas} must be at least 1")
        with pytest.raises(ValueError, match=msg):
            martingale_statistic(
                cs_const, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
                s=0.25, t=0.5, n=8, replicas=replicas, steps=8, seed=3,
            )
        with pytest.raises(ValueError, match=msg):
            convergence_study(cs_const, gaussian(0, 1), [8], replicas, SolverConfig(-11.0, 11.0, 32),
                              [0.25], seed=3, T=0.25, steps=8)

    def test_linear_phi_centered(self, cs_const):
        rep = martingale_statistic(
            cs_const, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
            s=0.25, t=0.5, n=128, replicas=60, steps=64, seed=13,
        )
        C = bias_allowance(cs_const, [Bump1D(0.0, 2.0)], PhiLinear(), 0.25, 0.5)
        assert abs(rep.summary["estimate"][0]) <= 3 * rep.summary["stderr"][0] + C / 128

    def test_nonlinear_phi_and_psi_families(self, cs_const):
        suite = [([Bump1D(0.0, 2.0)], phi, psi)
                 for phi, psi in [(PhiTanh(2.0), PsiTanhPairing()), (PhiSquare(1.0), PsiCosNoise())]]
        rep = martingale_statistic(
            cs_const, gaussian(0, 1), suite,
            s=0.25, t=0.5, n=128, replicas=60, steps=64, seed=13,
        )
        assert len(rep.rows) == 2
        for est, se, C in zip(rep.summary["estimate"], rep.summary["stderr"],
                              rep.summary["allowance_C"]):
            assert abs(est) <= 3 * se + C / 128

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.4375])
    def test_suite_rows_equal_single_triple_rows(self, s):
        # rank-dependent coefficients; f1 is shared by the first two triples
        # and f2 by the last two
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
        f1, f2 = Bump1D(0.0, 2.0), Bump1D(0.5, 2.0)
        suite = [
            ([f1], PhiLinear(), PsiTanhPairing()),
            ([f1, f2], PhiProduct(), PsiMixed()),
            ([f2], PhiConst(), PsiConst()),
        ]
        kw = dict(s=s, t=0.5, n=24, replicas=3, steps=8, seed=17)
        rep = martingale_statistic(cs, gaussian(0, 1), suite, **kw)
        assert len(rep.rows) == len(suite)
        for j, triple in enumerate(suite):
            single = martingale_statistic(cs, gaussian(0, 1), [triple], **kw)
            assert single.rows[0] == rep.rows[j]
            for key, values in rep.summary.items():
                assert single.summary[key] == [values[j]]

    def test_allowance_zero_for_constant_coefficients_linear_phi(self, cs_const):
        # constant coefficients have exact rank sums and linear phi has no
        # Ito correction, so the budget vanishes
        assert bias_allowance(cs_const, [Bump1D(0.0, 2.0)], PhiLinear(), 0.0, 1.0) == 0.0

    def test_allowance_from_cached_norms_equals_per_triple_closed_forms(self):
        """bias_allowance reads each bump's norms once (`Bump1D.norms`); the
        allowances equal the closed forms c/r, 2c/r and 4 sup |f'|, with
        c = 315/256 and sup |f'| = (c/r^2) 8 s (1 - s^2)^3 at s = 1/sqrt(7),
        taken over every f of every triple, bit for bit."""
        cs = build_from_sources("a - 0.5", "1 + 0.2*a", "0.5*(1 + a)", 32)
        c, core = 315.0 / 256.0, 6.0 / 7.0
        for f_list, phi, _ in default_martingale_suite():
            f_sup = f1_l1 = f2_l1 = 0.0
            for f in f_list:
                r = f.radius
                f_sup = max(f_sup, c / r)
                f1_l1 = max(f1_l1, 2.0 * c / r)
                f2_l1 = max(f2_l1, 4.0 * (c / (r * r)) * 8.0 * math.sqrt(1.0 / 7.0) * core * core * core)
            sup_sigma, sup_gamma = cs.report.sup_abs_sigma, cs.report.sup_abs_gamma
            lip_b, lip_gamma, lip_sigma = cs.lipschitz
            lip_s2g2 = 2.0 * (sup_sigma * lip_sigma + sup_gamma * lip_gamma)
            k, dt = phi.k, 0.25
            want = 2.0 * (0.5 * dt * phi.hess_bound * k * k * f_sup**2 * sup_sigma**2
                          + dt * phi.grad_bound * k * (f1_l1 * 0.5 * lip_b + 0.5 * f2_l1 * 0.5 * lip_s2g2)
                          + dt * phi.hess_bound * k * k * (f_sup * sup_gamma * f1_l1 * 0.5 * lip_gamma))
            assert bias_allowance(cs, f_list, phi, 0.25, 0.5) == want

    def test_allowance_positive_for_varying_coefficients(self):
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
        assert bias_allowance(cs, [Bump1D(0.0, 2.0)], PhiTanh(2.0), 0.0, 1.0) > 0.0

    @pytest.mark.parametrize("b,sigma,name", [("sqrt(a)", "1", "b'"),
                                              ("a - 0.5", "1 + sqrt(a)", "sigma'")])
    def test_allowance_rejects_unbounded_derivative(self, b, sigma, name):
        # d/da sqrt(a) is infinite at a = 0: no finite budget covers the bias
        cs = build_from_sources(b, sigma, "0.5*(1 + a)", 32)
        msg = f"coefficient {name} = '1.0/(2.0*sqrt(a))' is not bounded on piece 0 of 1024, [0, 0.0009765625]"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            bias_allowance(cs, [Bump1D(0.0, 2.0)], PhiLinear(), 0.0, 1.0)
        with pytest.raises(ValidationError):
            martingale_statistic(cs, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
                                 s=0.0, t=0.5, n=8, replicas=2, steps=4, seed=1)

    def test_off_grid_s_rejected(self, cs_const):
        with pytest.raises(ValueError):
            martingale_statistic(
                cs_const, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
                s=0.333, t=0.5, n=8, replicas=2, steps=10, seed=1,
            )

    @pytest.mark.parametrize("f_list, steps", [([], 10), ([Bump1D(0.0, 2.0)], 0)])
    def test_arity_mismatch_and_empty_grid_rejected(self, cs_const, f_list, steps):
        with pytest.raises(ValueError):
            martingale_statistic(
                cs_const, gaussian(0, 1), [(f_list, PhiLinear(), PsiConst())],
                s=0.0, t=0.5, n=8, replicas=2, steps=steps, seed=1,
            )


def _no_child_left():
    """Every child this process forked has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _studies(R):
    """Both studies, convergence with both references, on R replicas."""
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 32)
    cs_c = build_from_sources("0.3", "1", "0.5", 32)
    sc, init = SolverConfig(-11.0, 11.0, 48), gaussian(0, 1)
    return (
        martingale_statistic(cs, init, default_martingale_suite(), s=0.25, t=0.5, n=24,
                             replicas=R, steps=8, seed=29),
        convergence_study(cs, init, [8, 32], R, sc, [0.125, 0.25], seed=23, T=0.25, steps=8,
                          reference="spde"),
        convergence_study(cs_c, init, [8, 32], R, sc, [0.25], seed=23, T=0.25, steps=8,
                          reference="analytic"),
    )


class TestForkedRowBlocks:
    """The replicas of `convergence_study` and `martingale_statistic` run
    in one block per usable CPU, all but the first in forked children.
    `entropy_identity_residual` runs serially, and its residuals do not
    depend on the number of CPUs either."""

    @pytest.mark.parametrize("R", [1, 2, 3, 5, 16])
    def test_split_reports_equal_the_serial_ones(self, monkeypatch, R):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        serial = _studies(R)
        for cpus in (2, 3):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            for a, b in zip(serial, _studies(R)):
                assert repr(a) == repr(b)
        _no_child_left()

    def test_blocks_are_contiguous_and_joined_in_replica_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        seeds = np.arange(7, dtype=np.uint64)
        out = experiments._fork_rows(lambda b: np.stack([b * 2.0, np.full(b.size, os.getpid())]), seeds)
        assert out[0].tolist() == [2.0 * r for r in range(7)]
        # 7 rows in 3 blocks: 2 here, then 2 and 3 in two children
        pids = out[1].tolist()
        assert pids[:2] == [os.getpid()] * 2 and len(set(pids[2:4])) == len(set(pids[4:])) == 1
        assert len(set(pids)) == 3
        _no_child_left()

    def test_non_finite_state_in_a_child_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)

        def fn(seeds):
            if seeds[0] >= 2:
                raise NonFiniteState(f"non-finite positions from seed {seeds[0]}")
            return seeds[None, :] * 1.0

        # the first failing block in replica order is the one raised
        with pytest.raises(NonFiniteState, match="from seed 2$"):
            experiments._fork_rows(fn, np.arange(6, dtype=np.uint64))
        _no_child_left()

    def test_non_finite_state_of_a_study_raised_in_every_block(self, monkeypatch):
        # a drift of 8e307 over dt = 3 overflows in the first step of every row
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
        cs = build_from_sources("8e307", "1", "0.5", 16)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="after step from t = 0.0"):
            martingale_statistic(cs, gaussian(0, 1), [([Bump1D(0.0, 2.0)], PhiLinear(), PsiConst())],
                                 s=0.0, t=6.0, n=8, replicas=5, steps=2, seed=1)
        _no_child_left()

    def test_a_child_that_ends_without_a_result_is_an_error(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

        def fn(seeds):
            if seeds[0] != 0:
                os._exit(3)
            return seeds[None, :] * 1.0

        with pytest.raises(RuntimeError, match="rows 2..3 ended without a result"):
            experiments._fork_rows(fn, np.arange(4, dtype=np.uint64))
        _no_child_left()

    def test_an_interrupt_here_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)

        def fn(seeds):
            if seeds[0] != 0:
                time.sleep(60.0)
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            experiments._fork_rows(fn, np.arange(3, dtype=np.uint64))
        assert time.perf_counter() - t0 < 30.0
        _no_child_left()

    @pytest.mark.parametrize("command, keys", [
        ("martingale", "s = 0.25\nt = 0.5\nn = 16\n"),
        ("converge", "T = 0.25\nn_list = [8, 16]\nx_min = -11.0\nx_max = 11.0\ncells = 32\n"),
        ("diagnose", "T = 0.5\ns = 0.125\nt = 0.5\nx_min = -16.0\nx_max = 16.0\ncells = 32\n"
                     "r_xi = 0.3\nr_x = 1.5\neta_list = [0.3, 0.7]\ny_list = [-0.5, 0.5]\n"),
    ])
    def test_cli_runs_leave_no_child(self, monkeypatch, tmp_path, command, keys):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "study.cfg"
        cfg.write_text('b = "a - 0.5"\nsigma = "1"\ngamma = "0.5*(1 + a)"\ntable_resolution = 32\n'
                       'seed = 3\nsteps = 8\nreplicas = 5\ninit = "gaussian(0, 1)"\n' + keys)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        _no_child_left()

    @pytest.fixture(scope="class")
    def entropy_case(self):
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)
        sc = SolverConfig(-16.0, 16.0, 64)
        sol = solve(grid_cdf(gaussian(0, 1), sc.x_min, sc.x_max, sc.cells), cs,
                    sample_path(7, STREAM_COMMON, 0.5, 16), sc)
        tfs = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.5) for eta in (0.3, 0.7) for y in (-0.5, 0.5)]
        return sol, cs, tfs

    # 9, 8 and 2 snapshots: odd, even, and fewer than the CPUs
    @pytest.mark.parametrize("s, t", [(0.25, 0.5), (0.0625, 0.28125), (0.25, 0.28125)])
    def test_entropy_residuals_equal_the_serial_ones(self, monkeypatch, entropy_case, s, t):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        serial = np.array(entropy_identity_residual(*entropy_case, s, t))
        assert serial.size == 4 and np.isfinite(serial).all()
        for cpus in (2, 3):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            split = entropy_identity_residual(*entropy_case, s, t)
            assert np.array(split).tobytes() == serial.tobytes()
        _no_child_left()

    def test_an_error_in_a_snapshot_reaches_the_caller_unforked(self, monkeypatch, entropy_case):
        # the snapshot walk runs in the caller on any number of CPUs: the
        # error of the first failing snapshot, t = 0.4375, is raised as is,
        # and no child is forked
        terms = diagnostics._entropy_terms

        def failing(snap, r, *args):
            if r > 0.42:
                raise ArithmeticError(f"entropy terms at t = {r}")
            return terms(snap, r, *args)

        def no_fork():
            raise AssertionError("the entropy walk forked")

        monkeypatch.setattr(diagnostics, "_entropy_terms", failing)
        monkeypatch.setattr(os, "fork", no_fork)
        for cpus in (1, 3):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            with pytest.raises(ArithmeticError, match=r"^entropy terms at t = 0\.4375$"):
                entropy_identity_residual(*entropy_case, 0.25, 0.5)
        _no_child_left()


@pytest.fixture(scope="module")
def stability_report():
    cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)
    cfg = SolverConfig(-18.0, 18.0, 128)
    u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, cfg.cells)
    W = sample_path(11, STREAM_COMMON, 1.0, 96)
    return stability_experiment(cs, u0, W, [0.0, 0.04, 0.16, 0.64], cfg,
                                snapshot_times=[0.5, 1.0])


class TestStabilityExperiment:

    def test_zero_perturbation_zero_distance(self, stability_report):
        assert stability_report.rows[0][0] == 0.0
        assert stability_report.rows[0][1] == 0.0

    def test_distance_nondecreasing(self, stability_report):
        ds = [r[1] for r in stability_report.rows]
        assert all(a <= b + 1e-15 for a, b in zip(ds[:-1], ds[1:]))

    def test_implied_constant_within_factor_three(self, stability_report):
        assert stability_report.summary["implied_C_spread"] <= 3.0

    def test_pure_shift_oracle(self):
        """sigma -> 0 limit: the exact solutions translate rigidly, so
        D(eps) = gamma0 * eps at the final time (quadrature-exact)."""
        from rankflow.measures import w1
        from rankflow.solver import analytic_constant_solution

        cfg = SolverConfig(-12.0, 12.0, 256)
        init = gaussian(0.0, 1.0)
        for eps in (0.04, 0.16, 0.64):
            a = analytic_constant_solution(init, 1.0, 0.0, 0.75, 1.0, 0.3, cfg)
            b = analytic_constant_solution(init, 1.0, 0.0, 0.75, 1.0, 0.3 + eps, cfg)
            assert w1(a, b) == pytest.approx(0.75 * eps, rel=1e-9)

    def test_rows_equal_per_path_solves(self):
        """The one block of base and perturbed paths gives the rows of one
        solve per path, bit for bit; the off-grid snapshot time 0.3 is
        refined into each path after its shift."""
        cs = build_from_sources("a - 0.5", "1", "0.5*(1 + a)", 64)
        cfg = SolverConfig(-18.0, 18.0, 64)
        u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(11, STREAM_COMMON, 1.0, 24)
        epsilons, times = [0.0, 0.04, 0.64], [0.3, 1.0]
        rep = stability_experiment(cs, u0, W, epsilons, cfg, snapshot_times=times)
        base = solve(u0, cs, refine_path(W, times), cfg, snapshot_times=times)
        rows = []
        for eps in epsilons:
            sol = solve(u0, cs, refine_path(W.shifted(lambda t, e=eps: e * t), times), cfg, snapshot_times=times)
            D = max(w1(a, b) for a, b in zip(base.snapshots, sol.snapshots))
            rows.append((eps, D, D / (np.sqrt(eps) + eps) if eps > 0 else float("nan")))
        assert repr(rep.rows) == repr(tuple(rows))

    def test_decreasing_epsilons_rejected(self, cs_const):
        cfg = SolverConfig(-11.0, 12.0, 32)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(1, STREAM_COMMON, 1.0, 16)
        with pytest.raises(ValueError):
            stability_experiment(cs_const, u0, W, [0.5, 0.1], cfg)
