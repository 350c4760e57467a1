"""Transported test functions, chain rule, co-area, dissipation measure,
entropy identity, and weak form."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad

from rankflow import bumps
from rankflow.bumps import Bump1D, bump, bump_d1, bump_d2
from rankflow.coefficients import PIECES, CoefficientSet, ValidationError, build_from_sources
from rankflow.diagnostics import (
    BumpTestFunction,
    chain_rule_forms,
    chain_rule_residual,
    coarea_check,
    dissipation_measure,
    entropy_identity_residual,
    eval_rho,
    weak_form_residual,
)
from rankflow.diagnostics import _entropy_terms, _grid_sx, _kinetic_rule, _restrict
from rankflow.measures import GridFunction, grid_cdf, point_mass, gaussian, mixture
from rankflow.randomness import refine_path, sample_path, STREAM_COMMON
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


def _family_grid():
    """2 etas x 2 ys x 2 (r_xi, r_x) pairs: every eta and every y recurs
    with the other radius, so sharing a bump factor by centre alone fails."""
    return [BumpTestFunction(eta=eta, y=y, r_xi=r_xi, r_x=r_x)
            for eta in (0.3, 0.7) for y in (-0.5, 0.5) for r_xi, r_x in ((0.25, 1.0), (0.3, 1.5))]


def _bits(values):
    return [np.float64(v).tobytes() for v in np.ravel(values)]


def _small_solution(cs):
    cfg = SolverConfig(-16.0, 16.0, 64)
    u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, cfg.cells)
    W = sample_path(4, STREAM_COMMON, 0.5, 8)
    return solve(u0, cs, W, cfg)


def _heat_solution(J, steps, T=1.0, seed=3, snapshot_times=None):
    cs = build_from_sources("0", "sqrt(2)", "0", 64, allow_degenerate=True)
    cfg = SolverConfig(-9.0, 9.0, J)
    u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, J)
    W = sample_path(seed, STREAM_COMMON, T, steps)
    if snapshot_times is not None:
        # snapshot times between noise nodes are inserted into the path first
        W = refine_path(W, snapshot_times)
    return solve(u0, cs, W, cfg, snapshot_times=snapshot_times), cs, cfg


# the closed forms of the factors, centred bumps of radius r: bump(x / r) /
# r^k, k = 1, 2, 3, with bump the unit-mass bump on (-1, 1) and r^k a product
_OLD_FACTORS = (
    ("fx", "r_x", lambda x, r: bump(np.asarray(x) / r) / r),
    ("fx.d1", "r_x", lambda x, r: bump_d1(np.asarray(x) / r) / (r * r)),
    ("fx.d2", "r_x", lambda x, r: bump_d2(np.asarray(x) / r) / (r * r * r)),
    ("fxi", "r_xi", lambda x, r: bump(np.asarray(x) / r) / r),
    ("fxi.d1", "r_xi", lambda x, r: bump_d1(np.asarray(x) / r) / (r * r)),
)


def _factor_points(r):
    """Points inside the support, at +-r and their neighbours, +-0, NaN,
    +-inf and anywhere."""
    return st.one_of(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True).map(lambda s: s * r),
        st.sampled_from([r, -r, np.nextafter(r, 0.0), np.nextafter(r, np.inf),
                         np.nextafter(-r, 0.0), np.nextafter(-r, -np.inf),
                         0.0, -0.0, np.nan, np.inf, -np.inf]),
        st.floats(),
    )


@st.composite
def _factor_cases(draw):
    radius = st.one_of(st.floats(0.05, 100.0), st.sampled_from([0.05, 0.3, 1.0, 1.5]))
    tf = BumpTestFunction(eta=0.5, y=0.0, r_xi=draw(radius), r_x=draw(radius))
    cases = []
    for name, r_name, old in _OLD_FACTORS:
        points = _factor_points(getattr(tf, r_name))
        shape = array_shapes(min_dims=0, max_dims=2, max_side=8)
        cases.append((name, old, getattr(tf, r_name), draw(arrays(np.float64, shape, elements=points))))
        cases.append((name, old, getattr(tf, r_name), draw(points)))  # a Python scalar
    return tf, cases


@given(_factor_cases())
def test_bump1d_factors_equal_the_old_closed_forms(case):
    """tf.fx, tf.fx.d1, tf.fx.d2, tf.fxi and tf.fxi.d1 are bit for bit the
    scaled closed forms, in value, type, shape and dtype."""
    tf, cases = case
    for name, old, r, x in cases:
        factor = tf
        for attr in name.split("."):
            factor = getattr(factor, attr)
        with np.errstate(over="ignore"):  # x / r of a huge x, on both sides
            got, want = factor(x), old(x, r)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestEvalRho:
    def test_initial_condition(self, tf, cs_general):
        rng = np.random.default_rng(1)
        xis, xs = rng.uniform(0, 1, 30), rng.uniform(-2, 2, 30)
        got = eval_rho(tf, cs_general, xis, 0.0, xs, 0.0)
        np.testing.assert_array_equal(got.value, tf.rho0(xs - tf.y, xis - tf.eta))

    def test_compact_support(self, tf, cs_general):
        out = eval_rho(tf, cs_general, 0.5, 0.7, 50.0, 0.3)
        assert out.value == 0.0 and out.dxi == 0.0

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

    def test_column_times_equal_row_calls(self, tf, cs_general):
        """Column t and z_t broadcast against (rows, points) xi: each row is
        bit for bit the call with that row's scalar t and z_t."""
        rng = np.random.default_rng(7)
        xis = rng.uniform(0.0, 1.0, (5, 40))
        xs = rng.uniform(-2.0, 2.0, 40)
        ts, zs = rng.uniform(0.0, 1.0, 5), rng.normal(size=5)
        block = eval_rho(tf, cs_general, xis, ts[:, None], xs, zs[:, None])
        for k in range(5):
            row = eval_rho(tf, cs_general, xis[k], float(ts[k]), xs, float(zs[k]))
            for name in ("value", "dxi"):
                assert _bits(getattr(block, name)[k]) == _bits(getattr(row, name))

    def test_narrow_xi_scale_rejected(self):
        with pytest.raises(ValueError):
            BumpTestFunction(eta=0.5, y=0.0, r_xi=0.01, r_x=1.0)

    @pytest.mark.parametrize("r_xi", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_xi_scale_not_positive_or_not_finite_rejected(self, r_xi):
        with pytest.raises(ValueError, match="r_xi"):
            BumpTestFunction(eta=0.5, y=0.0, r_xi=r_xi, r_x=1.0)

    @pytest.mark.parametrize("r_x", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_x_scale_not_positive_or_not_finite_rejected(self, r_x):
        with pytest.raises(ValueError, match="r_x"):
            BumpTestFunction(eta=0.5, y=0.0, r_xi=0.3, r_x=r_x)

    @pytest.mark.parametrize("centre", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["eta", "y"])
    def test_centre_not_finite_rejected(self, name, centre):
        # a NaN centre once gave residuals of exactly 0.0, which read as a pass
        with pytest.raises(ValueError, match=f"^{name} = "):
            BumpTestFunction(**{"eta": 0.5, "y": 0.0, "r_xi": 0.3, "r_x": 1.0, name: centre})


class TestChainRule:
    def test_zero_state(self, tf, cs_general):
        # the x-bump reaches past x_max, across u's rise from 0 to 1 on the
        # last half-cell: both sides count it, and nothing else
        u = GridFunction(-1.0, 1.0, np.zeros(64), validate=False)
        assert chain_rule_residual(u, cs_general, [tf], 0.3, 0.1) == [0.0]

    def test_bumps_across_the_domain_ends_converge(self, cs_general):
        """u = Phi(x) on (-1, 1) is 0.16 and 0.84 at the ends, and rises to 0
        and 1 past them; bumps across either end, and one inside, converge
        at second order.  A rhs on the cells alone stays near 0.39 and 0.33
        for the first two."""
        tfs = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.0) for eta, y in ((0.2, -1.0), (0.8, 1.0), (0.5, 0.0))]
        res = {}
        for J in (64, 128, 256):
            x = -1.0 + (np.arange(J) + 0.5) * 2.0 / J
            res[J] = np.array(chain_rule_residual(GridFunction(-1.0, 1.0, gaussian(0, 1).cdf(x)), cs_general,
                                                  tfs, 0.3, 0.1))
        assert np.all(res[64] <= 2e-4)
        assert np.all(res[256] <= res[128] / 3.0) and np.all(res[128] <= res[64] / 3.0)

    def test_identity_ramp_value_and_residual(self, tf):
        # sigma = 1, b = 0, gamma = 1, t = 0: both sides equal
        # -int_0^1 rho0(xi - y, xi - eta) dxi
        cs = build_from_sources("0", "1", "1", 64)
        u = _identity_ramp(512)
        [(lhs, rhs)] = chain_rule_forms(u, cs, [tf], 0.0, 0.0)
        oracle = -quad(lambda xi: tf.rho0(xi - tf.y, xi - tf.eta), 0.0, 1.0, limit=200)[0]
        assert abs(lhs - rhs) <= 1e-6
        assert lhs == pytest.approx(oracle, abs=1e-10)
        assert rhs == pytest.approx(oracle, abs=1e-6)

    def test_forms_agree_on_solver_snapshots(self, tf, cs_general):
        cfg = SolverConfig(-16.0, 16.0, 256)
        u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(5, STREAM_COMMON, 0.5, 64)
        sol = solve(u0, cs_general, W, cfg, snapshot_times=[0.5])
        u = sol.snapshots[-1]
        [(lhs, rhs)] = chain_rule_forms(u, cs_general, [tf], 0.5, W.values[-1])
        assert rhs == pytest.approx(lhs, abs=5e-3)

    def test_refinement_slope_at_least_one(self, tf, cs_general):
        W = sample_path(5, STREAM_COMMON, 0.5, 64)
        res = {}
        for J in (128, 256):
            cfg = SolverConfig(-16.0, 16.0, J)
            u0 = grid_cdf(gaussian(0, 1), cfg.x_min, cfg.x_max, J)
            sol = solve(u0, cs_general, W, cfg, snapshot_times=[0.5])
            res[J] = chain_rule_residual(sol.snapshots[-1], cs_general, [tf], 0.5, W.values[-1])[0]
        slope = math.log2(res[128] / res[256])
        assert slope >= 1.0

    def test_family_equals_single_calls(self, cs_general):
        """A call on a family returns, in order, bit for bit what one call
        per test function returns; an empty family returns []."""
        u = _small_solution(cs_general).snapshots[-1]
        tfs = _family_grid()
        family = chain_rule_forms(u, cs_general, tfs, 0.5, 0.3)
        singles = [chain_rule_forms(u, cs_general, [tf], 0.5, 0.3)[0] for tf in tfs]
        assert _bits(family) == _bits(singles)
        assert len(set(family)) == len(tfs)
        residuals = chain_rule_residual(u, cs_general, tfs, 0.5, 0.3)
        assert residuals == [abs(lhs - rhs) for lhs, rhs in family]
        assert chain_rule_forms(u, cs_general, [], 0.5, 0.3) == []


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

    def test_a_state_cut_off_at_the_domain_ends_converges(self, cs_general):
        """u = Phi(x) on (-1, 1) rises from 0 to 0.16 and from 0.84 to 1 on
        its end half-cells, which the xi-side sees: the cell side counts
        them too, and the residual falls at second order.  On the cells
        alone it stays near 0.26."""
        g = lambda x, v: np.cos(x) + v**2
        res = []
        for J in (64, 128, 256):
            x = -1.0 + (np.arange(J) + 0.5) * 2.0 / J
            res.append(coarea_check(GridFunction(-1.0, 1.0, gaussian(0, 1).cdf(x)), cs_general, g))
        assert res[0] <= 5e-5 and res[0] >= 3.0 * res[1] and res[1] >= 3.0 * res[2]

    def test_plateau_between_two_bumps_converges(self, cs_general):
        """Between the bumps u is flat at 0.5, where q jumps: the xi rule has
        that level as a breakpoint, so the residual falls at least 8x per 4x
        refinement; a rule that misses the jump stalls near 3e-4."""
        g = lambda x, v: np.cos(x) + (v - 0.5) ** 2
        law = mixture([gaussian(-4.0, 0.5), gaussian(4.0, 0.5)], [0.5, 0.5])
        res = [coarea_check(grid_cdf(law, -16.0, 16.0, J), cs_general, g) for J in (256, 1024, 4096)]
        assert res[0] >= 8.0 * res[1] and res[1] >= 8.0 * res[2]


class TestDissipationMeasure:
    def test_constant_state_no_mass(self, cs_general):
        snaps = tuple(
            GridFunction(-1.0, 1.0, np.full(32, 0.5), validate=False) for _ in range(3)
        )
        sol = SpdeSolution(np.array([0.0, 0.1, 0.2]), snaps, None)
        _, masses = dissipation_measure(sol, cs_general)
        assert float(np.sum(masses)) == 0.0

    def test_masses_nonnegative_and_bookkeeping(self, cs_heat):
        sol, cs, cfg = _heat_solution(128, 64, snapshot_times=(np.arange(32) + 0.5) / 32)
        _, masses = dissipation_measure(sol, cs)
        assert np.all(masses >= 0.0)
        dt = float(sol.times[1] - sol.times[0])
        book = 0.0
        for snap in sol.snapshots:
            sx = _grid_sx(snap.values, snap.dx, cs)
            book += 0.5 * float(np.sum(sx * sx)) * snap.dx * dt
        assert abs(float(np.sum(masses)) - book) <= 1e-10

    def test_heat_total_mass_close_to_closed_form(self):
        """Total mass vs the closed-form value int_0^1 ||u_x||^2 dt for the
        exact profile Phi(x / sqrt(2t)), which is sqrt(T / (2 pi))."""
        T = 1.0
        mids = (np.arange(128) + 0.5) * T / 128
        sol, cs, cfg = _heat_solution(256, 64, snapshot_times=mids)
        total = float(np.sum(dissipation_measure(sol, cs)[1]))
        closed = np.sqrt(T / (2 * np.pi))
        assert abs(total - closed) / closed <= 0.05

    def test_total_mass_cauchy_under_refinement(self):
        T = 1.0
        mids = (np.arange(128) + 0.5) * T / 128
        totals = {}
        for J in (256, 512):
            sol, cs, cfg = _heat_solution(J, 64, snapshot_times=mids)
            totals[J] = float(np.sum(dissipation_measure(sol, cs)[1]))
        assert abs(totals[256] - totals[512]) / totals[512] <= 0.02

    def test_requires_uniform_time_grid(self, cs_general):
        snaps = tuple(
            GridFunction(-1.0, 1.0, np.full(8, 0.5), validate=False) for _ in range(3)
        )
        sol = SpdeSolution(np.array([0.0, 0.1, 0.5]), snaps, None)
        with pytest.raises(ValueError):
            dissipation_measure(sol, cs_general)


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
        assert entropy_identity_residual(sol, cs, [tf], 0.0, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_decays_under_refinement(self, tf):
        """On the heat run, u(-x) = 1 - u(x): for tf (eta = 0.5, y = 0) every
        term vanishes by symmetry, which the xi rule keeps up to rounding;
        for an asymmetric rho the residual decays with slope at least 0.5."""
        asym = BumpTestFunction(eta=0.4, y=0.3, r_xi=tf.r_xi, r_x=tf.r_x)
        res = {}
        for J, steps in ((128, 64), (256, 128)):
            sol, cs, cfg = _heat_solution(J, steps)
            res[J] = np.abs(entropy_identity_residual(sol, cs, [tf, asym], 0.25, 0.75))
        assert res[128][0] <= 1e-12 and res[256][0] <= 1e-12
        assert res[256][1] <= res[128][1] / np.sqrt(2.0)

    def test_constant_coefficients_vs_chain_rule_scale(self, tf):
        """Cross-diagnostic calibration: the entropy residual at J=512 stays
        below 10x the chain-rule residual at the same resolution."""
        cs = build_from_sources("1", "1", "0.5", 64)
        cfg = SolverConfig(-11.0, 12.0, 512)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        W = sample_path(3, STREAM_COMMON, 1.0, 256)
        sol = solve(u0, cs, W, cfg)
        ent = abs(entropy_identity_residual(sol, cs, [tf], 0.25, 0.75)[0])
        cr = chain_rule_residual(sol.snapshot_at(0.75), cs, [tf], 0.75, sol.path.value_at(0.75))[0]
        assert ent <= 10.0 * cr

    def test_family_equals_single_calls(self, cs_general):
        """A call on a family returns, in order, bit for bit what one call
        per test function returns; an empty family returns []."""
        sol = _small_solution(cs_general)
        tfs = _family_grid()
        family = entropy_identity_residual(sol, cs_general, tfs, 0.125, 0.5)
        singles = [entropy_identity_residual(sol, cs_general, [tf], 0.125, 0.5)[0]
                   for tf in tfs]
        assert _bits(family) == _bits(singles)
        assert len(set(family)) == len(tfs)
        assert entropy_identity_residual(sol, cs_general, [], 0.125, 0.5) == []

    def test_equals_per_snapshot_pairing_reference(self, cs_general):
        """The residuals are bit for bit those rebuilt from `_entropy_terms`
        and a pairing with the dissipation measure's arrays by one d_xi rho
        call per snapshot; the pairings are not zero.  On this solve, adding
        all products at once instead of row sums in order changes the bits
        of 6 of the 8 residuals."""
        cfg = SolverConfig(-16.0, 16.0, 64)
        u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, cfg.cells)
        sol = solve(u0, cs_general, sample_path(4, STREAM_COMMON, 0.5, 32), cfg)
        tfs = _family_grid()
        ref, pairs = _entropy_residuals_per_snapshot(sol, cs_general, tfs, 0.125, 0.5)
        assert all(n_pair != 0.0 for n_pair in pairs)
        assert _bits(entropy_identity_residual(sol, cs_general, tfs, 0.125, 0.5)) == _bits(ref)


def _entropy_residuals_per_snapshot(sol, cs, tfs, s, t):
    """The reference: entropy_identity_residual's terms snapshot by
    snapshot, each test function paired with the dissipation measure by one
    eval_rho call per snapshot; returns the residuals and the pairings."""
    sub, w = _restrict(sol, s, t)
    times, last = sub.times, len(sub.times) - 1
    terms = [_entropy_terms(snap, float(times[k]), float(w[k]), cs, tfs, k in (0, last))
             for k, snap in enumerate(sub.snapshots)]
    xi, masses = dissipation_measure(sub, cs)
    x = sub.snapshots[0].centers()
    out, pairs = [], []
    for i, tf in enumerate(tfs):
        n_pair = 0.0
        for k in range(times.size):
            n_pair += float(np.sum(eval_rho(tf, cs, xi[k], float(times[k]), x, float(w[k])).dxi * masses[k]))
        diffusion = [diff[i] for diff, _ in terms]
        boundary = terms[last][1][i] - terms[0][1][i]
        out.append(-boundary + 0.5 * float(np.trapezoid(diffusion, times)) - n_pair)
        pairs.append(n_pair)
    return out, pairs


def _kinetic_x_first(u, cs, tf, r, w_r, xi_pieces=512, xi_order=8, x_order=8):
    """The reference, for one test function, on the whole line: the double
    integrals int int chi(xi, u) g dx dxi for g = sigma^2 rho_xx, rho and
    sigma rho_x, with u the piecewise linear interpolant of its values
    that `GridFunction.quantiles` inverts, taken x first.  At each xi,
    {x : u(x) > xi} = (x_xi, inf) with x_xi read off u's values by
    np.interp (u is 0 left of its domain and 1 right of it), and the
    x-integral runs on the part of it where the transported x-bump is
    nonzero, on which the bump is a polynomial of degree 8: an
    `x_order`-node Gauss-Legendre rule takes it exactly.  xi runs over an
    `xi_order`-node rule on each piece between k / `xi_pieces`, u's values
    and the ends of the xi-bump's support."""
    xi_nodes, xi_weights = np.polynomial.legendre.leggauss(xi_order)
    x_nodes, x_weights = np.polynomial.legendre.leggauss(x_order)
    anchors = np.concatenate(([u.x_min], u.centers(), [u.x_max]))
    levels = np.concatenate(([0.0], np.clip(u.values, 0.0, 1.0), [1.0]))
    cuts = np.union1d(np.arange(xi_pieces + 1) / xi_pieces, levels)
    cuts = np.union1d(cuts, np.clip([tf.eta - tf.r_xi, tf.eta + tf.r_xi], 0.0, 1.0))
    width = np.diff(cuts)
    xi = (cuts[:-1, None] + 0.5 * width[:, None] * (xi_nodes + 1.0)).ravel()
    w_xi = (0.5 * width[:, None] * xi_weights).ravel() * tf.fxi(xi - tf.eta)
    centre = tf.y + np.asarray(cs.b(xi)) * r + np.asarray(cs.gamma(xi)) * w_r
    lo = np.maximum(np.interp(xi, levels, anchors), centre - tf.r_x)
    hi = np.maximum(lo, centre + tf.r_x)
    xt = (lo - centre)[:, None] + 0.5 * (hi - lo)[:, None] * (x_nodes + 1.0)
    w_x = 0.5 * (hi - lo)[:, None] * x_weights
    sigma = np.asarray(cs.sigma(xi))
    return [float(np.sum(w_xi * sigma * sigma * np.sum(w_x * tf.fx.d2(xt), axis=1))),
            float(np.sum(w_xi * np.sum(w_x * tf.fx(xt), axis=1))),
            float(np.sum(w_xi * sigma * np.sum(w_x * tf.fx.d1(xt), axis=1)))]


# b and gamma of the whole-line cases; sigma goes through sin, and the
# non-affine pair through sin, exp, ^3, ^-2, / and sqrt
_WHOLE_LINE_COEFFICIENTS = {
    "affine": ("a - 0.5", "0.5*(1 + a)"),
    "nonaffine": ("sin(6*a)*exp(a) - a^3/(1.5 - a)", "sqrt(0.2 + a)*(1 + a)^-2 + 0.3*cos(4*a)"),
}


@functools.cache
def _whole_line_cs(name):
    b, gamma = _WHOLE_LINE_COEFFICIENTS[name]
    return build_from_sources(b, "1 + 0.3*sin(5*a)", gamma, 64)


@functools.cache
def _whole_line_state(name):
    """On (-4, 4) with 80 cells: u = 0 on the left cells and 1 on the right
    ones with a ramp between, u = 0 on every cell, a smooth CDF, the same
    CDF from 0.5 to 1, and the smooth CDF held at 0.5 on |x| < 0.5."""
    x = -4.0 + (np.arange(80) + 0.5) * 0.1
    smooth = gaussian(0.2, 0.8).cdf(x)
    values = {
        "ramp": np.clip((x + 1.0) / 2.0, 0.0, 1.0),
        "zero": np.zeros(x.size),
        "smooth": smooth,
        "high": 0.5 + 0.5 * smooth,
        "plateau": np.where(np.abs(x) < 0.5, 0.5, smooth),
    }[name]
    return GridFunction(-4.0, 4.0, values)


def _whole_line_cases():
    edges = [BumpTestFunction(eta=0.1, y=y, r_xi=0.3, r_x=1.0) for y in (-3.9, 3.9)]
    far = BumpTestFunction(eta=0.6, y=40.0, r_xi=0.3, r_x=0.5)
    wide = BumpTestFunction(eta=0.5, y=0.0, r_xi=0.25, r_x=50.0)
    inner = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.0) for eta in (0.2, 0.5) for y in (-0.5, 0.5)]
    return {
        "edges": edges, "far": [far], "wide": [wide], "single": inner[:1], "none": [],
        "family": edges + [far, wide] + inner,
    }


@functools.cache
def _whole_line_reference(state, coefficients, tf, r, w_r):
    return _kinetic_x_first(_whole_line_state(state), _whole_line_cs(coefficients), tf, r, w_r)


class TestWholeLine:
    """The entropy terms and the chain rule's lhs equal the x-first
    integrals (`_kinetic_x_first`) to 1e-7, on the states of
    `_whole_line_state`, a plateau of u included, for bumps across the
    domain's ends, right of it (where u = 1), wider than it and inside it,
    one by one and as one family, at three (t, w_t), on affine and
    non-affine b and gamma; the rules agree to about 1e-8 on these cases."""

    SHIFTS = ((0.0, 0.0), (0.3, -0.7), (0.8, 1.9))

    def _check_entropy_terms(self, coefficients, state, case):
        u, cs, tfs = _whole_line_state(state), _whole_line_cs(coefficients), _whole_line_cases()[case]
        for r, w_r in self.SHIFTS:
            diffusion, boundary = _entropy_terms(u, r, w_r, cs, tfs, True)
            assert _entropy_terms(u, r, w_r, cs, tfs, False) == (diffusion, None)
            want = [_whole_line_reference(state, coefficients, tf, r, w_r)[:2] for tf in tfs]
            np.testing.assert_allclose(np.reshape(list(zip(diffusion, boundary)), (-1, 2)),
                                       np.reshape(want, (-1, 2)), rtol=0.0, atol=1e-7)

    def _check_chain_rule_lhs(self, coefficients, state, case):
        u, cs, tfs = _whole_line_state(state), _whole_line_cs(coefficients), _whole_line_cases()[case]
        for t, w_t in self.SHIFTS:
            lhs = [form[0] for form in chain_rule_forms(u, cs, tfs, t, w_t)]
            want = [_whole_line_reference(state, coefficients, tf, t, w_t)[2] for tf in tfs]
            np.testing.assert_allclose(lhs, want, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("case", ["edges", "far", "wide", "single", "none", "family"])
    @pytest.mark.parametrize("state", ["ramp", "zero", "smooth", "plateau"])
    def test_entropy_terms_equal_the_x_first_integrals(self, state, case):
        self._check_entropy_terms("affine", state, case)

    @pytest.mark.parametrize("case", ["edges", "far", "wide", "single", "none", "family"])
    @pytest.mark.parametrize("state", ["ramp", "zero", "smooth", "plateau"])
    def test_chain_rule_lhs_equals_the_x_first_integral(self, state, case):
        self._check_chain_rule_lhs("affine", state, case)

    @pytest.mark.parametrize("case", ["far", "single", "family"])
    @pytest.mark.parametrize("state", ["ramp", "smooth", "high", "plateau"])
    def test_nonaffine_entropy_terms_equal_the_x_first_integrals(self, state, case):
        self._check_entropy_terms("nonaffine", state, case)

    @pytest.mark.parametrize("case", ["far", "single", "family"])
    @pytest.mark.parametrize("state", ["ramp", "smooth", "high", "plateau"])
    def test_nonaffine_chain_rule_lhs_equals_the_x_first_integral(self, state, case):
        self._check_chain_rule_lhs("nonaffine", state, case)

    @pytest.mark.parametrize("state", ["ramp", "zero", "smooth", "high", "plateau"])
    def test_far_bumps_see_zero_left_and_one_right(self, state):
        """u is 0 left of its domain and 1 right of it: a bump far left
        gives exact zeros; one far right gives the xi-bump's mass 1 as the
        boundary term and exact zeros for the x-derivative terms."""
        u, cs = _whole_line_state(state), _whole_line_cs("nonaffine")
        tfs = [BumpTestFunction(eta=0.6, y=y, r_xi=0.3, r_x=0.5) for y in (-40.0, 40.0)]
        for r, w_r in self.SHIFTS:
            diffusion, boundary = _entropy_terms(u, r, w_r, cs, tfs, True)
            lhs = [form[0] for form in chain_rule_forms(u, cs, tfs, r, w_r)]
            assert diffusion == [0.0, 0.0] and lhs == [0.0, 0.0] and boundary[0] == 0.0
            assert boundary[1] == pytest.approx(1.0, abs=1e-12)


class TestKineticRule:
    """The xi rule of every kinetic integral (`_kinetic_rule`)."""

    STATES = ["ramp", "zero", "smooth", "high", "plateau"]

    @pytest.mark.parametrize("state", STATES)
    def test_breaks_at_every_level_of_u_and_every_k_over_256(self, state):
        """The weights below each k / 256 and each value of u sum to that
        level, as only a breakpoint there allows, and all of them to 1."""
        u = _whole_line_state(state)
        nodes, weights, _ = _kinetic_rule(u)
        assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0
        levels = np.union1d(np.arange(257) / 256, np.clip(u.values, 0.0, 1.0))
        below = np.array([np.sum(weights[nodes < v]) for v in levels])
        np.testing.assert_allclose(below, levels, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("state", STATES)
    def test_quantile_integral_is_the_exact_one(self, state):
        """int_0^1 q dxi = x_max - int u dx, with u piecewise linear through
        its values, 0 at x_min and 1 at x_max: exact on the rule, a jump of
        q at a plateau included."""
        u = _whole_line_state(state)
        _, weights, q = _kinetic_rule(u)
        anchors = np.concatenate(([u.x_min], u.centers(), [u.x_max]))
        levels = np.concatenate(([0.0], np.clip(u.values, 0.0, 1.0), [1.0]))
        assert float(np.sum(weights * q)) == pytest.approx(u.x_max - np.trapezoid(levels, anchors), abs=1e-12)


def test_entropy_terms_build_each_bump_factor_once_per_key(cs_general, monkeypatch):
    """On a family of three xi-centres by three x-centres, one snapshot's
    terms evaluate three xi-bumps and three fx' on every node of the xi
    rule, and three tails only with the boundary term."""
    u = grid_cdf(gaussian(0.0, 1.0), -16.0, 16.0, 128)
    tfs = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.5) for eta in (0.3, 0.5, 0.7) for y in (-0.5, 0.0, 0.5)]
    nodes = _kinetic_rule(u)[0].size
    calls = {"bump": [], "bump_d1": [], "bump_d2": [], "tail_integral": []}
    for name in ("bump", "bump_d1", "bump_d2"):
        monkeypatch.setattr(bumps, name, lambda s, f=getattr(bumps, name), n=calls[name]: n.append(np.size(s)) or f(s))
    tail = Bump1D.tail_integral
    monkeypatch.setattr(Bump1D, "tail_integral",
                        lambda self, x: calls["tail_integral"].append(np.size(x)) or tail(self, x))
    for boundary, tails in ((False, []), (True, [nodes] * 3)):
        for points in calls.values():
            points.clear()
        _entropy_terms(u, 0.3, -0.7, cs_general, tfs, boundary)
        assert calls == {"bump": [nodes] * 3, "bump_d1": [nodes] * 3, "bump_d2": [], "tail_integral": tails}


def test_pole_is_rejected_at_build():
    """A pole of b at 0.30078125 = 192.5/640, between the points k/640
    on which validation once sampled b at K = 64, is a cut k / PIECES:
    the enclosure of the piece below it is the whole line, and the
    build names b and that piece."""
    assert 0.30078125 * PIECES == 308
    msg = "coefficient b = '0.1/(a - 0.30078125)' is not bounded on piece 307 of 1024, [0.29980469, 0.30078125]"
    with pytest.raises(ValidationError, match=re.escape(msg)):
        build_from_sources("0.1/(a - 0.30078125)", "1 + 0.3*sin(5*a)", "0.5*(1 + a)", 64)


def _weak_form_per_snapshot(sol, cs, fs, s, t):
    """The reference: weak_form_residual with one transform call per
    snapshot."""
    first = sol.snapshots[0]
    sub, w = _restrict(sol, s, t)
    centers, dx = first.centers(), first.dx
    derivs = [(f.d1(centers), f.d2(centers)) for f in fs]
    times, dw = sub.times, np.diff(w)
    drift = np.empty((times.size, len(fs)))
    noise_coef = np.empty((times.size - 1, len(fs)))
    for i, snap in enumerate(sub.snapshots):
        uv = np.clip(snap.values, 0.0, 1.0)
        Bu = cs.eval_transform("B", uv)
        Du = cs.eval_transform("Sigma", uv) + cs.eval_transform("Gamma", uv)
        drift[i] = [float(np.sum(Bu * f1 + Du * f2) * dx) for f1, f2 in derivs]
        if i < dw.size:
            Gu = cs.eval_transform("G", uv)
            noise_coef[i] = [float(np.sum(Gu * f1) * dx) for f1, _ in derivs]
    out = []
    for f, drift_f, noise_f in zip(fs, drift.T, noise_coef.T):
        fv = f(centers)
        pairing_s = float(np.sum(sub.snapshots[0].values * fv) * dx)
        pairing_t = float(np.sum(sub.snapshots[-1].values * fv) * dx)
        out.append(abs(pairing_t - pairing_s - float(np.trapezoid(drift_f, times)) - float(np.sum(noise_f * dw))))
    return out


def _dissipation_per_snapshot(sol, cs):
    """The reference: the xi and masses of dissipation_measure with one S
    call per snapshot; xi is each u(t_k, x_j) clipped to [0, 1]."""
    dt = float(sol.times[1] - sol.times[0])
    xi, masses = [], []
    for snap in sol.snapshots:
        sx = np.gradient(cs.eval_transform("S", np.clip(snap.values, 0.0, 1.0)), snap.dx)
        masses.append(0.5 * sx * sx * snap.dx * dt)
        xi.append(np.clip(snap.values, 0.0, 1.0))
    return np.array(xi), np.array(masses)


class TestGroupedTransforms:
    """The weak form and the dissipation measure evaluate each transform in
    one call on their stacked snapshots, bit for bit the values of one call
    per snapshot.  33 snapshots are 2112 points at J = 64, 3168 at J = 96
    and 33792 at J = 1024, so `eval_transform` splits the calls into blocks
    of 2048 points: on snapshot boundaries at J = 64 and 1024, across them
    at J = 96."""

    @staticmethod
    def _solution(cs, J):
        cfg = SolverConfig(-16.0, 16.0, J)
        u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, J)
        return solve(u0, cs, sample_path(5, STREAM_COMMON, 0.5, 32), cfg)

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {}
        plain = CoefficientSet.eval_transform

        def counted(cs, which, r):
            calls[which] = calls.get(which, 0) + 1
            return plain(cs, which, r)

        monkeypatch.setattr(CoefficientSet, "eval_transform", counted)
        return calls

    @pytest.mark.parametrize("J", [64, 96, 1024])
    def test_weak_form_equals_per_snapshot_calls(self, cs_general, J, monkeypatch):
        sol = self._solution(cs_general, J)
        assert len(sol.snapshots) == 33
        fs = [Bump1D(y, r) for y in (-0.5, 0.5) for r in (1.0, 1.5)]
        for s, t in ((0.0, 0.5), (0.125, 0.375)):
            ref = _weak_form_per_snapshot(sol, cs_general, fs, s, t)
            calls = self._count_calls(monkeypatch)
            assert _bits(weak_form_residual(sol, cs_general, fs, s, t)) == _bits(ref)
            monkeypatch.undo()
            assert calls == {"B": 1, "Sigma": 1, "Gamma": 1, "G": 1}

    @pytest.mark.parametrize("J", [64, 96, 1024])
    def test_dissipation_measure_equals_per_snapshot_calls(self, cs_general, J, monkeypatch):
        sol = self._solution(cs_general, J)
        ref_xi, ref_masses = _dissipation_per_snapshot(sol, cs_general)
        calls = self._count_calls(monkeypatch)
        xi, masses = dissipation_measure(sol, cs_general)
        assert masses.tobytes() == ref_masses.tobytes()
        assert xi.tobytes() == ref_xi.tobytes()
        assert calls == {"S": 1}


class TestWeakForm:
    def test_zero_test_function(self, cs_general):
        class ZeroF:
            def __call__(self, x):
                return np.zeros_like(x)

            d1 = d2 = __call__

            def support(self):
                return (-0.5, 0.5)

        sol, cs, cfg = _heat_solution(64, 16)
        assert weak_form_residual(sol, cs, [ZeroF()], 0.0, 1.0) == [0.0]

    def test_zero_coefficient_run(self, tf):
        cs = build_from_sources("0", "0", "0", 16, allow_degenerate=True)
        cfg = SolverConfig(-3.0, 3.0, 48)
        vals = (cfg.centers() >= 0).astype(float)
        u0 = GridFunction(cfg.x_min, cfg.x_max, vals)
        W = sample_path(2, STREAM_COMMON, 1.0, 8)
        sol = solve(u0, cs, W, cfg)
        f = Bump1D(0.0, 1.5)
        assert weak_form_residual(sol, cs, [f], 0.0, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

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
            res[J] = weak_form_residual(sol, cs, [f], 0.25, 0.75)[0]
        assert res[128] / res[256] >= 2.0
        assert res[256] / res[512] >= 2.0

    def test_family_equals_single_calls(self, cs_general):
        """A call on a family returns, in order, bit for bit what one call
        per f returns; an empty family returns []."""
        sol = _small_solution(cs_general)
        fs = [Bump1D(y, r) for y in (-0.5, 0.5) for r in (1.0, 1.5)]
        family = weak_form_residual(sol, cs_general, fs, 0.125, 0.5)
        singles = [weak_form_residual(sol, cs_general, [f], 0.125, 0.5)[0] for f in fs]
        assert _bits(family) == _bits(singles)
        assert len(set(family)) == len(fs)
        assert weak_form_residual(sol, cs_general, [], 0.125, 0.5) == []

    def test_window_read_with_the_solves_tolerance(self):
        """For T > 1, s and t within 1e-9 T of a snapshot node are that
        node, as in the solve, although the last snapshot time is below T."""
        cs = build_from_sources("0", "0.3", "0.2", 64)
        cfg = SolverConfig(-12.0, 12.0, 64)
        u0 = grid_cdf(point_mass(0.0), cfg.x_min, cfg.x_max, cfg.cells)
        sol = solve(u0, cs, sample_path(1, 2, 4.0, 8), cfg, snapshot_times=[0.0, 0.5, 1.0])
        fs = [Bump1D(0.0, 1.0)]
        exact = weak_form_residual(sol, cs, fs, 0.5, 1.0)
        assert _bits(weak_form_residual(sol, cs, fs, 0.5 - 3e-9, 1.0 + 3e-9)) == _bits(exact)

    def test_support_must_be_inside_domain(self, cs_general):
        """Checked before any other work: s = 0.3 is no snapshot time, yet
        the error is the support's."""
        sol, cs, cfg = _heat_solution(64, 16)
        with pytest.raises(ValueError, match="support"):
            weak_form_residual(sol, cs, [Bump1D(0.0, 1.0), Bump1D(0.0, 100.0)], 0.3, 1.0)
        with pytest.raises(ValueError, match="support"):
            weak_form_residual(sol, cs, [Bump1D(0.0, 1.0), Bump1D(0.0, 100.0)], 0.0, 1.0)
