"""Transported test functions, chain rule, co-area, dissipation measure,
entropy identity, and weak form."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import quad

from rankflow import bumps, experiments
from rankflow.bumps import BUMP_L1, Bump1D, bump, bump_d1, bump_d2
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
from rankflow.diagnostics import (_GROUP_POINTS, _XI_BINS, _XI_ORDER, _entropy_terms, _grid_sx, _reach, _restrict,
                                 _row_groups, _shift, _shift_range, _windowed_quadrature, _xi_rule)
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
    return solve(u0, cs, W, cfg, snapshot_times=snapshot_times), cs, cfg


def _cell_quadrature(uv):
    """Nodes and weights of the per-cell Gauss-Legendre rule on [0, u_j],
    shape (256, cells), on every column."""
    nodes01, weights01 = _xi_rule()
    return nodes01[:, None] * uv[None, :], weights01[:, None] * uv[None, :]


# the closed forms the factors had before they were Bump1D(0, r): bump(x /
# r) / (BUMP_L1 r^k), k = 1, 2, 3
_OLD_FACTORS = (
    ("fx", "r_x", lambda x, r: bump(np.asarray(x) / r) / (BUMP_L1 * r)),
    ("fx.d1", "r_x", lambda x, r: bump_d1(np.asarray(x) / r) / (BUMP_L1 * r**2)),
    ("fx.d2", "r_x", lambda x, r: bump_d2(np.asarray(x) / r) / (BUMP_L1 * r**3)),
    ("fxi", "r_xi", lambda x, r: bump(np.asarray(x) / r) / (BUMP_L1 * r)),
    ("fxi.d1", "r_xi", lambda x, r: bump_d1(np.asarray(x) / r) / (BUMP_L1 * r**2)),
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
    closed forms they replaced, in value, type, shape and dtype."""
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
        u = GridFunction(-1.0, 1.0, np.zeros(64), validate=False)
        assert chain_rule_residual(u, cs_general, [tf], 0.3, 0.1) == [0.0]

    def test_identity_ramp_value_and_residual(self, tf):
        # sigma = 1, b = 0, gamma = 1, t = 0: all three forms equal
        # -int_0^1 rho0(xi - y, xi - eta) dxi
        cs = build_from_sources("0", "1", "1", 64)
        u = _identity_ramp(512)
        [(lhs, rhs, qform)] = chain_rule_forms(u, cs, [tf], 0.0, 0.0)
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
        [(lhs, rhs, qform)] = chain_rule_forms(u, cs_general, [tf], 0.5, W.values[-1])
        assert lhs == pytest.approx(qform, abs=5e-3)
        assert rhs == pytest.approx(qform, abs=5e-3)

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
        assert residuals == [abs(lhs - rhs) for lhs, rhs, _ in family]
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
        res = {}
        for J, steps in ((128, 64), (256, 128)):
            sol, cs, cfg = _heat_solution(J, steps)
            res[J] = abs(entropy_identity_residual(sol, cs, [tf], 0.25, 0.75)[0])
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
    buf = np.zeros((_XI_ORDER, sub.snapshots[0].cells))
    terms = [_entropy_terms(snap, float(times[k]), float(w[k]), cs, tfs, k in (0, last), buf)
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


def _entropy_terms_full_grid(snap, r, w_r, cs, tfs):
    """The reference: _entropy_terms evaluated on every node of the (256,
    cells) quadrature, as it was before the column window."""
    x = snap.centers()[None, :]
    nodes, weights = _cell_quadrature(np.clip(snap.values, 0.0, 1.0))
    shift = _shift(cs, nodes, r, w_r)
    sig2 = np.asarray(cs.sigma(nodes)) ** 2
    diffusion, boundary = [], []
    for tf in tfs:
        xt, fxi = (x - tf.y) - shift, tf.fxi(nodes - tf.eta)
        diffusion.append(float(np.sum(weights * (sig2 * (tf.fx.d2(xt) * fxi))) * snap.dx))
        boundary.append(float(np.sum(weights * (tf.fx(xt) * fxi)) * snap.dx))
    return diffusion, boundary


def _chain_lhs_full_grid(u, cs, tfs, t, w_t):
    """The reference: the lhs of chain_rule_forms on every quadrature node."""
    x = u.centers()
    nodes, weights = _cell_quadrature(np.clip(u.values, 0.0, 1.0))
    shift = _shift(cs, nodes, t, w_t)
    w_sig = weights * np.asarray(cs.sigma(nodes))
    return [float(np.sum(w_sig * (tf.fx.d1((x[None, :] - tf.y) - shift) * tf.fxi(nodes - tf.eta)))
                  * u.dx) for tf in tfs]


# b and gamma of the column-window tests beyond affine ones; sigma is the
# affine case's
_WINDOW_COEFFICIENTS = {
    # through sin, exp, ^3, ^-2, / and sqrt
    "nonaffine": ("sin(6*a)*exp(a) - a^3/(1.5 - a)", "sqrt(0.2 + a)*(1 + a)^-2 + 0.3*cos(4*a)"),
}


def _window_cs(name):
    b, gamma = _WINDOW_COEFFICIENTS[name]
    return build_from_sources(b, "1 + 0.3*sin(5*a)", gamma, 64)


class TestColumnWindow:
    """The entropy and chain-rule quadratures run only on the columns the
    x-bumps can reach; each value equals the full-grid one bit for bit.
    The window is read off certified enclosures of b and gamma, so it holds
    every column the full grid's shift reaches; it is checked on affine and
    non-affine coefficients, and on enclosures with infinite ends put in
    by hand, which no coefficient set that builds has."""

    DOMAIN = (-4.0, 4.0)

    @pytest.fixture(scope="class")
    def cs(self):
        # sigma through sin, so that an evaluation of the coefficient that
        # rounds differently on the window could show in the bits
        return build_from_sources("a - 0.5", "1 + 0.3*sin(5*a)", "0.5*(1 + a)", 64)

    @pytest.fixture(scope="class", params=sorted(_WINDOW_COEFFICIENTS))
    def cs_nonaffine(self, request):
        return _window_cs(request.param)

    @pytest.fixture(scope="class")
    def snaps(self):
        """u = 0 on the left cells and u = 1 on the right ones (a ramp), a
        state that is 0 everywhere, a smooth CDF, and a smooth CDF from 0.5
        to 1."""
        x_min, x_max = self.DOMAIN
        J = 80
        centers = x_min + (np.arange(J) + 0.5) * (x_max - x_min) / J
        smooth = gaussian(0.2, 0.8).cdf(centers)
        return {
            "ramp": GridFunction(x_min, x_max, np.clip((centers + 1.0) / 2.0, 0.0, 1.0)),
            "zero": GridFunction(x_min, x_max, np.zeros(J)),
            "smooth": GridFunction(x_min, x_max, smooth),
            "high": GridFunction(x_min, x_max, 0.5 + 0.5 * smooth),
        }

    def _cases(self):
        edge = [BumpTestFunction(eta=0.1, y=y, r_xi=0.3, r_x=1.0) for y in (-3.9, 3.9)]
        empty = BumpTestFunction(eta=0.6, y=40.0, r_xi=0.3, r_x=0.5)
        wide = BumpTestFunction(eta=0.5, y=0.0, r_xi=0.25, r_x=50.0)
        inner = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.0) for eta in (0.2, 0.5) for y in (-0.5, 0.5)]
        return {
            "edges": edge, "empty": [empty], "wide": [wide], "single": inner[:1], "none": [],
            "family": edge + [empty, wide] + inner,
        }

    @staticmethod
    def _check_entropy_terms(snap, cs, tfs):
        buf = np.zeros((256, snap.cells))
        for r, w_r in ((0.0, 0.0), (0.3, -0.7), (0.8, 1.9)):
            got = _entropy_terms(snap, r, w_r, cs, tfs, True, buf)
            assert got == _entropy_terms_full_grid(snap, r, w_r, cs, tfs)
            assert not buf.any()  # zero again for the next snapshot
            diffusion, none = _entropy_terms(snap, r, w_r, cs, tfs, False, buf)
            assert diffusion == got[0] and none is None

    @staticmethod
    def _check_chain_rule_lhs(u, cs, tfs):
        for t, w_t in ((0.0, 0.0), (0.3, -0.7), (0.8, 1.9)):
            lhs = [form[0] for form in chain_rule_forms(u, cs, tfs, t, w_t)]
            assert lhs == _chain_lhs_full_grid(u, cs, tfs, t, w_t)

    @pytest.mark.parametrize("case", ["edges", "empty", "wide", "single", "none", "family"])
    @pytest.mark.parametrize("name", ["ramp", "zero", "smooth"])
    def test_entropy_terms_equal_full_grid(self, cs, snaps, name, case):
        self._check_entropy_terms(snaps[name], cs, self._cases()[case])

    @pytest.mark.parametrize("case", ["edges", "empty", "wide", "single", "none", "family"])
    @pytest.mark.parametrize("name", ["ramp", "zero", "smooth"])
    def test_chain_rule_lhs_equals_full_grid(self, cs, snaps, name, case):
        self._check_chain_rule_lhs(snaps[name], cs, self._cases()[case])

    @pytest.mark.parametrize("case", ["empty", "single", "family"])
    @pytest.mark.parametrize("name", ["ramp", "smooth", "high"])
    def test_nonaffine_entropy_terms_equal_full_grid(self, cs_nonaffine, snaps, name, case):
        self._check_entropy_terms(snaps[name], cs_nonaffine, self._cases()[case])

    @pytest.mark.parametrize("case", ["empty", "single", "family"])
    @pytest.mark.parametrize("name", ["ramp", "smooth", "high"])
    def test_nonaffine_chain_rule_lhs_equals_full_grid(self, cs_nonaffine, snaps, name, case):
        self._check_chain_rule_lhs(snaps[name], cs_nonaffine, self._cases()[case])

    @staticmethod
    def _check_window_holds_exact(snap, cs, tfs, t, w_t):
        """The window holds the one read off the full grid's shift range
        (np.fmin/np.fmax skip a NaN shift, whose bump value is 0), and the
        shift kept on it is the full grid's there, byte for byte."""
        x = snap.centers()
        nodes, _ = _cell_quadrature(np.clip(snap.values, 0.0, 1.0))
        shift = _shift(cs, nodes, t, w_t)
        exact = _reach(x, np.fmin.reduce(shift, axis=0), np.fmax.reduce(shift, axis=0), tfs)
        cols, _, _, _, got = _windowed_quadrature(snap, cs, tfs, t, w_t)
        if exact.stop > exact.start:
            assert cols.start <= exact.start and exact.stop <= cols.stop
        assert got.tobytes() == np.ascontiguousarray(shift[:, cols]).tobytes()
        return cols, exact

    def test_windows(self, cs, snaps):
        """The edge bumps reach the first and the last cell, the far bump
        none, the wide bump all; the nonzero cases above are not vacuous."""
        snap, cases = snaps["smooth"], self._cases()
        x = snap.centers()
        nodes, _ = _cell_quadrature(snap.values)
        shift = _shift(cs, nodes, 0.3, -0.7)
        lo, hi = shift.min(axis=0), shift.max(axis=0)
        J = snap.cells
        assert _reach(x, lo, hi, cases["empty"]) == slice(0, 0)
        assert _reach(x, lo, hi, cases["none"]) == slice(0, 0)
        assert _reach(x, lo, hi, cases["wide"]) == slice(0, J)
        assert _reach(x, lo, hi, cases["edges"][:1]).start == 0
        assert _reach(x, lo, hi, cases["edges"][1:]).stop == J
        inner = _reach(x, lo, hi, cases["single"])
        assert 0 < inner.start and inner.stop < J
        # the window holds the exact one read off the full-grid range, and
        # the shift evaluated on the window alone is the full grid's there;
        # for affine b and gamma it is at most two columns wider per side
        for tfs in cases.values():
            cols, exact = self._check_window_holds_exact(snap, cs, tfs, 0.3, -0.7)
            assert cols == exact or (exact.start - cols.start <= 2 and cols.stop - exact.stop <= 2)
        assert _windowed_quadrature(snap, cs, cases["empty"], 0.3, -0.7)[0] == slice(0, 0)
        diffusion, boundary = _entropy_terms(snap, 0.3, -0.7, cs, cases["family"], True,
                                             np.zeros((256, J)))
        assert diffusion[2] == boundary[2] == 0.0  # the far bump
        assert all(v != 0.0 for k, v in enumerate(diffusion + boundary) if k % len(diffusion) != 2)

    @pytest.mark.parametrize("name", ["ramp", "zero", "smooth", "high"])
    def test_nonaffine_windows_hold_the_exact_window(self, cs_nonaffine, snaps, name):
        for tfs in self._cases().values():
            for t, w_t in ((0.0, 0.0), (0.3, -0.7), (0.8, 1.9)):
                self._check_window_holds_exact(snaps[name], cs_nonaffine, tfs, t, w_t)

    def test_pole_is_rejected_at_build(self):
        """A pole of b at 0.30078125 = 192.5/640, between the points k/640
        on which validation once sampled b at K = 64, is a cut k / PIECES:
        the enclosure of the piece below it is the whole line, and the
        build names b and that piece."""
        assert 0.30078125 * PIECES == 308
        msg = "coefficient b = '0.1/(a - 0.30078125)' is not bounded on piece 307 of 1024, [0.29980469, 0.30078125]"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            build_from_sources("0.1/(a - 0.30078125)", "1 + 0.3*sin(5*a)", "0.5*(1 + a)", 64)

    def test_infinite_enclosure_gives_the_full_window(self, cs, snaps):
        """Where [0, u_j] holds a piece on which b is enclosed by the whole
        line, the column's shift interval is (-inf, inf), also at t = 0,
        where 0 * inf is NaN: every column of the state past that piece is
        in the window, even for the far bump, and nothing raises.  A NaN
        u_j gives (-inf, inf) as well."""
        lo, hi = (np.array(end) for end in cs.enclosures["b"])
        lo[307:309], hi[307:309] = -np.inf, np.inf
        cs = dataclasses.replace(cs, enclosures={**cs.enclosures, "b": (lo, hi)})
        snap = snaps["high"]
        uv = np.clip(snap.values, 0.0, 1.0)
        for t, w_t in ((0.0, 0.0), (0.3, -0.7)):
            lo, hi = _shift_range(cs, uv, t, w_t)
            assert np.all(lo == -np.inf) and np.all(hi == np.inf)
            for tfs in self._cases().values():
                cols = _windowed_quadrature(snap, cs, tfs, t, w_t)[0]
                assert cols == (slice(0, snap.cells) if tfs else slice(0, 0))
        lo, hi = _shift_range(cs, np.array([0.1, np.nan, 0.2]), 0.3, -0.7)
        assert np.isfinite(lo[[0, 2]]).all() and np.isfinite(hi[[0, 2]]).all()
        assert (lo[1], hi[1]) == (-np.inf, np.inf)


def test_entropy_bump_d2_points_on_the_window_only(cs_general, monkeypatch):
    """The entropy pass evaluates bump_d2 on at most a quarter of the full
    (snapshots x distinct (y, r_x) x 256 x cells) grid on a diagnose-like
    run; a pass that drops the column window evaluates all of it.  The walk
    runs on one CPU, so that every call reaches the list here."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    cfg = SolverConfig(-16.0, 16.0, 128)
    u0 = grid_cdf(gaussian(0.0, 1.0), cfg.x_min, cfg.x_max, cfg.cells)
    sol = solve(u0, cs_general, sample_path(5, STREAM_COMMON, 0.5, 16), cfg)
    tfs = [BumpTestFunction(eta=eta, y=y, r_xi=0.3, r_x=1.5)
           for eta in (0.3, 0.5, 0.7) for y in (-0.5, 0.0, 0.5)]
    points = []
    monkeypatch.setattr(bumps, "bump_d2", lambda s: points.append(np.size(s)) or bump_d2(s))
    entropy_identity_residual(sol, cs_general, tfs, 0.25, 0.5)
    full_grid = 9 * 3 * 256 * cfg.cells  # snapshots 0.25 ... 0.5, distinct y
    assert len(points) == 9 * 3
    assert 0 < sum(points) <= full_grid / 4


def test_xi_rule_is_leggauss_256_mapped_to_the_unit_interval():
    """The cached rule is leggauss(256) mapped to [0, 1] bit for bit, one
    read-only pair shared by every caller."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(256)
    nodes01, weights01 = _xi_rule()
    assert _XI_ORDER == 256
    assert nodes01.tobytes() == (0.5 * (gl_nodes + 1.0)).tobytes()
    assert weights01.tobytes() == (0.5 * gl_weights).tobytes()
    assert not nodes01.flags.writeable and not weights01.flags.writeable
    assert _xi_rule()[0] is nodes01


def _weak_form_per_snapshot(sol, cs, fs, s, t):
    """The reference: weak_form_residual with one transform call per
    snapshot, as before the snapshots were grouped."""
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
    call per snapshot, as before the snapshots were grouped; xi is the
    centre of the bin of each u(t_k, x_j)."""
    edges = np.linspace(0.0, 1.0, _XI_BINS + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    dt = float(sol.times[1] - sol.times[0])
    xi, masses = [], []
    for snap in sol.snapshots:
        sx = np.gradient(cs.eval_transform("S", np.clip(snap.values, 0.0, 1.0)), snap.dx)
        masses.append(0.5 * sx * sx * snap.dx * dt)
        xi.append(centres[np.clip(np.digitize(snap.values, edges) - 1, 0, _XI_BINS - 1)])
    return np.array(xi), np.array(masses)


class TestGroupedTransforms:
    """The weak form and the dissipation measure evaluate each transform on
    groups of stacked snapshots, one call per group, bit for bit the values
    of one call per snapshot.  33 snapshots at J = 64 are a group of 32 and
    one of the t snapshot alone, where the weak form reads no G; at J = 96
    they are a group of 21 and a partial one of 12."""

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

    @pytest.mark.parametrize("J", [64, 96])
    def test_weak_form_equals_per_snapshot_calls(self, cs_general, J, monkeypatch):
        sol = self._solution(cs_general, J)
        assert len(sol.snapshots) == 33
        fs = [Bump1D(y, r) for y in (-0.5, 0.5) for r in (1.0, 1.5)]
        for s, t in ((0.0, 0.5), (0.125, 0.375)):
            ref = _weak_form_per_snapshot(sol, cs_general, fs, s, t)
            calls = self._count_calls(monkeypatch)
            assert _bits(weak_form_residual(sol, cs_general, fs, s, t)) == _bits(ref)
            monkeypatch.undo()
            rows = _GROUP_POINTS // J
            snapshots = round((t - s) * 64) + 1
            groups, g_groups = -(-snapshots // rows), -(-(snapshots - 1) // rows)
            assert calls == {"B": groups, "Sigma": groups, "Gamma": groups, "G": g_groups}

    @pytest.mark.parametrize("J", [64, 96])
    def test_dissipation_measure_equals_per_snapshot_calls(self, cs_general, J, monkeypatch):
        sol = self._solution(cs_general, J)
        ref_xi, ref_masses = _dissipation_per_snapshot(sol, cs_general)
        calls = self._count_calls(monkeypatch)
        xi, masses = dissipation_measure(sol, cs_general)
        assert masses.tobytes() == ref_masses.tobytes()
        assert xi.tobytes() == ref_xi.tobytes()
        assert calls == {"S": -(-33 // (_GROUP_POINTS // J))}

    def test_row_groups(self):
        assert _row_groups(33, 64) == [slice(0, 32), slice(32, 64)]
        assert _row_groups(33, 96) == [slice(0, 21), slice(21, 42)]
        assert _row_groups(32, 64) == [slice(0, 32)]
        # a state wider than a group is a group of its own
        assert _row_groups(3, _GROUP_POINTS + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]


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
