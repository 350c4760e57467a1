"""CDF representations, Wasserstein-1, quantiles, initial distributions."""

import itertools

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from rankflow.measures import (
    EmptyInputError,
    GridFunction,
    empirical_cdf,
    gaussian,
    grid_cdf,
    l1_cdf_distance,
    mixture,
    ndtr,
    point_mass,
    uniform,
    w1,
)


def _ramp_grid(x_min=-1.0, x_max=2.0, cells=300):
    dx = (x_max - x_min) / cells
    centers = x_min + (np.arange(cells) + 0.5) * dx
    return GridFunction(x_min, x_max, np.clip(centers, 0.0, 1.0))


class TestEmpiricalCdf:
    def test_single_point(self):
        F = empirical_cdf([0.0])
        assert F.value(-1.0) == 0.0
        assert F.value(0.0) == 1.0

    def test_rank_fractions_at_order_statistics(self):
        F = empirical_cdf([3.0, 1.0, 4.0, 2.0])
        for ell, x in enumerate(sorted([3.0, 1.0, 4.0, 2.0]), start=1):
            assert F.value(x) == ell / 4

    def test_ties_share_count(self):
        assert empirical_cdf([1.0, 1.0]).value(1.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            empirical_cdf([])


class TestW1:
    def test_point_masses(self):
        assert w1(empirical_cdf([0.0]), empirical_cdf([1.0])) == pytest.approx(1.0)

    def test_identity(self):
        F = empirical_cdf([0.3, 1.7, -2.0])
        assert w1(F, F) == 0.0

    def test_two_point_clouds(self):
        # brute-force minimum over couplings of {0,2} and {1,3} is 1
        xs, ys = np.array([0.0, 2.0]), np.array([1.0, 3.0])
        best = min(
            np.mean(np.abs(xs - ys[list(p)])) for p in itertools.permutations(range(2))
        )
        assert best == 1.0
        assert w1(empirical_cdf(xs), empirical_cdf(ys)) == pytest.approx(1.0)

    def test_equal_size_sorted_formula_and_assignment_oracle(self):
        rng = np.random.default_rng(20240519)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            xs, ys = rng.normal(size=n), rng.normal(size=n)
            got = w1(empirical_cdf(xs), empirical_cdf(ys))
            sorted_formula = np.mean(np.abs(np.sort(xs) - np.sort(ys)))
            oracle = min(
                np.mean(np.abs(xs - ys[list(p)])) for p in itertools.permutations(range(n))
            )
            assert got == pytest.approx(sorted_formula, abs=1e-12)
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            F = empirical_cdf(rng.normal(size=rng.integers(1, 6)))
            G = empirical_cdf(rng.normal(size=rng.integers(1, 6)))
            H = empirical_cdf(rng.normal(size=rng.integers(1, 6)))
            dfg, dgf = w1(F, G), w1(G, F)
            assert dfg == pytest.approx(dgf, abs=1e-14)
            assert dfg >= 0.0
            assert w1(F, H) <= dfg + w1(G, H) + 1e-12


class TestQuantile:
    def test_identity_ramp(self):
        assert _ramp_grid().quantiles(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_grid_quantiles_vectorized(self):
        g = _ramp_grid()
        xi = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(g.quantiles(xi), xi, atol=1e-12)


class TestL1CdfDistance:
    def test_grid_vs_own_samples_zero(self):
        g = _ramp_grid()
        # the grid CDF against itself via a step CDF with the same law is
        # not zero, but the distance of a grid function to itself is
        assert w1(g, g) == 0.0

    def test_shifted_heaviside(self):
        h = 0.25
        cells = 400
        dx = 4.0 / cells
        centers = -2.0 + (np.arange(cells) + 0.5) * dx
        u = GridFunction(-2.0, 2.0, (centers >= 0.0).astype(float))
        F = empirical_cdf([h])
        # the PL anchor ramp around the jump contributes O(dx) quadrature
        assert l1_cdf_distance(u, F) == pytest.approx(h, abs=2 * dx)

    def test_against_dense_riemann_oracle(self):
        rng = np.random.default_rng(15)
        g = grid_cdf(gaussian(0.0, 1.0), -6.0, 6.0, 200)
        for _ in range(5):
            F = empirical_cdf(rng.normal(size=5))
            # dense grid, refined at the step discontinuities so the
            # trapezoid oracle is not limited by the jumps themselves
            xs = np.union1d(
                np.linspace(-8.0, 8.0, 1_000_001),
                np.concatenate([F.points, F.points - 1e-12]),
            )
            riemann = np.trapezoid(np.abs(g.value(xs) - F.value(xs)), xs)
            assert l1_cdf_distance(g, F) == pytest.approx(riemann, abs=1e-6)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, np.array([0.5, 0.2]))  # decreasing
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, np.array([-0.5, 0.2]))  # out of range
        with pytest.raises(ValueError):
            GridFunction(1.0, 0.0, np.array([0.1, 0.2]))

    def test_nan_values_rejected(self):
        """NaN fails the range and monotonicity checks; validate=False still
        stores solver output verbatim."""
        for vals in ([0.0, np.nan, 1.0], [np.nan], [0.0, 0.5, np.nan]):
            with pytest.raises(ValueError, match="CDF values must lie in"):
                GridFunction(-1.0, 1.0, np.array(vals))
        raw = np.array([0.0, np.nan, 1.0])
        assert GridFunction(-1.0, 1.0, raw, validate=False).values.tobytes() == raw.tobytes()

    def test_extension(self):
        g = _ramp_grid()
        assert g.value(-5.0) == 0.0
        assert g.value(5.0) == 1.0


class TestNdtr:
    """The Cephes port against scipy.special.ndtr, which runs the same
    algorithm in C.  For |a| < sqrt(2) it uses only + - * / and the bits are
    equal; beyond, erfc takes exp(-a^2/2), and numpy's SIMD exp is not
    libm's: 3 ulp is the largest difference seen on [-38, 38], and the test
    allows 4."""

    ULPS = 4

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        a = np.concatenate((np.linspace(-38.0, 38.0, 1_000_001), rng.uniform(-38.0, 38.0, 10**6)))
        got, want = ndtr(a), scipy_ndtr(a)
        assert np.all(got >= 0.0) and np.all(want >= 0.0)
        exact = np.abs(a) < np.sqrt(2.0)
        assert got[exact].tobytes() == want[exact].tobytes()
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= self.ULPS

    def test_ends_and_shapes(self):
        got = ndtr(np.array([[-np.inf, np.inf, 0.0], [-40.0, 40.0, np.nan]]))
        assert got.shape == (2, 3)
        assert list(got[0]) == [0.0, 1.0, 0.5]
        assert got[1, 0] == scipy_ndtr(-40.0) and got[1, 1] == 1.0 and np.isnan(got[1, 2])
        assert isinstance(ndtr(0.25), np.float64)
        assert ndtr(0.25) == scipy_ndtr(0.25)


class TestInitialDistribution:
    def test_cdfs_are_valid(self):
        dists = [
            point_mass(0.5),
            uniform(-1.0, 2.0),
            gaussian(0.3, 0.7),
            mixture([gaussian(0, 1), point_mass(2.0)], [0.5, 0.5]),
        ]
        xs = np.linspace(-10, 10, 2001)
        for d in dists:
            vals = d.cdf(xs)
            assert np.all(np.diff(vals) >= -1e-15)
            assert vals[0] == pytest.approx(0.0, abs=1e-12)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_sampler_matches_cdf(self):
        # statistical: W1 between the empirical CDF of 20000 draws and the
        # exact CDF is O(1/sqrt(n))
        for d in [uniform(-1.0, 2.0), gaussian(0.3, 0.7),
                  mixture([gaussian(0, 1), uniform(2, 3)], [0.7, 0.3])]:
            s = d.sample(20_000, seed=99)
            g = GridFunction(-8.0, 8.0, d.cdf(np.linspace(-8, 8, 1600) + 0.005))
            assert l1_cdf_distance(g, empirical_cdf(s)) < 0.05

    def test_sampler_reproducible(self):
        d = gaussian(0.0, 1.0)
        assert np.array_equal(d.sample(100, seed=5), d.sample(100, seed=5))

    def test_point_mass_sampling(self):
        assert np.all(point_mass(1.5).sample(10, seed=1) == 1.5)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            mixture([gaussian(0, 1)], [0.5])  # weights do not sum to 1

    @pytest.mark.parametrize("make", [
        lambda: point_mass(np.nan), lambda: point_mass(np.inf), lambda: uniform(np.nan, 1.0),
        lambda: uniform(0.0, np.inf), lambda: gaussian(np.nan, 1.0), lambda: gaussian(0.0, np.nan),
        lambda: gaussian(-np.inf, 1.0), lambda: mixture([gaussian(0, 1)], [np.nan]),
        lambda: mixture([gaussian(0, 1), gaussian(1, 1)], [np.inf, -np.inf]),
        lambda: mixture([gaussian(0, 1), gaussian(1, 1)], [1.5, -0.5]),
    ], ids=["point_nan", "point_inf", "uniform_nan", "uniform_inf", "gaussian_mu_nan",
            "gaussian_s_nan", "gaussian_mu_inf", "weight_nan", "weights_inf", "weight_negative"])
    def test_non_finite_parameters_and_weights_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_smoothed_cdf_limits(self):
        d = uniform(0.0, 1.0)
        xs = np.linspace(-2, 3, 50)
        np.testing.assert_allclose(d.smoothed_cdf(xs, 0.0), d.cdf(xs))
        # smoothing by a tiny kernel stays close to the exact CDF
        np.testing.assert_allclose(d.smoothed_cdf(xs, 1e-6), d.cdf(xs), atol=1e-5)
