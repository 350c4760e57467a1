"""Antiderivative tables against an adaptive-quadrature oracle, plus
validation behavior and the certified coefficient bounds."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rankflow.coefficients import (
    PIECES,
    DomainError,
    NondegeneracyViolated,
    PositivityViolated,
    TRANSFORMS,
    ValidationError,
    bounds,
    build_from_sources,
)
from rankflow.expr import parse_coefficient


class TestBuildExamples:
    def test_constant_coefficients(self):
        cs = build_from_sources("0", "sqrt(2)", "0", 32, allow_degenerate=True)
        r = np.linspace(0, 1, 11)
        np.testing.assert_allclose(cs.eval_transform("B", r), 0.0, atol=1e-15)
        np.testing.assert_allclose(cs.eval_transform("Sigma", r), r, atol=1e-14)
        np.testing.assert_allclose(cs.eval_transform("Gamma", r), 0.0, atol=1e-15)
        np.testing.assert_allclose(cs.eval_transform("G", r), 0.0, atol=1e-15)
        np.testing.assert_allclose(cs.eval_transform("S", r), np.sqrt(2) * r, atol=1e-14)

    def test_polynomial_antiderivative(self):
        cs = build_from_sources("a", "1", "1", 16)
        assert cs.eval_transform("B", 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_affine_gamma_values(self):
        cs = build_from_sources("0", "1", "1 + a", 16)
        # int_0^0.5 (1+a) da and 0.5*int_0^0.5 (1+a)^2 da
        assert cs.eval_transform("G", 0.5) == pytest.approx(0.625, abs=1e-14)
        assert cs.eval_transform("Gamma", 0.5) == pytest.approx(
            0.5 * (0.5 + 0.25 + 0.125 / 3), abs=1e-14
        )
        assert cs.eval_transform("Gamma", 1.0) == pytest.approx(7.0 / 6.0, abs=1e-14)

    def test_low_resolution_rejected(self):
        with pytest.raises(ValidationError):
            build_from_sources("0", "1", "1", 8)


class TestQuadratureOracle:
    """Table evaluation vs scipy.integrate.quad at tolerance 1e-12."""

    @pytest.mark.parametrize(
        "b,sigma,gamma",
        [
            ("a - 0.5", "1 + a/2", "0.5*(1 + a)"),
            ("sin(a)", "exp(a/2)", "1 + a^2"),
            ("cos(2*a)", "sqrt(1 + a)", "2 - a"),
        ],
    )
    def test_matches_adaptive_quadrature(self, b, sigma, gamma):
        cs = build_from_sources(b, sigma, gamma, 32)
        fb = parse_coefficient(b)
        fs = parse_coefficient(sigma)
        fg = parse_coefficient(gamma)
        integrands = {
            "B": lambda a: fb(a),
            "Sigma": lambda a: 0.5 * fs(a) ** 2,
            "Gamma": lambda a: 0.5 * fg(a) ** 2,
            "G": lambda a: fg(a),
            "S": lambda a: fs(a),
        }
        rng = np.random.default_rng(5)
        for which in TRANSFORMS:
            for r in rng.uniform(0, 1, 8):
                expected = quad(integrands[which], 0.0, r, epsabs=1e-13, epsrel=1e-13)[0]
                assert cs.eval_transform(which, float(r)) == pytest.approx(expected, abs=1e-12)


class TestValidate:
    def test_valid_unit_coefficients(self):
        rep = build_from_sources("0", "1", "1", 16).report
        assert rep.inf_sigma == 1.0
        assert rep.inf_gamma == 1.0
        assert not rep.warnings

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(NondegeneracyViolated):
            build_from_sources("0", "0", "1", 16)

    def test_gamma_zero_at_origin_rejected(self):
        with pytest.raises(PositivityViolated):
            build_from_sources("0", "1", "a", 16)

    def test_allow_degenerate_downgrades_to_warning(self):
        cs = build_from_sources("0", "1", "a", 16, allow_degenerate=True)
        assert cs.report.warnings

    def test_undefined_evaluation_always_rejected(self):
        with pytest.raises(ValidationError):
            build_from_sources("0", "1/a", "1", 16, allow_degenerate=True)
        with pytest.raises(ValidationError):
            build_from_sources("sqrt(a - 0.5)", "1", "1", 16, allow_degenerate=True)

    @pytest.mark.parametrize("sigma", ["1 + sqrt(a)", "1 + sqrt(0 + a)", "1 + sqrt(a*(1 - a))"])
    def test_root_of_an_exact_zero_is_accepted(self, sigma):
        # 0 + a and a*(1 - a) are exactly 0 at a = 0, so their enclosures on
        # piece 0 start at 0, not one ulp below it, and the root is finite
        cs = build_from_sources("0", sigma, "1", 64)
        lo, hi = cs.enclosures["sigma"]
        assert lo[0] == 1.0 and 1.0 < hi[0] < 1.04

    @pytest.mark.parametrize("b, sigma, which", [("1e308", "1", "B"), ("0", "1e155", "Sigma")])
    def test_transform_that_overflows_is_rejected(self, b, sigma, which):
        # the coefficients are bounded, but B sums past the float range and
        # sigma^2 / 2 overflows: the table, not a RuntimeWarning, reports it
        with pytest.raises(ValidationError, match=f"transform {which} of b = '{b}', sigma = '{sigma}'"):
            build_from_sources(b, sigma, "0.5", 16)

    def test_report_sups(self):
        cs = build_from_sources("a - 0.5", "1 + a", "2", 16)
        assert cs.report.sup_abs_b == pytest.approx(0.5)
        assert cs.report.sup_abs_sigma == pytest.approx(2.0)
        assert cs.report.sup_abs_gamma == pytest.approx(2.0)

    @pytest.mark.parametrize("name, source, piece", [
        # a pole: see TestColumnWindow.test_pole_is_rejected_at_build
        ("sigma", "1 + sqrt(a - 0.75)", 0),
        # exp(800 a) overflows from a = 0.8873; sin of it is then NaN
        ("gamma", "2 + sin(exp(800*a))", 908),
    ])
    def test_unbounded_piece_names_the_coefficient_and_the_piece(self, name, source, piece):
        sources = {"b": "0", "sigma": "1", "gamma": "1", name: source}
        msg = f"coefficient {name} = {source!r} is not bounded on piece {piece} of {PIECES}"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            build_from_sources(sources["b"], sources["sigma"], sources["gamma"], 64)

    def test_bounds_are_read_only_and_stored(self):
        cs = build_from_sources("a - 0.5", "1 + 0.3*sin(5*a)", "0.5*(1 + a)", 16)
        for name in ("b", "sigma", "gamma"):
            lo, hi = cs.enclosures[name]
            assert lo.shape == hi.shape == (PIECES,)
            assert not lo.flags.writeable and not hi.flags.writeable
            ref = bounds(getattr(cs, name), name)
            assert lo.tobytes() == ref[0].tobytes() and hi.tobytes() == ref[1].tobytes()


class TestEvalTransform:
    def test_domain_error_beyond_tolerance(self):
        cs = build_from_sources("0", "1", "1", 16)
        with pytest.raises(DomainError):
            cs.eval_transform("Sigma", 1.001)
        with pytest.raises(DomainError):
            cs.eval_transform("Sigma", -0.001)

    def test_nan_raises_domain_error(self):
        cs = build_from_sources("0", "1", "1", 16)
        with pytest.raises(DomainError, match="nan"):
            cs.eval_transform("Sigma", np.nan)
        with pytest.raises(DomainError, match="nan"):
            cs.eval_transform("G", np.array([[0.5, 0.25], [np.nan, 1.0]]))

    @pytest.mark.parametrize("which", TRANSFORMS)
    def test_block_equals_row_calls(self, which):
        """An (R, J) block, and a 3-d one, give the row-by-row 1-d values
        bit for bit, in the argument's shape."""
        cs = build_from_sources("exp(a) - 1.5", "1 + 0.5*sin(3*a)", "2 - cos(a)^2", 32)
        rng = np.random.default_rng(7)
        block = rng.uniform(0.0, 1.0, (4, 37))
        block[0, :4] = [0.0, 1.0, -5e-13, 1.0 + 5e-13]
        out = cs.eval_transform(which, block)
        assert out.shape == block.shape
        rows = np.stack([cs.eval_transform(which, row) for row in block])
        assert out.tobytes() == rows.tobytes()
        cube = block.reshape(2, 2, 37)
        assert cs.eval_transform(which, cube).tobytes() == out.tobytes()
        assert cs.eval_transform(which, block[1:2, 5:6]).shape == (1, 1)

    def test_clamp_within_tolerance(self):
        cs = build_from_sources("0", "1", "1", 16)
        assert cs.eval_transform("Sigma", 1.0 + 5e-13) == pytest.approx(0.5)
        assert cs.eval_transform("Sigma", -5e-13) == 0.0

    def test_zero_at_origin(self):
        cs = build_from_sources("a", "1 + a", "2 - a", 32)
        for which in TRANSFORMS:
            assert cs.eval_transform(which, 0.0) == 0.0

    def test_unknown_transform_name(self):
        cs = build_from_sources("0", "1", "1", 16)
        with pytest.raises(KeyError):
            cs.eval_transform("Q", 0.5)

    def test_nondecreasing_in_r(self):
        cs = build_from_sources("a - 0.5", "1 + a/2", "0.5*(1 + a)", 32)
        rng = np.random.default_rng(11)
        r = np.sort(rng.uniform(0, 1, 200))
        for which in ("Sigma", "Gamma", "G", "S"):
            vals = cs.eval_transform(which, r)
            assert np.all(np.diff(vals) >= -1e-14)


def _random_positive_poly(rng):
    c = rng.uniform(0.05, 2.0, 3)
    return f"{c[0]:.6f} + {c[1]:.6f}*a + {c[2]:.6f}*a^2"


def _random_signed_poly(rng):
    c = rng.uniform(-2.0, 2.0, 3)
    return f"{c[0]:.6f} + {c[1]:.6f}*a + {c[2]:.6f}*a^2"


def test_invariants_on_200_random_polynomial_triples():
    """Table-node invariants and the Cauchy-Schwarz bound
    G(r)^2 <= 2 r Gamma(r) on random coefficient sets."""
    rng = np.random.default_rng(20240518)
    sample_r = rng.uniform(0, 1, 1000)
    for trial in range(200):
        cs = build_from_sources(
            _random_signed_poly(rng), _random_positive_poly(rng), _random_positive_poly(rng), 16
        )
        nodes = np.arange(17) / 16
        for which in ("Sigma", "Gamma", "G", "S"):
            table = cs.tables[which]
            assert table[0] == 0.0
            assert np.all(np.diff(table) >= -1e-14)
        b_table = cs.tables["B"]
        assert b_table[0] == 0.0
        lip = cs.report.sup_abs_b
        assert np.all(np.abs(np.diff(b_table)) <= lip / 16 + 1e-12)
        if trial < 20:  # the sampled bound is slow; spot-check a subset densely
            g = cs.eval_transform("G", sample_r)
            gam = cs.eval_transform("Gamma", sample_r)
            assert np.all(g**2 <= 2 * sample_r * gam + 1e-12)
        else:
            g = cs.eval_transform("G", nodes)
            gam = cs.eval_transform("Gamma", nodes)
            assert np.all(g**2 <= 2 * nodes * gam + 1e-12)


def test_symbolic_derivatives_attached():
    cs = build_from_sources("a^2", "1", "1 + a", 16)
    xs = np.linspace(0.1, 0.9, 7)
    np.testing.assert_allclose(cs.b_prime(xs), 2 * xs, rtol=1e-12)
    np.testing.assert_allclose(cs.gamma_prime(xs), 1.0, rtol=1e-12)


# coefficient families with random constants: affine, and through sin, exp,
# integer powers, a quotient and sqrt, none with a pole or a negative root on
# [0, 1]
_C = st.floats(-4.0, 4.0)
_AFFINE = st.builds(lambda c0, c1: f"{c0!r} + {c1!r}*a", _C, _C)
_NONAFFINE = st.one_of(
    st.builds(lambda c0, c1, c2: f"{c0!r} + {c1!r}*sin({c2!r}*a)", _C, _C, _C),
    st.builds(lambda c0, c1: f"{c0!r}*exp({c1!r}*a)", _C, _C),
    st.builds(lambda c0, c1, k: f"{c0!r} + {c1!r}*(a - 0.3)^{k}", _C, _C, st.integers(2, 5)),
    st.builds(lambda c0, c1: f"{c0!r}/({c1!r} + a)", _C, st.floats(0.1, 4.0)),
    st.builds(lambda c0, c1: f"{c0!r}*sqrt({c1!r} + a)", _C, st.floats(0.1, 4.0)),
)


@settings(max_examples=100)
@given(source=st.one_of(_AFFINE, _NONAFFINE), inner=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_bounds_hold_every_value_of_their_piece(source, inner):
    """lo[k] <= expr(a) <= hi[k] at the ends of piece k and at inner points
    of it, on every piece at once."""
    expr = parse_coefficient(source)
    lo, hi = bounds(expr, "c")
    left = np.arange(PIECES) / PIECES
    fractions = np.concatenate(([0.0, 0.5, 1.0], inner))
    a = np.minimum(left[None, :] + fractions[:, None] / PIECES, (np.arange(PIECES) + 1) / PIECES)
    values = expr(a)
    assert np.all((lo <= values) & (values <= hi)), source


@settings(max_examples=60)
@given(sources=st.one_of(st.tuples(_AFFINE, _AFFINE, _AFFINE), st.tuples(_NONAFFINE, _AFFINE, _NONAFFINE)),
       K=st.sampled_from([16, 64, 256]))
def test_report_sups_bound_the_old_sampled_maxima(sources, K):
    """The certified sups are at least the maxima of |coefficient| on the
    10K+1 points that validation sampled before, and for affine
    coefficients within a few ulps of them: the extremes lie at a = 0 and
    a = 1, both sample points."""
    cs = build_from_sources(*sources, K, allow_degenerate=True)
    grid = np.linspace(0.0, 1.0, 10 * K + 1)
    for name, source in zip(("b", "sigma", "gamma"), sources):
        sup = getattr(cs.report, f"sup_abs_{name}")
        sampled = float(np.max(np.abs(getattr(cs, name)(grid))))
        assert sup >= sampled
        affine = re.fullmatch(r"(\S+) \+ (\S+)\*a", source)
        if affine:
            c0, c1 = (abs(float(c)) for c in affine.groups())
            assert sup - sampled <= 4 * np.spacing(max(sampled, c0, c1)), source
