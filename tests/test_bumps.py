"""The unit-mass polynomial bump: an exact +0.0 off the support and at NaN
on every shape, the fused value_d1 pass, and mass, tail, norms and
derivatives against dense numerics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rankflow.bumps import Bump1D, bump, bump_d1, bump_d2

_C = 315.0 / 256.0

# the closed forms in s, written with np.power, which the bumps never call
_FORMULAS = (
    (bump, lambda s: _C * np.power(1.0 - s * s, 4)),
    (bump_d1, lambda s: -8.0 * _C * s * np.power(1.0 - s * s, 3)),
    (bump_d2, lambda s: 8.0 * _C * np.power(1.0 - s * s, 2) * (7.0 * (s * s) - 1.0)),
)

_ELEMENTS = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([1.0, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf,
                     np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: abs(v) > 1.0),
)


def _assert_same(got, want):
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=12), elements=_ELEMENTS))
def test_zero_off_the_support_closed_form_on_it(s):
    """Off (-1, 1) and at NaN every bump function is an exact +0.0, with no
    overflow at huge |s|; on (-1, 1) it is the closed form to 1e-14."""
    inside = np.abs(s) < 1.0
    for fn, formula in _FORMULAS:
        got = np.asarray(fn(s))
        assert got.shape == s.shape and got.dtype == np.float64
        assert got[~inside].tobytes() == np.zeros(np.count_nonzero(~inside)).tobytes()
        np.testing.assert_allclose(got[inside], formula(s[inside]), rtol=1e-14, atol=1e-300)


@given(_ELEMENTS)
def test_python_scalar_gives_0d(v):
    """A Python float gives a numpy scalar, the bits of a one-point array."""
    for fn, _ in _FORMULAS:
        got = fn(v)
        assert type(got) is np.float64
        assert got.tobytes() == fn(np.array([v]))[0].tobytes()


# bumps whose support ends are exact: x = +-1 maps to s = +-1 on the first
_VALUE_BUMPS = [Bump1D(0.0, 1.0), Bump1D(0.5, 2.5), Bump1D(-0.64, 0.6)]


def _assert_same_value(got, want):
    """Same type, shape, dtype and bytes; a 0-d input gives numpy scalars."""
    assert type(got) is type(want)
    _assert_same(np.asarray(got), np.asarray(want))


@given(st.sampled_from(_VALUE_BUMPS),
       arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=12), elements=_ELEMENTS))
def test_value_d1_equals_call_and_d1(f, x):
    """The fused pass gives f(x) and f.d1(x) bit for bit: an exact +0.0 off
    the support on both sides, 0.0 at NaN, and the 0-d scalar rule."""
    with np.errstate(over="ignore"):  # a huge x overflows to an s off the support
        v, d = f.value_d1(x)
        _assert_same_value(v, f(x))
        _assert_same_value(d, f.d1(x))


@given(st.sampled_from(_VALUE_BUMPS), _ELEMENTS)
def test_value_d1_python_scalar(f, x):
    with np.errstate(over="ignore"):
        v, d = f.value_d1(x)
        _assert_same_value(v, f(x))
        _assert_same_value(d, f.d1(x))


def test_value_d1_is_positive_zero_right_of_the_support():
    # a plain -8 c s (1 - s^2)^3 would give -0.0 at s = 1
    _, d = Bump1D(0.0, 1.0).value_d1(np.array([1.0, 2.0, np.inf, np.nan]))
    assert d.tobytes() == np.zeros(4).tobytes()


# a centred, a shifted, a narrow and a narrow far-off bump
_BUMPS = [Bump1D(0.0, 1.0), Bump1D(-0.64, 0.6), Bump1D(0.0, 0.36), Bump1D(1234.5, 0.001)]
_IDS = ["centred", "shifted", "narrow", "narrow_far"]


def _dense(f, points=400_001):
    """f on `points` uniform nodes of its support and the cumulative
    trapezoid tail int_x^hi f there."""
    xs = np.linspace(*f.support(), points)
    ys = f(xs)
    head = np.concatenate(([0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))))
    return xs, head[-1] - head


@pytest.mark.parametrize("f", _BUMPS, ids=_IDS)
def test_unit_mass(f):
    xs, tail = _dense(f)
    assert abs(tail[0] - 1.0) <= 1e-11
    lo, hi = f.support()
    assert f.tail_integral(lo - f.radius) == 1.0 and f.tail_integral(hi + f.radius) == 0.0


@pytest.mark.parametrize("f", _BUMPS, ids=_IDS)
def test_tail_integral_matches_dense_trapezoid(f):
    xs, tail = _dense(f)
    assert np.max(np.abs(f.tail_integral(xs) - tail)) <= 1e-11


@st.composite
def _off_support_points(draw):
    """A bump and points left and right of its support, NaN and +-inf."""
    f = draw(st.sampled_from(_BUMPS))
    lo, hi = f.support()
    element = st.one_of(
        st.floats(lo - 4.0 * f.radius, lo - 0.01 * f.radius),
        st.floats(hi + 0.01 * f.radius, hi + 4.0 * f.radius),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    return f, draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=12), elements=element))


@given(_off_support_points())
def test_tail_integral_is_exact_off_the_support(case):
    """Exactly 1 left of the support, +0.0 right of it, NaN at NaN, in the
    shape of x; a 0-d x gives a numpy scalar."""
    f, x = case
    got = f.tail_integral(x)
    assert np.shape(got) == x.shape
    if x.ndim == 0:
        assert type(got) is np.float64
    got, nan = np.asarray(got), np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == np.where(x < f.center, 1.0, 0.0)[~nan].tobytes()


@pytest.mark.parametrize("f", _BUMPS, ids=_IDS)
def test_norms_match_dense_sampling(f):
    """sup |f|, ||f'||_1 and ||f''||_1 against 400001 uniform points of the
    support (trapezoid for the integrals)."""
    xs = np.linspace(*f.support(), 400_001)
    sampled = (np.max(np.abs(f(xs))), np.trapezoid(np.abs(f.d1(xs)), xs), np.trapezoid(np.abs(f.d2(xs)), xs))
    np.testing.assert_allclose(f.norms, sampled, rtol=1e-8)


def test_norms_cached_per_bump():
    """The closed-form norms of bias_allowance, computed once per bump:
    c/r, 2c/r and 4 sup |f'| = 4 |f'(center - r/sqrt(7))|."""
    f = Bump1D(0.5, 2.5)
    sup_d1 = abs(float(f.d1(f.center - f.radius / math.sqrt(7.0))))
    assert f.norms == pytest.approx((_C / 2.5, 2.0 * _C / 2.5, 4.0 * sup_d1), rel=1e-15, abs=0)
    assert f.norms is f.norms


@pytest.mark.parametrize("f", _BUMPS, ids=_IDS)
def test_derivatives_match_central_differences(f):
    """d1 and d2 against central differences of f and d1 with h = 1e-4 r,
    whose O(h^2) error stays below 1e-6 of sup |f'| (per radius for d2)."""
    xs = np.linspace(*f.support(), 2001)
    h = 1e-4 * f.radius
    sup_d1 = f.norms[2] / 4.0
    step = (xs + h) - (xs - h)  # 2h, up to the rounding of x +- h near a large centre
    np.testing.assert_allclose(f.d1(xs), (f(xs + h) - f(xs - h)) / step, rtol=0, atol=1e-6 * sup_d1)
    np.testing.assert_allclose(f.d2(xs), (f.d1(xs + h) - f.d1(xs - h)) / step, rtol=0,
                               atol=1e-6 * sup_d1 / f.radius)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_radius_must_be_positive_and_finite(radius):
    # Bump1D(0, nan) was once accepted and evaluated to NaN everywhere
    with pytest.raises(ValueError, match="must be positive and finite"):
        Bump1D(0.0, radius)


@pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
def test_center_must_be_finite(center):
    # Bump1D(nan, 1) was once accepted, and a weak form against it read 0.0
    with pytest.raises(ValueError, match="center .* must be finite"):
        Bump1D(center, 1.0)
