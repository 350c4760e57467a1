"""Bump evaluations restricted to their support agree bit for bit with the
dense formulas, on every shape and at every special value."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rankflow.bumps import BUMP_L1, Bump1D, bump, bump_d1, bump_d2

GOLDEN = Path(__file__).parent / "golden" / "digests.json"


# the dense formulas: every point evaluated, np.where selects the support
def _dense_parts(s):
    s = np.asarray(s, dtype=np.float64)
    inside = np.abs(s) < 1.0
    safe = np.where(inside, s, 0.0)
    return inside, safe, 1.0 - safe * safe


def _dense_bump(s):
    inside, _, core = _dense_parts(s)
    return np.where(inside, np.exp(-1.0 / core), 0.0)


def _dense_bump_d1(s):
    inside, safe, core = _dense_parts(s)
    return np.where(inside, np.exp(-1.0 / core) * (-2.0 * safe / core**2), 0.0)


def _dense_bump_d2(s):
    inside, safe, core = _dense_parts(s)
    g = 2.0 * safe / core**2
    gp = 2.0 / core**2 + 8.0 * safe * safe / core**3
    return np.where(inside, np.exp(-1.0 / core) * (g * g - gp), 0.0)


_PAIRS = ((bump, _dense_bump), (bump_d1, _dense_bump_d1), (bump_d2, _dense_bump_d2))

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
def test_support_restricted_equals_dense(s):
    for fn, dense in _PAIRS:
        _assert_same(fn(s), dense(s))


@given(_ELEMENTS)
def test_python_scalar_gives_0d(v):
    for fn, dense in _PAIRS:
        _assert_same(fn(v), dense(v))


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
    # a dense -2 s e / core^2 would give -0.0 for s > 1
    _, d = Bump1D(0.0, 1.0).value_d1(np.array([1.0, 2.0, np.inf, np.nan]))
    assert d.tobytes() == np.zeros(4).tobytes()


def test_norms_cached_per_bump():
    """The sampled norms of bias_allowance, computed once per bump."""
    f = Bump1D(0.5, 2.5)
    xs = np.linspace(*f.support(), 8193)
    assert f.norms == (float(np.max(np.abs(f(xs)))), float(np.trapezoid(np.abs(f.d1(xs)), xs)),
                       float(np.trapezoid(np.abs(f.d2(xs)), xs)))
    assert f.norms is f.norms


# tables of a centred, a shifted and a narrow far-off bump; on the tables
# of (-0.64, 0.6) and (0, 0.36), some nodes' neighbours read a wrong value
# when the index guess is not corrected upwards
_TAIL_BUMPS = [Bump1D(0.0, 1.0), Bump1D(-0.64, 0.6), Bump1D(0.0, 0.36), Bump1D(1234.5, 0.001)]


@st.composite
def _tail_points(draw):
    """A bump and points mixing its table nodes, their neighbours, the
    support ends, points inside and outside the support, NaN and +-inf."""
    f = draw(st.sampled_from(_TAIL_BUMPS))
    f.tail_integral(0.0)
    xs = f._tail[0]
    lo, hi = f.support()
    node = st.integers(0, xs.size - 1).map(lambda k: xs[k])
    element = st.one_of(
        node,
        node.map(lambda v: np.nextafter(v, np.inf)),
        node.map(lambda v: np.nextafter(v, -np.inf)),
        st.sampled_from([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan, np.inf, -np.inf]),
        st.floats(lo - f.radius, hi + f.radius),
    )
    return f, draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=12), elements=element))


@given(_tail_points())
def test_tail_integral_equals_interp(case):
    f, x = case
    xs, tail = f._tail[:2]
    _assert_same(np.asarray(f.tail_integral(x)), np.asarray(np.interp(x, xs, tail, left=tail[0], right=0.0)))
    assert np.shape(f.tail_integral(x)) == x.shape


@pytest.mark.parametrize("f", _TAIL_BUMPS, ids=["centred", "shifted", "narrow", "narrow_far"])
def test_tail_integral_equals_interp_at_every_node(f):
    """Every table node and both its neighbours, where the index guess is
    most often one cell off, plus a random (16, 512) block."""
    f.tail_integral(0.0)
    xs, tail = f._tail[:2]
    rng = np.random.default_rng(5)
    lo, hi = f.support()
    for x in (xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
              rng.uniform(lo - f.radius, hi + f.radius, (16, 512))):
        _assert_same(f.tail_integral(x), np.interp(x, xs, tail, left=tail[0], right=0.0))


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


def test_tail_integral_rejects_unresolvable_table():
    with pytest.raises(ValueError, match="too far from 0"):
        Bump1D(1e12, 1e-3).tail_integral(0.0)


def test_bump_l1_literal_equals_quad():
    # BUMP_L1 is written out so that rankflow does not import
    # scipy.integrate; it scales every bump, so under the scipy version the
    # golden digests were recorded with it must be quad's value exactly
    recorded = json.loads(GOLDEN.read_text())["versions"]["scipy"]
    if scipy.__version__ != recorded:
        pytest.skip(f"quad value recorded with scipy {recorded}")
    from scipy.integrate import quad

    assert BUMP_L1 == quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0, epsabs=1e-15)[0]
