"""Bump evaluations restricted to their support agree bit for bit with the
dense formulas, on every shape and at every special value."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rankflow.bumps import bump, bump_d1, bump_d2


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
