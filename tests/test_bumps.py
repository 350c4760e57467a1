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

from rankflow.bumps import BUMP_L1, bump, bump_d1, bump_d2

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


def test_bump_l1_literal_equals_quad():
    # BUMP_L1 is written out so that rankflow does not import
    # scipy.integrate; it scales every bump, so under the scipy version the
    # golden digests were recorded with it must be quad's value exactly
    recorded = json.loads(GOLDEN.read_text())["versions"]["scipy"]
    if scipy.__version__ != recorded:
        pytest.skip(f"quad value recorded with scipy {recorded}")
    from scipy.integrate import quad

    assert BUMP_L1 == quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0, epsabs=1e-15)[0]
