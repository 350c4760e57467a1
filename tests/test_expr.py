"""Parser, printer, and symbolic derivative tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflow.expr import (
    _FUNC_ULPS,
    Add,
    Call,
    Const,
    Div,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    differentiate,
    enclose,
    evaluate,
    parse_ast,
    parse_coefficient,
    to_source,
)


class TestParseExamples:
    def test_constant_literal(self):
        e = parse_coefficient("1.0")
        assert e.ast == Const(1.0)

    def test_add_power(self):
        e = parse_coefficient("1 + a^2")
        assert e.ast == Add(Const(1.0), Pow(Var(), 2))
        assert e(0.5) == 1.25

    def test_unary_minus_binds_tighter_than_mul(self):
        e = parse_coefficient("2*a - -a")
        assert e.ast == Sub(Mul(Const(2.0), Var()), Neg(Var()))
        assert e(1.0) == 3.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_coefficient("-a^2")
        assert e.ast == Neg(Pow(Var(), 2))
        assert e(3.0) == -9.0

    def test_left_association(self):
        e = parse_coefficient("1 - 2 - a")
        assert e.ast == Sub(Sub(Const(1.0), Const(2.0)), Var())

    def test_functions(self):
        e = parse_coefficient("exp(a) + sqrt(a) - sin(a)*cos(a)")
        x = 0.37
        assert e(x) == pytest.approx(np.exp(x) + np.sqrt(x) - np.sin(x) * np.cos(x), abs=1e-15)

    def test_negative_integer_exponent(self):
        e = parse_coefficient("(1 + a)^-2")
        assert e(1.0) == pytest.approx(0.25)


class TestErrors:
    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient("")

    def test_unknown_identifier_with_offset(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_coefficient("1 + bogus")
        assert err.value.offset == 4

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_coefficient("1 + * 2")
        assert err.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient("a ? 2")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient("a^1.5")

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_coefficient("(1 + a")


def _random_ast(rng, depth):
    roll = rng.integers(0, 9 if depth > 0 else 2)
    if roll == 0:
        return Const(float(np.round(rng.uniform(0, 4), 3)))
    if roll == 1:
        return Var()
    if roll == 2:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if roll == 3:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if roll == 4:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if roll == 5:
        return Neg(_random_ast(rng, depth - 1))
    if roll == 6:
        return Pow(_random_ast(rng, depth - 1), int(rng.integers(0, 4)))
    if roll == 7:
        return Div(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Call(["exp", "sqrt", "sin", "cos"][rng.integers(0, 4)], _random_ast(rng, depth - 1))


def test_roundtrip_fuzz():
    """Pretty-printing and re-parsing 1000 random trees is the identity."""
    rng = np.random.default_rng(20240517)
    for _ in range(1000):
        ast = _random_ast(rng, depth=4)
        printed = to_source(ast)
        assert parse_ast(printed) == ast, printed


# --- independent evaluator: precedence climbing, structured differently ---

_BPS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_BP = 3


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _oracle_eval(tokens, a):
    pos = 0

    def parse(min_bp):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("eof")
        tok = tokens[pos]
        pos += 1
        if tok == "-":
            lhs = -parse(_UNARY_BP + 1)
        elif tok == "a":
            lhs = a
        elif tok == "(":
            lhs = parse(0)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("missing )")
            pos += 1
        elif _is_number(tok):
            lhs = float(tok)
        else:
            raise ValueError(f"bad atom {tok}")
        while pos < len(tokens):
            op = tokens[pos]
            if op not in _BPS:
                break
            bp = _BPS[op]
            if bp < min_bp:
                break
            pos += 1
            if op == "^":
                sign = 1
                if pos < len(tokens) and tokens[pos] == "-":
                    sign = -1
                    pos += 1
                if pos >= len(tokens):
                    raise ValueError("eof in exponent")
                exp = tokens[pos]
                # the grammar requires an integer-form literal
                if not exp.isdigit():
                    raise ValueError("bad exponent")
                pos += 1
                lhs = lhs ** (sign * int(exp))
                continue
            rhs = parse(bp + 1)
            lhs = {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs, "/": lhs / rhs if rhs != 0 else np.nan}[op]
        return lhs

    out = parse(0)
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return out


def test_against_precedence_climbing_oracle():
    """Fuzzed short token strings: accept/reject and values agree with an
    independently written precedence-climbing evaluator."""
    rng = np.random.default_rng(7)
    vocab = ["1", "2", "3", "0.5", "a", "+", "-", "*", "/", "^", "(", ")"]
    agree = 0
    for _ in range(4000):
        n_tok = rng.integers(1, 6)
        tokens = [vocab[i] for i in rng.integers(0, len(vocab), n_tok)]
        text = " ".join(tokens)
        a = 1.0
        try:
            mine = evaluate(parse_ast(text), a)
            mine_ok = True
        except (ExpressionSyntaxError, OverflowError):
            mine_ok = False
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = _oracle_eval(tokens, a)
            ref_ok = True
        except (ValueError, OverflowError, ZeroDivisionError):
            ref_ok = False
        assert mine_ok == ref_ok, text
        if mine_ok:
            agree += 1
            if np.isfinite(mine) and np.isfinite(ref):
                assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12), text
    assert agree > 200  # the fuzz actually exercised valid expressions


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(99)
    sources = [
        "a^3 - 2*a + 1",
        "exp(2*a)*sqrt(1 + a)",
        "sin(a)*cos(a) + a/(2 + a)",
        "(1 + a^2)^-1",
        "0.5*(1 + a)",
    ]
    for src in sources:
        e = parse_coefficient(src)
        d = e.derivative()
        xs = rng.uniform(0.05, 0.95, 20)
        fd = (e(xs + 1e-6) - e(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(d(xs), fd, rtol=1e-7, atol=1e-7)


def test_derivative_of_constant_is_zero():
    assert differentiate(parse_ast("3.5")) == Const(0.0)
    d = parse_coefficient("sqrt(2)").derivative()
    assert d(0.3) == 0.0


def test_vectorized_evaluation():
    e = parse_coefficient("1 + a^2")
    out = e(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out, [1.0, 1.25, 2.0])
    const = parse_coefficient("2.5")
    out = const(np.linspace(0, 1, 4))
    np.testing.assert_allclose(out, 2.5)
    # constant forms and their derivatives keep the argument's shape, which
    # the table build and the coefficient sampling rely on
    for a in (np.linspace(0, 1, 4), np.linspace(0, 1, 24).reshape(8, 3)):
        for src in ("2.5", "1", "sqrt(2)", "-1", "2^3", "(1)^-2", "a-a"):
            e = parse_coefficient(src)
            for f in (e, e.derivative()):
                out = f(a)
                assert isinstance(out, np.ndarray) and out.shape == a.shape, (src, f.source)


def test_scalar_and_one_element_array_agree_bit_for_bit():
    """A scalar runs the same numpy arithmetic as a 1-element array: the
    same bits on random trees, and inf, not ZeroDivisionError, at a pole."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        ast = _random_ast(rng, depth=4)
        for a in (0.0, 0.5, float(rng.uniform(0, 1))):
            with np.errstate(all="ignore"):
                scalar, array = evaluate(ast, a), evaluate(ast, np.array([a]))
            assert np.shape(scalar) == () and array.shape == (1,), to_source(ast)
            assert np.float64(scalar).tobytes() == array[0].tobytes(), (to_source(ast), a)
    assert parse_coefficient("1/(a - 0.5)")(0.5) == np.inf


# --- property tests: Hypothesis draws trees over the whole grammar ---


def _trees(constants):
    """Trees over + - * / ^int, unary minus, exp, sqrt, sin, cos and `a`.
    The leaves a - c and c*a make zero crossings, poles and the peaks of
    sin and cos inside the interval common."""
    leaves = st.one_of(st.just(Var()), constants.map(Const),
                       constants.map(lambda c: Sub(Var(), Const(c))),
                       constants.map(lambda c: Mul(Const(c), Var())))
    binary = st.sampled_from([Add, Sub, Mul, Div])

    def extend(children):
        return st.one_of(
            st.builds(lambda op, l, r: op(l, r), binary, children, children),
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(-3, 4)),
            st.builds(Call, st.sampled_from(["exp", "sqrt", "sin", "cos"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(_trees(st.floats(0.0, 1e6, allow_nan=False).map(abs)))
def test_parse_of_to_source_round_trips(tree):
    """Negative constants are Neg(Const) in the tree, so the constants drawn
    are nonnegative; every other tree prints and re-parses to itself."""
    assert parse_ast(to_source(tree)) == tree


_SMALL_CONSTANTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 0.7, 7.0, 10.0])


@settings(max_examples=300)
@given(tree=_trees(_SMALL_CONSTANTS),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       inner=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_enclosure_holds_every_finite_value(tree, ends, inner):
    """Every finite value evaluate gives at a point of [lo, hi], the ends
    included, lies in enclose(tree, lo, hi)."""
    lo, hi = ends
    fractions = np.concatenate((np.linspace(0.0, 1.0, 33), inner))
    points = np.concatenate(([lo, hi], np.clip(lo + (hi - lo) * fractions, lo, hi)))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, inf * 0
        values = evaluate(tree, points)
    e_lo, e_hi = enclose(tree, lo, hi)
    finite = values[np.isfinite(values)]
    assert np.all((e_lo <= finite) & (finite <= e_hi)), (to_source(tree), lo, hi)


@settings(max_examples=300)
@given(tree=_trees(_SMALL_CONSTANTS), k=st.integers(0, 2 ** 20))
def test_derivative_agrees_with_central_differences(tree, k):
    """differentiate(tree) at a = k / 2^20 agrees with the central
    difference (f(a + h) - f(a - h)) / 2h, h = 2^-17, so that a - h, a and
    a + h are exact.  Taylor's theorem puts the real difference within
    h^2/6 sup |f'''| of the real f'(a), the sup over [a - h, a + h]; each
    float value lies within its point enclosure of the real one.  All of
    these are bounded with `enclose`, and a point where one of those bounds
    is not finite, as near a pole or below 0 under a square root, is
    skipped."""
    a, h = k / 2 ** 20, 2.0 ** -17
    d = differentiate(tree)
    d3 = differentiate(differentiate(d))
    ends = np.array([a - h, a, a + h])
    f_lo, f_hi = enclose(tree, ends, ends)
    d_lo, d_hi = enclose(d, a, a)
    m3_lo, m3_hi = enclose(d3, a - h, a + h)
    if not np.all(np.isfinite(np.concatenate((f_lo, f_hi, [d_lo, d_hi, m3_lo, m3_hi])))):
        return
    with np.errstate(all="ignore"):
        f = evaluate(tree, ends)
        fd = (f[2] - f[0]) / (2.0 * h)
        got = evaluate(d, a)
    truncation = h * h / 6.0 * max(abs(m3_lo), abs(m3_hi))
    rounding = ((f_hi[0] - f_lo[0]) + (f_hi[2] - f_lo[2])) / (2.0 * h) + (d_hi - d_lo)
    slack = 1e-12 * abs(fd)  # the rounding of the difference and the quotient
    assert abs(got - fd) <= truncation + rounding + slack, (to_source(tree), a)


@given(tree=_trees(_SMALL_CONSTANTS),
       ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted), min_size=1, max_size=6))
def test_enclosure_is_elementwise(tree, ends):
    """An array of intervals gives, entry by entry, the bits of one
    enclosure per interval."""
    lo, hi = np.array(ends).T
    e_lo, e_hi = enclose(tree, lo, hi)
    for k, (l, h) in enumerate(ends):
        one = enclose(tree, l, h)
        assert (e_lo[k].tobytes(), e_hi[k].tobytes()) == (one[0].tobytes(), one[1].tobytes())


class TestEnclose:
    def test_affine_coefficients_are_tight(self):
        # every difference here is exact, so no end is rounded outward
        lo, hi = enclose(parse_ast("a - 0.5"), 0.0, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(lo, -0.5)
        np.testing.assert_array_equal(hi, [-0.5, 0.0, 0.5])
        # 0.1 - 0.5 is not, so both ends are
        lo, hi = enclose(parse_ast("a - 0.5"), 0.1, 0.1)
        assert (lo, hi) == (np.nextafter(0.1 - 0.5, -np.inf), np.nextafter(0.1 - 0.5, np.inf))

    def test_divisor_holding_zero_gives_the_whole_line(self):
        lo, hi = enclose(parse_ast("1/(a - 0.3)"), [0.0, 0.0, 0.5], [0.2, 0.5, 1.0])
        assert -10.0 > lo[0] > -10.0 - 1e-14 and -10.0 / 3.0 < hi[0] < 0.0
        assert (lo[1], hi[1]) == (-np.inf, np.inf)
        assert 1.0 / 0.7 > lo[2] > 1.0 / 0.7 - 1e-14 and 5.0 < hi[2] < 5.0 + 1e-14

    def test_negative_power_pole_and_even_power_across_zero(self):
        lo, hi = enclose(parse_ast("(a - 0.5)^-2"), 0.0, [0.25, 1.0])
        assert 4.0 - 1e-14 < lo[0] <= 4.0 and 16.0 <= hi[0] < 16.0 + 1e-13
        assert (lo[1], hi[1]) == (-np.inf, np.inf)
        lo, hi = enclose(parse_ast("(a - 0.5)^2"), 0.0, 1.0)
        assert -1e-300 < lo <= 0.0 and 0.25 <= hi < 0.25 + 1e-15

    def test_nan_end_gives_the_whole_line(self):
        # sqrt below 0 is NaN, and so is an end given as NaN
        assert enclose(parse_ast("sqrt(a - 0.5)"), 0.0, 1.0) == (-np.inf, np.inf)
        assert enclose(parse_ast("a"), 0.0, np.nan) == (-np.inf, np.inf)

    def test_sin_and_cos_peaks(self):
        # sin(2a) on [0, 1] holds the maximum at a = pi/4; cos on [0, 1] is
        # monotone; a range beyond 2^20 is enclosed by [-1, 1]
        lo, hi = enclose(parse_ast("sin(2*a)"), 0.0, 1.0)
        assert 1.0 <= hi < 1.0 + 1e-15 and -1e-300 < lo <= 0.0
        lo, hi = enclose(parse_ast("cos(a)"), 0.0, 1.0)
        assert math.cos(1.0) - 1e-15 < lo <= math.cos(1.0) and 1.0 <= hi < 1.0 + 1e-15
        lo, hi = enclose(parse_ast("sin(1e7*a)"), 0.5, 0.5)
        assert lo <= -1.0 and 1.0 <= hi

    def test_sin_and_cos_of_an_infinite_argument_give_the_whole_line(self):
        # exp(800 a) overflows past a = 0.8873 and sin(inf) is NaN; the
        # argument of cos is the whole line across the pole
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(evaluate(parse_ast("sin(exp(800*a))"), 1.0))
        assert enclose(parse_ast("sin(exp(800*a))"), 0.9, 1.0) == (-np.inf, np.inf)
        assert enclose(parse_ast("cos(1/(a - 0.5))"), 0.0, 1.0) == (-np.inf, np.inf)
        lo, hi = enclose(parse_ast("sin(exp(800*a))"), 0.0, 0.5)
        assert lo <= -1.0 and 1.0 <= hi and np.isfinite(lo) and np.isfinite(hi)


def _spacing(x):
    return np.abs(np.spacing(np.asarray(x, dtype=np.float64)))


_LIBM_CASES = [
    ("exp", np.exp, math.exp, (-700.0, 700.0)),
    ("exp", np.exp, math.exp, (-2.0, 2.0)),
    ("sin", np.sin, math.sin, (-8.0, 8.0)),
    ("sin", np.sin, math.sin, (-2.0 ** 20, 2.0 ** 20)),
    ("cos", np.cos, math.cos, (-8.0, 8.0)),
    ("cos", np.cos, math.cos, (-2.0 ** 20, 2.0 ** 20)),
]


@pytest.mark.parametrize("name, np_fn, libm_fn, bounds", _LIBM_CASES)
def test_numpy_functions_within_one_ulp_of_libm(name, np_fn, libm_fn, bounds):
    """The _FUNC_ULPS widening of enclose rests on numpy's float64 exp, sin
    and cos lying within 2 ulps of the real function: here within 1 ulp of
    the math module's value, itself within 1 ulp, in the array loop and in
    the scalar path alike."""
    assert _FUNC_ULPS >= 4
    x = np.random.default_rng(17).uniform(*bounds, 20000)
    ref = np.array([libm_fn(v) for v in x])
    assert np.all(np.abs(np_fn(x) - ref) <= _spacing(ref)), name
    scalar = np.array([np_fn(np.float64(v)) for v in x[:1000]])
    assert np.all(np.abs(scalar - ref[:1000]) <= _spacing(ref[:1000])), name


@pytest.mark.parametrize("k", [-3, -2, -1, 2, 3, 4])
def test_integer_powers_within_one_ulp_of_libm(k):
    """The same for the integer powers of the grammar, as evaluate computes
    them, against math.pow."""
    x = np.random.default_rng(18).uniform(-3.0, 3.0, 20000)
    x = x[np.abs(x) > 1e-3]
    ref = np.array([math.pow(v, k) for v in x])
    tree = Pow(Var(), k)
    assert np.all(np.abs(evaluate(tree, x) - ref) <= _spacing(ref))
    scalar = np.array([evaluate(tree, float(v)) for v in x[:1000]])
    assert np.all(np.abs(scalar - ref[:1000]) <= _spacing(ref[:1000]))
