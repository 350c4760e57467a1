"""Parser, printer, and symbolic derivative tests."""

import numpy as np
import pytest

from rankflow.expr import (
    Add,
    Call,
    Const,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    differentiate,
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
    roll = rng.integers(0, 8 if depth > 0 else 2)
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
