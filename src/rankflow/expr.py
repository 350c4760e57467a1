"""Minimal arithmetic expressions in one variable `a`.

Model coefficients are supplied as text like ``"0.5*(1 + a)"`` and parsed
into a small AST supporting +, -, *, /, ^ with integer exponents, unary
minus, and the functions exp, sqrt, sin, cos.  Evaluation is vectorized
over numpy arrays; exact derivatives are produced symbolically, and
`enclose` bounds the float values over intervals by interval arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

ALLOWED_FUNCTIONS = ("exp", "sqrt", "sin", "cos")


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; `offset` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier other than `a` or an allowed function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


@dataclass(frozen=True)
class Node:
    """A node of the expression tree; `_PRECEDENCE` holds each kind's
    binding strength."""


@dataclass(frozen=True)
class Const(Node):
    value: float  # nonnegative; negative constants are Neg(Const(...))


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    child: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node


# binding strength, loosest first: + - < * / < unary minus < ^ < atoms
_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Const: 5, Var: 5, Call: 5}
_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # trailing whitespace only
            if source[pos:].strip() == "":
                break
            bad = pos + len(source[pos:]) - len(source[pos:].lstrip())
            raise ExpressionSyntaxError(f"unexpected character {source[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.source))

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected '{op}'", off)
        self.advance()

    def parse(self) -> Node:
        node = self.parse_sum()
        kind, text, off = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(f"unexpected token {text!r}", off)
        return node

    def parse_sum(self) -> Node:
        node = self.parse_product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_product()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_product(self) -> Node:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def parse_unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Pow(node, self.parse_exponent())
            else:
                return node

    def parse_exponent(self) -> int:
        sign = 1
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            sign = -1
            self.advance()
            kind, text, off = self.peek()
        if kind != "num" or any(c in text for c in ".eE"):
            raise ExpressionSyntaxError("exponent must be an integer literal", off)
        self.advance()
        return sign * int(text)

    def parse_atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "a":
                return Var()
            if text in ALLOWED_FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, off)
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(f"expected a value, got {text!r}", off)


def parse_ast(source: str) -> Node:
    if not source or source.strip() == "":
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(source).parse()


def to_source(node: Node) -> str:
    """Render with the minimum parentheses needed to re-parse identically."""

    def render(n: Node, min_prec: int) -> str:
        kind = type(n)
        prec = _PRECEDENCE[kind]
        if kind is Const:
            text = repr(n.value)
        elif kind is Var:
            text = "a"
        elif kind in _INFIX:
            # left-associative: a right operand of equal precedence is bracketed
            text = f"{render(n.left, prec)}{_INFIX[kind]}{render(n.right, prec + 1)}"
        elif kind is Neg:
            text = f"-{render(n.child, prec)}"
        elif kind is Pow:
            text = f"{render(n.base, prec + 1)}^{n.exponent}"
        else:  # Call
            text = f"{n.name}({render(n.arg, 0)})"
        return f"({text})" if prec < min_prec else text

    return render(node, 0)


_FUNCS = {"exp": np.exp, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}


def _power(base, k: int):
    """base^k as `evaluate` computes it: np.power with the integer k, or
    with float(k) when k < 0, where an integer power of 0 would raise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(base, k) if k >= 0 else np.power(base, float(k))


def evaluate(node: Node, a):
    """Evaluate at `a` (scalar or ndarray) in numpy float64 arithmetic, so a
    scalar gives the bits of a 1-element array.  May produce nan/inf for
    expressions that are undefined at `a`; validation rejects those."""
    if isinstance(node, Const):
        return np.full(np.shape(a), node.value, dtype=np.float64)
    if isinstance(node, Var):
        return np.asarray(a, dtype=np.float64)
    if isinstance(node, Add):
        return evaluate(node.left, a) + evaluate(node.right, a)
    if isinstance(node, Sub):
        return evaluate(node.left, a) - evaluate(node.right, a)
    if isinstance(node, Mul):
        return evaluate(node.left, a) * evaluate(node.right, a)
    if isinstance(node, Div):
        with np.errstate(divide="ignore", invalid="ignore"):
            return evaluate(node.left, a) / evaluate(node.right, a)
    if isinstance(node, Neg):
        return -evaluate(node.child, a)
    if isinstance(node, Pow):
        return _power(evaluate(node.base, a), node.exponent)
    if isinstance(node, Call):
        arg = evaluate(node.arg, a)
        with np.errstate(invalid="ignore"):
            return _FUNCS[node.name](arg)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


# an endpoint of exp, sin, cos or an integer power moves outward by this many
# ulps: numpy's float64 values of these lie within 2 ulps of the real
# function (tests/test_expr.py checks them against the math module), so the
# value at an interior point and the one at an endpoint bracket the real
# range with room to spare
_FUNC_ULPS = 4
# a maximum and a minimum of sin and of cos; each recurs every 2 pi
_PEAKS = {"sin": (0.5 * np.pi, -0.5 * np.pi), "cos": (0.0, np.pi)}
# sin and cos of wider arguments are enclosed by [-1, 1]; up to it, the
# rounding of the peak search stays far inside its margin of 1e-6 period
_TRIG_RANGE = 2.0 ** 20


def _outward(lo, hi, ulps: int, whole=False, exact=(False, False)):
    """[lo, hi] moved `ulps` ulps outward, except at an end that `exact`
    (one flag or bool array per end) marks as the exact result of its
    operation, and (-inf, inf) where `whole` or where either end is NaN."""
    lo_exact, hi_exact = exact
    for _ in range(ulps):
        lo = np.where(lo_exact, lo, np.nextafter(lo, -np.inf))
        hi = np.where(hi_exact, hi, np.nextafter(hi, np.inf))
    whole = whole | np.isnan(lo) | np.isnan(hi)
    if np.any(whole):
        lo, hi = np.where(whole, -np.inf, lo), np.where(whole, np.inf, hi)
    return lo, hi


def _sum_exact(a, b, s):
    """Where the float sum s = a + b is exact: the error term of Knuth's
    two-sum is 0 (NaN, so not exact, at an infinite end)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb) == 0.0


def _peak_inside(lo, hi, peak: float):
    """Where [lo, hi] may hold peak + 2 pi k for an integer k."""
    period = 2.0 * np.pi
    return np.floor((hi - peak) / period + 1e-6) >= np.ceil((lo - peak) / period - 1e-6)


def enclose(node: Node, lo, hi):
    """Interval enclosure of `evaluate` (Moore, *Interval Analysis*, 1966).

    Elementwise over the broadcast endpoint arrays lo <= hi, returns arrays
    (lo', hi') such that every finite float evaluate(node, a) with
    lo <= a <= hi lies in [lo', hi'].  Each operation rounds its endpoints
    outward with np.nextafter: one ulp after + - * / and sqrt, _FUNC_ULPS
    after exp, sin, cos and integer powers.  An end whose operation was
    exact is not rounded: a sum or difference whose two-sum error is 0, a
    product with a factor 0, a quotient with a dividend 0 and sqrt(0); so
    sqrt(0 + a) and sqrt(a*(1 - a)) stay finite at a = 0.  A divisor
    interval that holds 0, a NaN endpoint, or sin or cos of an argument
    interval with an infinite end, gives (-inf, inf), never an error; so a
    finite enclosure also certifies that evaluate is finite on the
    interval.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
    lo, hi = _outward(lo, hi, 0)
    with np.errstate(all="ignore"):
        return _enclose(node, lo, hi)


def _enclose(node: Node, lo, hi):
    if isinstance(node, Const):
        return np.full(lo.shape, node.value), np.full(lo.shape, node.value)
    if isinstance(node, Var):
        return lo, hi
    if isinstance(node, Neg):
        l, h = _enclose(node.child, lo, hi)
        return -h, -l
    if isinstance(node, (Add, Sub, Mul, Div)):
        (al, ah), (bl, bh) = _enclose(node.left, lo, hi), _enclose(node.right, lo, hi)
        if isinstance(node, Add):
            l, h = al + bl, ah + bh
            return _outward(l, h, 1, exact=(_sum_exact(al, bl, l), _sum_exact(ah, bh, h)))
        if isinstance(node, Sub):
            l, h = al - bh, ah - bl
            return _outward(l, h, 1, exact=(_sum_exact(al, -bh, l), _sum_exact(ah, -bl, h)))
        # a product or quotient of intervals takes its extremes at corners,
        # each rounded outward on its own: a product with a factor 0 and a
        # quotient with a dividend 0 are exact
        mul = isinstance(node, Mul)
        op = np.multiply if mul else np.divide
        corners = [(op(a, b), (a == 0.0) | (mul & (b == 0.0))) for a in (al, ah) for b in (bl, bh)]
        lows = [np.where(ex, c, np.nextafter(c, -np.inf)) for c, ex in corners]
        highs = [np.where(ex, c, np.nextafter(c, np.inf)) for c, ex in corners]
        pole = (not mul) & (bl <= 0.0) & (bh >= 0.0)
        return _outward(reduce(np.minimum, lows), reduce(np.maximum, highs), 0, pole)
    if isinstance(node, Pow):
        bl, bh = _enclose(node.base, lo, hi)
        k = node.exponent
        pl, ph = _power(bl, k), _power(bh, k)
        # monotone on each side of 0: an even power across 0 reaches 0, a
        # negative power at 0 has a pole
        l = np.minimum(pl, ph)
        if k > 0 and k % 2 == 0:
            l = np.where((bl < 0.0) & (bh > 0.0), 0.0, l)
        pole = k < 0 and (bl <= 0.0) & (bh >= 0.0)
        return _outward(l, np.maximum(pl, ph), _FUNC_ULPS, pole)
    if isinstance(node, Call):
        al, ah = _enclose(node.arg, lo, hi)
        f = _FUNCS[node.name]
        fl, fh = f(al), f(ah)
        if node.name == "sqrt":
            # below 0 an end is NaN; sqrt(0) = 0 is exact
            return _outward(fl, fh, 1, exact=(al == 0.0, ah == 0.0))
        if node.name == "exp":
            return _outward(fl, fh, _FUNC_ULPS)
        top, bottom = _PEAKS[node.name]
        near = (np.abs(al) <= _TRIG_RANGE) & (np.abs(ah) <= _TRIG_RANGE)
        l = np.where(near & ~_peak_inside(al, ah, bottom), np.minimum(fl, fh), -1.0)
        h = np.where(near & ~_peak_inside(al, ah, top), np.maximum(fl, fh), 1.0)
        # sin and cos of an infinite argument are NaN
        return _outward(l, h, _FUNC_ULPS, ~(np.isfinite(al) & np.isfinite(ah)))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _is_zero(n: Node) -> bool:
    return isinstance(n, Const) and n.value == 0.0


def _is_one(n: Node) -> bool:
    return isinstance(n, Const) and n.value == 1.0


def _add(l: Node, r: Node) -> Node:
    if _is_zero(l):
        return r
    if _is_zero(r):
        return l
    return Add(l, r)


def _sub(l: Node, r: Node) -> Node:
    if _is_zero(r):
        return l
    if _is_zero(l):
        return Neg(r)
    return Sub(l, r)


def _mul(l: Node, r: Node) -> Node:
    if _is_zero(l) or _is_zero(r):
        return Const(0.0)
    if _is_one(l):
        return r
    if _is_one(r):
        return l
    return Mul(l, r)


def differentiate(node: Node) -> Node:
    """Exact derivative with respect to `a`, lightly constant-folded."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Add):
        return _add(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Sub):
        return _sub(differentiate(node.left), differentiate(node.right))
    if isinstance(node, Mul):
        return _add(_mul(differentiate(node.left), node.right),
                    _mul(node.left, differentiate(node.right)))
    if isinstance(node, Div):
        num = _sub(_mul(differentiate(node.left), node.right),
                   _mul(node.left, differentiate(node.right)))
        if _is_zero(num):
            return Const(0.0)
        return Div(num, Pow(node.right, 2))
    if isinstance(node, Neg):
        inner = differentiate(node.child)
        return Const(0.0) if _is_zero(inner) else Neg(inner)
    if isinstance(node, Pow):
        k = node.exponent
        if k == 0:
            return Const(0.0)
        base_d = differentiate(node.base)
        if _is_zero(base_d):
            return Const(0.0)
        coeff = Const(float(abs(k)))
        power_part = node.base if k == 2 else Pow(node.base, k - 1)
        if k == 1:
            return base_d
        term = _mul(_mul(coeff, power_part), base_d)
        return Neg(term) if k < 0 else term
    if isinstance(node, Call):
        arg_d = differentiate(node.arg)
        if _is_zero(arg_d):
            return Const(0.0)
        if node.name == "exp":
            outer: Node = Call("exp", node.arg)
        elif node.name == "sqrt":
            outer = Div(Const(1.0), _mul(Const(2.0), Call("sqrt", node.arg)))
        elif node.name == "sin":
            outer = Call("cos", node.arg)
        else:  # cos
            return _mul(Neg(Call("sin", node.arg)), arg_d)
        return _mul(outer, arg_d)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient: text plus AST, evaluable on [0, 1]."""

    source: str
    ast: Node

    def __call__(self, a):
        return evaluate(self.ast, a)

    def derivative(self) -> "CoefficientExpr":
        d = differentiate(self.ast)
        return CoefficientExpr(to_source(d), d)


def parse_coefficient(source: str) -> CoefficientExpr:
    """Parse coefficient text into an expression tree.

    Raises ExpressionSyntaxError (with byte offset) on malformed input and
    UnknownIdentifierError for names other than `a` and exp/sqrt/sin/cos.
    """
    return CoefficientExpr(source, parse_ast(source))
