"""Minimal arithmetic expressions in one variable `a`.

Model coefficients are supplied as text like ``"0.5*(1 + a)"`` and parsed
into a small AST supporting +, -, *, /, ^ with integer exponents, unary
minus, and the functions exp, sqrt, sin, cos.  Evaluation is vectorized
over numpy arrays; exact derivatives are produced symbolically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

ALLOWED_FUNCTIONS = ("exp", "sqrt", "sin", "cos")

# precedence: + - < * / < unary minus < ^ < atoms
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


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
    def precedence(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float  # nonnegative; negative constants are Neg(Const(...))

    def precedence(self) -> int:
        return _PREC_ATOM


@dataclass(frozen=True)
class Var(Node):
    def precedence(self) -> int:
        return _PREC_ATOM


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node

    def precedence(self) -> int:
        return _PREC_ADD


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node

    def precedence(self) -> int:
        return _PREC_ADD


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node

    def precedence(self) -> int:
        return _PREC_MUL


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node

    def precedence(self) -> int:
        return _PREC_MUL


@dataclass(frozen=True)
class Neg(Node):
    child: Node

    def precedence(self) -> int:
        return _PREC_NEG


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int

    def precedence(self) -> int:
        return _PREC_POW


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def precedence(self) -> int:
        return _PREC_ATOM


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
        if isinstance(n, Const):
            text = repr(n.value)
        elif isinstance(n, Var):
            text = "a"
        elif isinstance(n, Add):
            text = f"{render(n.left, _PREC_ADD)} + {render(n.right, _PREC_ADD + 1)}"
        elif isinstance(n, Sub):
            text = f"{render(n.left, _PREC_ADD)} - {render(n.right, _PREC_ADD + 1)}"
        elif isinstance(n, Mul):
            text = f"{render(n.left, _PREC_MUL)}*{render(n.right, _PREC_MUL + 1)}"
        elif isinstance(n, Div):
            text = f"{render(n.left, _PREC_MUL)}/{render(n.right, _PREC_MUL + 1)}"
        elif isinstance(n, Neg):
            text = f"-{render(n.child, _PREC_NEG)}"
        elif isinstance(n, Pow):
            text = f"{render(n.base, _PREC_ATOM)}^{n.exponent}"
        elif isinstance(n, Call):
            text = f"{n.name}({render(n.arg, 0)})"
        else:  # pragma: no cover
            raise TypeError(f"unknown node {n!r}")
        if n.precedence() < min_prec:
            return f"({text})"
        return text

    return render(node, 0)


_FUNCS = {"exp": np.exp, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}


def evaluate(node: Node, a):
    """Evaluate at `a` (scalar or ndarray). May produce nan/inf for
    expressions that are undefined at `a`; validation rejects those."""
    if isinstance(node, Const):
        return np.full(np.shape(a), node.value, dtype=np.float64) if np.ndim(a) else node.value
    if isinstance(node, Var):
        return np.asarray(a, dtype=np.float64) if np.ndim(a) else float(a)
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
        base = evaluate(node.base, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(base, node.exponent) if node.exponent >= 0 else np.power(base, float(node.exponent))
    if isinstance(node, Call):
        arg = evaluate(node.arg, a)
        with np.errstate(invalid="ignore"):
            return _FUNCS[node.name](arg)
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
