"""Minimal arithmetic expressions in one variable `a`.

Model coefficients are supplied as text like ``"0.5*(1 + a)"`` and parsed
into a tree of tagged tuples, which compare and hash by structure:

- a float for a constant (nonnegative: -c is ``("neg", c)``);
- the string ``"a"`` for the variable;
- ``(op, left, right)`` for op in ``+ - * /``;
- ``("neg", x)`` for unary minus;
- ``("^", x, k)`` for x to an integer power k;
- ``(name, x)`` for the functions exp, sqrt, sin and cos.

Evaluation is vectorized over numpy arrays; exact derivatives are produced
symbolically, and `enclose` bounds the float values over intervals by
interval arithmetic.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

ALLOWED_FUNCTIONS = ("exp", "sqrt", "sin", "cos")


class InputError(ValueError):
    """The caller's input breaks a rule of a run: a config, an expression or
    a parameter outside the domain where the model is defined.  The CLI
    reports it as a config error (exit 2)."""


class ExpressionSyntaxError(InputError):
    """Malformed expression text; `offset` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier other than `a` or an allowed function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


# binding strength, loosest first: + - < * / < unary minus < ^ < atoms and
# calls (5); the parser (`_parse`) and the printer (`to_source`) both read it
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_INFIX = {"+": " + ", "-": " - ", "*": "*", "/": "/"}


# a numeral, unsigned: a sign is a token of its own
NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<num>{NUMBER})|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))")


class Tokens:
    """A cursor over the tokens (kind, text, offset) of `source`, where kind
    is "num", "name" or "op", and (None, None, len(source)) past the end.
    An operator character outside `ops` is an unexpected character, as is
    any character no token matches."""

    def __init__(self, source: str, ops: str = "-+*/^(),"):
        self.source, self.tokens, self.i = source, [], 0
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.lastgroup == "op" and m.group("op") not in ops:
                if source[pos:].strip() == "":  # trailing whitespace only
                    break
                bad = pos + len(source[pos:]) - len(source[pos:].lstrip())
                raise ExpressionSyntaxError(f"unexpected character {source[bad]!r}", bad)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.source))

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def take(self, op: str) -> bool:
        """Consume the operator `op` if it comes next."""
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            self.i += 1
            return True
        return False

    def expect(self, op: str):
        if not self.take(op):
            raise ExpressionSyntaxError(f"expected '{op}'", self.peek()[2])


def _parse(toks: Tokens, min_prec: int = 1):
    """Precedence climbing on _PRECEDENCE: an operand, then every infix
    operator that binds at least as tightly as `min_prec`."""
    if toks.take("-"):
        node = ("neg", _parse(toks, _PRECEDENCE["neg"]))
    else:
        node = _atom(toks)
    while True:
        kind, op, _ = toks.peek()
        prec = _PRECEDENCE.get(op, 0) if kind == "op" else 0
        if prec < min_prec:
            return node
        toks.advance()
        # left-associative: the right operand binds strictly tighter
        node = ("^", node, _exponent(toks)) if op == "^" else (op, node, _parse(toks, prec + 1))


def _exponent(toks: Tokens) -> int:
    sign = -1 if toks.take("-") else 1
    kind, text, off = toks.peek()
    if kind != "num" or any(c in text for c in ".eE"):
        raise ExpressionSyntaxError("exponent must be an integer literal", off)
    toks.advance()
    try:
        return sign * int(text)
    except ValueError:  # past Python's integer-string digit limit
        raise ExpressionSyntaxError(f"exponent of {len(text)} digits is too long", off) from None


def _atom(toks: Tokens):
    kind, text, off = toks.advance()
    if kind == "num":
        return float(text)
    if kind == "name":
        if text == "a":
            return text
        if text in ALLOWED_FUNCTIONS:
            toks.expect("(")
            arg = _parse(toks)
            toks.expect(")")
            return (text, arg)
        raise UnknownIdentifierError(text, off)
    if kind == "op" and text == "(":
        node = _parse(toks)
        toks.expect(")")
        return node
    raise ExpressionSyntaxError(f"expected a value, got {text!r}", off)


def parse_ast(source: str):
    if not source or source.strip() == "":
        raise ExpressionSyntaxError("empty expression", 0)
    # an expression has no comma: one is an unexpected character
    toks = Tokens(source, ops="-+*/^()")
    node = _parse(toks)
    kind, text, off = toks.peek()
    if kind is not None:
        raise ExpressionSyntaxError(f"unexpected token {text!r}", off)
    return node


def to_source(node) -> str:
    """Render with the minimum parentheses needed to re-parse identically."""

    def render(n, min_prec: int) -> str:
        if isinstance(n, float):
            return repr(n)
        if n == "a":
            return n
        op = n[0]
        prec = _PRECEDENCE.get(op, 5)
        if op in _INFIX:
            # left-associative: a right operand of equal precedence is bracketed
            text = f"{render(n[1], prec)}{_INFIX[op]}{render(n[2], prec + 1)}"
        elif op == "neg":
            text = f"-{render(n[1], prec)}"
        elif op == "^":
            text = f"{render(n[1], prec + 1)}^{n[2]}"
        else:  # a function
            text = f"{op}({render(n[1], 0)})"
        return f"({text})" if prec < min_prec else text

    return render(node, 0)


# the operators, not the ufuncs: on numpy scalars they take numpy's scalar path
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FUNCS = {"exp": np.exp, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}


def _power(base, k: int):
    """base^k as `evaluate` computes it: np.power with the integer k, or
    with float(k) when k < 0, where an integer power of 0 would raise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(base, k) if k >= 0 else np.power(base, float(k))


def evaluate(node, a):
    """Evaluate at `a` (scalar or ndarray) in numpy float64 arithmetic, so a
    scalar gives the bits of a 1-element array.  May produce nan/inf for
    expressions that are undefined at `a`; validation rejects those."""
    if isinstance(node, float):
        return np.full(np.shape(a), node, dtype=np.float64)
    if node == "a":
        return np.asarray(a, dtype=np.float64)
    op, x = node[0], node[1]
    if op in _BINARY:
        if op != "/":
            return _BINARY[op](evaluate(x, a), evaluate(node[2], a))
        with np.errstate(divide="ignore", invalid="ignore"):
            return evaluate(x, a) / evaluate(node[2], a)
    if op == "neg":
        return -evaluate(x, a)
    if op == "^":
        return _power(evaluate(x, a), node[2])
    x = evaluate(x, a)
    with np.errstate(invalid="ignore"):
        return _FUNCS[op](x)


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


def enclose(node, lo, hi):
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


def _enclose(node, lo, hi):
    if isinstance(node, float):
        return np.full(lo.shape, node), np.full(lo.shape, node)
    if node == "a":
        return lo, hi
    op, x = node[0], node[1]
    if op == "neg":
        l, h = _enclose(x, lo, hi)
        return -h, -l
    if op in _BINARY:
        (al, ah), (bl, bh) = _enclose(x, lo, hi), _enclose(node[2], lo, hi)
        if op == "+":
            l, h = al + bl, ah + bh
            return _outward(l, h, 1, exact=(_sum_exact(al, bl, l), _sum_exact(ah, bh, h)))
        if op == "-":
            l, h = al - bh, ah - bl
            return _outward(l, h, 1, exact=(_sum_exact(al, -bh, l), _sum_exact(ah, -bl, h)))
        # a product or quotient of intervals takes its extremes at corners,
        # each rounded outward on its own: a product with a factor 0 and a
        # quotient with a dividend 0 are exact
        mul = op == "*"
        corners = [(_BINARY[op](a, b), (a == 0.0) | (mul & (b == 0.0))) for a in (al, ah) for b in (bl, bh)]
        lows = [np.where(ex, c, np.nextafter(c, -np.inf)) for c, ex in corners]
        highs = [np.where(ex, c, np.nextafter(c, np.inf)) for c, ex in corners]
        pole = (not mul) & (bl <= 0.0) & (bh >= 0.0)
        return _outward(reduce(np.minimum, lows), reduce(np.maximum, highs), 0, pole)
    if op == "^":
        bl, bh = _enclose(x, lo, hi)
        k = node[2]
        pl, ph = _power(bl, k), _power(bh, k)
        # monotone on each side of 0: an even power across 0 reaches 0, a
        # negative power at 0 has a pole
        l = np.minimum(pl, ph)
        if k > 0 and k % 2 == 0:
            l = np.where((bl < 0.0) & (bh > 0.0), 0.0, l)
        pole = k < 0 and (bl <= 0.0) & (bh >= 0.0)
        return _outward(l, np.maximum(pl, ph), _FUNC_ULPS, pole)
    al, ah = _enclose(x, lo, hi)
    fl, fh = _FUNCS[op](al), _FUNCS[op](ah)
    if op == "sqrt":
        # below 0 an end is NaN; sqrt(0) = 0 is exact
        return _outward(fl, fh, 1, exact=(al == 0.0, ah == 0.0))
    if op == "exp":
        return _outward(fl, fh, _FUNC_ULPS)
    top, bottom = _PEAKS[op]
    near = (np.abs(al) <= _TRIG_RANGE) & (np.abs(ah) <= _TRIG_RANGE)
    l = np.where(near & ~_peak_inside(al, ah, bottom), np.minimum(fl, fh), -1.0)
    h = np.where(near & ~_peak_inside(al, ah, top), np.maximum(fl, fh), 1.0)
    # sin and cos of an infinite argument are NaN
    return _outward(l, h, _FUNC_ULPS, ~(np.isfinite(al) & np.isfinite(ah)))


# constant folding: a tree equal to 0.0 or 1.0 is that constant
def _add(l, r):
    return r if l == 0.0 else l if r == 0.0 else ("+", l, r)


def _sub(l, r):
    return l if r == 0.0 else ("neg", r) if l == 0.0 else ("-", l, r)


def _mul(l, r):
    if l == 0.0 or r == 0.0:
        return 0.0
    return r if l == 1.0 else l if r == 1.0 else ("*", l, r)


# the derivative of each function, as a tree in its argument x
_OUTER = {
    "exp": lambda x: ("exp", x),
    "sqrt": lambda x: ("/", 1.0, ("*", 2.0, ("sqrt", x))),
    "sin": lambda x: ("cos", x),
    "cos": lambda x: ("neg", ("sin", x)),
}


def differentiate(node):
    """Exact derivative with respect to `a`, lightly constant-folded."""
    if isinstance(node, float):
        return 0.0
    if node == "a":
        return 1.0
    op, x = node[0], node[1]
    if op in _BINARY:
        y = node[2]
        dx, dy = differentiate(x), differentiate(y)
        if op == "+":
            return _add(dx, dy)
        if op == "-":
            return _sub(dx, dy)
        if op == "*":
            return _add(_mul(dx, y), _mul(x, dy))
        num = _sub(_mul(dx, y), _mul(x, dy))
        return 0.0 if num == 0.0 else ("/", num, ("^", y, 2))
    dx = differentiate(x)
    if dx == 0.0:
        return 0.0
    if op == "neg":
        return ("neg", dx)
    if op == "^":
        k = node[2]
        if k == 1:
            return dx
        # k = 0 folds to 0.0 in _mul
        term = _mul(_mul(float(abs(k)), x if k == 2 else ("^", x, k - 1)), dx)
        return ("neg", term) if k < 0 else term
    return _mul(_OUTER[op](x), dx)


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient: text plus tree (see the module docstring),
    evaluable on [0, 1]."""

    source: str
    ast: float | str | tuple

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
