"""Flat `key = value` experiment configs.

Grammar: one assignment per line, `#` starts a comment, values are
numbers, double-quoted strings, `true`/`false`, or bracketed lists of
numbers/strings.  Errors carry one-based line numbers.  Initial
distributions are written as e.g. "gaussian(0,1)", "point_mass(0)",
"uniform(-1,2)", or "mixture(0.3 gaussian(0,1), 0.7 uniform(-1,2))".
A number, in a value or in an init spec, is an `expr.NUMBER` numeral with
an optional sign, as in a coefficient expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .expr import NUMBER, Tokens

if TYPE_CHECKING:
    from .measures import InitialDistribution

__all__ = ["ConfigError", "MAX_COUNT", "RunConfig", "parse_config", "parse_init"]

_REQUIRED = object()

# the largest value of a key that sizes arrays (`RunConfig.count`): far
# beyond any study on one machine, so that a slip such as steps = 10**30 is
# a config error naming the key, not an allocation that numpy refuses or
# that runs out of memory
MAX_COUNT = 2**20


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_NUM_RE = re.compile(rf"[-+]?(?:{NUMBER})")


def _parse_scalar(text: str, line: int):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    if _NUM_RE.fullmatch(text):
        try:
            return int(text) if re.fullmatch(r"[-+]?\d+", text) else float(text)
        except ValueError:  # an integer literal past Python's digit limit
            raise ConfigError(f"integer literal of {len(text)} characters is too long", line) from None
    raise ConfigError(f"cannot parse value {text!r}", line)


def _parse_value(text: str, line: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("unterminated list", line)
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, line) for part in inner.split(",")]
    return _parse_scalar(text, line)


def parse_config(text: str) -> "RunConfig":
    values: dict = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", i)
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"bad key {key!r}", i)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", i)
        values[key] = _parse_value(value, i)
    return RunConfig(values=values, source=text)


@dataclass(frozen=True)
class RunConfig:
    values: dict
    source: str = field(default="", repr=False)
    # keys looked up so far, so that keys no command reads can be reported
    read: set = field(default_factory=set, repr=False, compare=False)

    def sha256(self) -> str:
        import hashlib  # here, so that parsing a config does not load OpenSSL

        return hashlib.sha256(self.source.encode()).hexdigest()

    def unread(self) -> list:
        """Keys of the file that no lookup has asked for, in file order."""
        return [k for k in self.values if k not in self.read]

    def _get(self, key: str, default):
        self.read.add(key)
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def num(self, key: str, default=_REQUIRED) -> float:
        v = self._get(key, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"key {key!r} must be a number, got {v!r}")
        return _finite(key, v)

    def integer(self, key: str, default=_REQUIRED) -> int:
        v = self._get(key, default)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"key {key!r} must be an integer, got {v!r}")
        return v

    def count(self, key: str, default=_REQUIRED) -> int:
        """An integer key that sizes arrays (steps, cells, n, replicas,
        table_resolution): at most MAX_COUNT."""
        return _count(key, self.integer(key, default))

    def text(self, key: str, default=_REQUIRED) -> str:
        v = self._get(key, default)
        if not isinstance(v, str):
            raise ConfigError(f"key {key!r} must be a string, got {v!r}")
        return v

    def flag(self, key: str, default=_REQUIRED) -> bool:
        v = self._get(key, default)
        if not isinstance(v, bool):
            raise ConfigError(f"key {key!r} must be true or false, got {v!r}")
        return v

    def num_list(self, key: str, default=_REQUIRED) -> list:
        v = self._get(key, default)
        if not isinstance(v, list) or not v or any(isinstance(x, (str, bool)) for x in v):
            raise ConfigError(f"key {key!r} must be a non-empty list of numbers, got {v!r}")
        return [_finite(key, x) for x in v]

    def int_list(self, key: str, default=_REQUIRED) -> list:
        """A list of counts (n_list): each at most MAX_COUNT."""
        v = self._get(key, default)
        if not isinstance(v, list) or not v or any(not isinstance(x, int) or isinstance(x, bool) for x in v):
            raise ConfigError(f"key {key!r} must be a non-empty list of integers, got {v!r}")
        return [_count(key, x) for x in v]


def _count(key: str, v: int) -> int:
    if v > MAX_COUNT:
        raise ConfigError(f"key {key!r} = {v} exceeds the largest count {MAX_COUNT}")
    return v


def _finite(key: str, v) -> float:
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"key {key!r} must be finite, got an integer beyond the float range") from None
    if not math.isfinite(x):  # a literal such as 1e400 reads as inf
        raise ConfigError(f"key {key!r} must be finite, got {x!r}")
    return x


# law name -> number of parameters of its constructor in `measures`; `mixture` nests laws
_LAWS = {"point_mass": 1, "uniform": 2, "gaussian": 2}


def parse_init(spec: str) -> InitialDistribution:
    """Parse an initial-distribution spec string, on the expression
    tokenizer: a sign is a token of its own, as in an expression."""
    from . import measures  # here, so that the set-up path loads no sampler

    def number() -> float:
        kind, text, _ = toks.advance()
        sign = -1.0 if text == "-" else 1.0
        if text in ("-", "+"):
            kind, text, _ = toks.advance()
        # a name such as nan or inf is no numeral, and 1e400 reads as inf
        if kind != "num" or not math.isfinite(float(text)):
            raise ConfigError(f"expected a finite number in init spec {spec!r}, got {text!r}")
        return sign * float(text)

    def dist() -> InitialDistribution:
        _, name, _ = toks.advance()
        toks.expect("(")
        if name in _LAWS:
            args = [number()]
            for _ in range(_LAWS[name] - 1):
                toks.expect(",")
                args.append(number())
            toks.expect(")")
            return getattr(measures, name)(*args)
        if name == "mixture":
            weights, laws = [number()], [dist()]
            while toks.take(","):
                weights.append(number())
                laws.append(dist())
            toks.expect(")")
            return measures.mixture(laws, weights)
        raise ConfigError(f"unknown initial distribution {name!r}")

    try:
        toks = Tokens(spec)
        out = dist()
        if toks.peek()[0] is not None:
            raise ConfigError(f"trailing tokens in init spec {spec!r}")
    except ConfigError:
        raise
    # a malformed spec, or a law its constructor rejects, such as uniform(2, 1)
    except ValueError as e:
        raise ConfigError(f"invalid initial distribution {spec!r}: {e}") from None
    return out
