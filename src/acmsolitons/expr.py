"""Symbolic scalar expressions over named chart coordinates.

The expression language is deliberately small: real constants, named
coordinates, the binary operators ``+ - * / ^``, unary minus, and the
functions exp, log, sin, cos, tan, sinh, cosh, tanh, sqrt.  Trees are
immutable and hashable, evaluation is plain IEEE double arithmetic, and
differentiation is exact and closed over the same node set, so rounding
during evaluation is the only numerical error introduced downstream.
Evaluation takes a single point or a whole batch of sample points at once;
a point may also bind the reserved symbol ``a``, the deformation parameter,
to one value or to a column of values in front of the sample axis.

Everything here is pure; trees may be shared and evaluated concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "ParseError", "EvalError", "FUNCTIONS", "CONSTANTS", "A",
    "parse_expr", "evaluate", "locate", "a_tag", "diff", "render",
    "coordinates_of", "add", "sub", "mul", "div", "neg", "pow_", "call",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed input text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExprError):
    """Domain violation during evaluation; carries the offending subtree
    and, for a domain error, the first sample where it occurs (the text
    ``locate`` gives)."""

    def __init__(self, message: str, subtree: "Expr", sample: str = None):
        where = "" if sample is None else f" at sample {sample}"
        super().__init__(f"{message} in '{render(subtree)}'{where}")
        self.subtree = subtree


class Expr:
    """Base expression node.

    Trees are built by the parser or by the folding constructors below
    (``add``, ``mul``, ...), which collapse trivial wrappers such as
    ``1 * e``; nodes define no arithmetic operators.
    """

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


FUNCTIONS: Mapping[str, Callable] = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}

CONSTANTS: Mapping[str, float] = {"pi": math.pi, "e": math.e}

# the reserved symbol of the deformation parameter
A = "a"

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


# ---------------------------------------------------------------------------
# Folding constructors.  They eliminate 0/1 identities and fold constant
# operands, which keeps derivatives compact and makes an a=1 deformed metric
# collapse to the undeformed trees structurally.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _const_value(a) == 0.0:
        return b
    if _const_value(b) == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _const_value(b) == 0.0:
        return a
    if a == b:
        return _ZERO
    if _const_value(a) == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _const_value(a) == 0.0 or _const_value(b) == 0.0:
        return _ZERO
    if _const_value(a) == 1.0:
        return b
    if _const_value(b) == 1.0:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _const_value(b) == 1.0:
        return a
    if _const_value(a) == 0.0:
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Expr, b: Expr) -> Expr:
    if _const_value(b) == 1.0:
        return a
    if _const_value(b) == 0.0:
        return _ONE
    return Pow(a, b)


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function '{func}'")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, point: Mapping):
    """Evaluate ``e`` at ``point``, a mapping coordinate name -> value.

    A value is a float for a single point, or an (N,) array for a batch of
    N sample points; the result is then a float or an (N,) array (a tree
    that reads no coordinate stays a float and broadcasts).

    Raises EvalError on domain violations: division by zero, log of a
    non-positive value, sqrt of a negative value, a negative base with a
    non-integer exponent, overflow inside a function call or a power, or a
    coordinate missing from ``point``.  Each is found with a mask over the
    batch, and the error names the first offending sample.  The operators
    + - * / follow IEEE arithmetic and can return inf or nan without
    raising; callers that need finite values check for them.
    """
    with np.errstate(all="ignore"):
        return _evaluate(e, point)


def a_tag(a) -> str:
    """The tag naming one value of the deformation parameter, ``[a=...]``,
    in check ids and messages."""
    return f"[a={float(a):g}]"


def locate(point, flags) -> str:
    """The sample of ``point`` at which ``flags`` first holds, as text.

    ``point`` is a single point or a batch (values of shape (N,)) and may
    bind the symbol a to a column of shape (A, 1); ``flags`` broadcasts
    against it.  Samples are taken in row-major order, the first a first.
    The text is the sample's coordinates as a plain dict, followed by the
    ``a_tag`` of its a when ``point`` binds one.
    """
    values = {k: np.asarray(v, dtype=float) for k, v in point.items()}
    shape = np.broadcast_shapes(np.shape(flags), *(v.shape for v in values.values()))
    i = int(np.argmax(np.broadcast_to(flags, shape)))
    at = {k: float(np.broadcast_to(v, shape).flat[i]) for k, v in values.items()}
    a = at.pop(A, None)
    return f"{at}" if a is None else f"{at} {a_tag(a)}"


def _refuse(bad, message: str, e: Expr, point) -> None:
    if np.any(bad):
        raise EvalError(message, e, locate(point, bad))


def _evaluate(e: Expr, point):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        try:
            return point[e.name]
        except KeyError:
            raise EvalError(f"unknown coordinate '{e.name}'", e) from None
    if isinstance(e, Neg):
        return -_evaluate(e.arg, point)
    if isinstance(e, Add):
        return _evaluate(e.left, point) + _evaluate(e.right, point)
    if isinstance(e, Sub):
        return _evaluate(e.left, point) - _evaluate(e.right, point)
    if isinstance(e, Mul):
        return _evaluate(e.left, point) * _evaluate(e.right, point)
    if isinstance(e, Div):
        denominator = _evaluate(e.right, point)
        _refuse(np.equal(denominator, 0.0), "division by zero", e, point)
        return _evaluate(e.left, point) / denominator
    if isinstance(e, Pow):
        return _evaluate_pow(e, point)
    if isinstance(e, Call):
        value = _evaluate(e.arg, point)
        out = FUNCTIONS[e.func](value)
        # each refusal below needs a non-finite result: log of a value
        # <= 0 is -inf or NaN, sqrt of a negative value NaN
        if np.isfinite(out).all():
            return out
        if e.func == "log":
            _refuse(np.less_equal(value, 0.0), "log of a non-positive value", e, point)
        if e.func == "sqrt":
            _refuse(np.less(value, 0.0), "sqrt of a negative value", e, point)
        _refuse(np.isfinite(value) & ~np.isfinite(out),
                f"{e.func} failed (math range error)", e, point)
        _refuse(np.isinf(value) & np.isnan(out),
                f"{e.func} failed (math domain error)", e, point)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _evaluate_pow(e: Pow, point):
    base = _evaluate(e.base, point)
    exponent = _evaluate(e.exponent, point)
    out = np.power(base, exponent)
    # with a finite base and exponent, each refusal below needs a
    # non-finite result: 0^-1 is inf, (-8)^(1/3) NaN; (-0.5)^inf = 0 is
    # finite, but its exponent is not, so it is refused below
    if (np.isfinite(out).all() and np.isfinite(base).all()
            and np.isfinite(exponent).all()):
        return out
    _refuse(np.equal(base, 0.0) & np.less(exponent, 0.0),
            "zero base with negative exponent", e, point)
    integral = np.isfinite(exponent) & np.equal(np.floor(exponent), exponent)
    _refuse(np.less(base, 0.0) & ~integral,
            "negative base with non-integer exponent", e, point)
    _refuse(np.isfinite(base) & np.isfinite(exponent) & ~np.isfinite(out),
            "power failed (math range error)", e, point)
    return out


# ---------------------------------------------------------------------------
# Differentiation

def diff(e: Expr, name: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to coordinate ``name``."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Coord):
        return _ONE if e.name == name else _ZERO
    if isinstance(e, Neg):
        return neg(diff(e.arg, name))
    if isinstance(e, Add):
        return add(diff(e.left, name), diff(e.right, name))
    if isinstance(e, Sub):
        return sub(diff(e.left, name), diff(e.right, name))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, name), e.right), mul(e.left, diff(e.right, name)))
    if isinstance(e, Div):
        numerator = sub(
            mul(diff(e.left, name), e.right), mul(e.left, diff(e.right, name))
        )
        return div(numerator, pow_(e.right, Const(2.0)))
    if isinstance(e, Pow):
        du = diff(e.base, name)
        if isinstance(e.exponent, Const):
            k = e.exponent.value
            return mul(mul(e.exponent, pow_(e.base, Const(k - 1.0))), du)
        # u^v = exp(v log u): derivative u^v (v' log u + v u'/u)
        dv = diff(e.exponent, name)
        inner = add(mul(dv, call("log", e.base)), mul(e.exponent, div(du, e.base)))
        return mul(e, inner)
    if isinstance(e, Call):
        du = diff(e.arg, name)
        u = e.arg
        if e.func == "exp":
            return mul(e, du)
        if e.func == "log":
            return div(du, u)
        if e.func == "sin":
            return mul(call("cos", u), du)
        if e.func == "cos":
            return neg(mul(call("sin", u), du))
        if e.func == "tan":
            return mul(add(_ONE, pow_(e, Const(2.0))), du)
        if e.func == "sinh":
            return mul(call("cosh", u), du)
        if e.func == "cosh":
            return mul(call("sinh", u), du)
        if e.func == "tanh":
            return mul(sub(_ONE, pow_(e, Const(2.0))), du)
        if e.func == "sqrt":
            return div(du, mul(Const(2.0), e))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Rendering

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        return _PREC_NEG  # renders with a leading minus
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def render(e: Expr) -> str:
    """Render a tree as parseable text with minimal parentheses.

    For trees in the parser's image (negative values spelled with unary
    minus rather than negative Const nodes) the round trip
    ``parse_expr(render(t)) == t`` holds structurally.
    """
    return _render(e)


def _render(e: Expr) -> str:
    if isinstance(e, Const):
        if math.copysign(1.0, e.value) < 0:
            return "-" + _wrap(Const(-e.value), _PREC_NEG)
        return repr(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)} * {_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)} / {_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        # grammar: power := atom ('^' factor), so the base must be atomic
        return f"{_wrap(e.base, _PREC_ATOM)}^{_wrap(e.exponent, _PREC_NEG)}"
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, minimum: int) -> str:
    text = _render(e)
    return text if _prec(e) >= minimum else f"({text})"


def coordinates_of(e: Expr) -> set:
    """Names of all coordinates appearing in the tree."""
    if isinstance(e, Coord):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Neg):
        return coordinates_of(e.arg)
    if isinstance(e, Call):
        return coordinates_of(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return coordinates_of(e.left) | coordinates_of(e.right)
    if isinstance(e, Pow):
        return coordinates_of(e.base) | coordinates_of(e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing.  Recursive descent over the grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | power
#   power  := atom ('^' factor)?
#   atom   := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = coords

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            if op == ")":
                raise ParseError("unbalanced parentheses, expected ')'", offset)
            raise ParseError(f"expected '{op}'", offset)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            if text == ")":
                raise ParseError("unbalanced parentheses, unexpected ')'", offset)
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                e = Add(e, right) if text == "+" else Sub(e, right)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.factor()
                e = Mul(e, right) if text == "*" else Div(e, right)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(e, self.factor())
        return e

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                return self.call(text, offset)
            if text in CONSTANTS:
                return Const(CONSTANTS[text])
            if self.coords is not None and text not in self.coords:
                raise ParseError(f"unknown identifier '{text}'", offset)
            return Coord(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        return self._unexpected(text, offset)

    def call(self, name: str, name_offset: int) -> Expr:
        if name not in FUNCTIONS:
            raise ParseError(f"unknown identifier '{name}'", name_offset)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) != 1:
            raise ParseError(
                f"'{name}' takes 1 argument, got {len(args)}", name_offset
            )
        return Call(name, args[0])

    @staticmethod
    def _unexpected(text, offset):
        if text == ")":
            raise ParseError("unbalanced parentheses, unexpected ')'", offset)
        raise ParseError(f"unexpected {text!r}", offset)


def parse_expr(text: str, coords=None) -> Expr:
    """Parse text into an expression tree.

    ``coords``, when given, is the collection of coordinate names allowed to
    appear; any other bare identifier raises ParseError.  ``pi`` and ``e``
    always denote constants, and the nine function names are reserved.
    """
    allowed = None if coords is None else set(coords)
    return _Parser(text, allowed).parse()
