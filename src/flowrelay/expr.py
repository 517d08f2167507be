"""Scalar expression language for vector-field components and level functions.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := number | var | func "(" expr ")" | "(" expr ")"
    var    := "x" digit+            (1-based, up to the declared dimension)
    func   := "sin"|"cos"|"exp"|"sqrt"|"tanh"

An :class:`Expression` is immutable after :func:`parse`; evaluation and
differentiation are pure, so one instance may be shared across workers.
Derivatives are exact: :func:`derive` applies the forward-mode chain rule
to the AST once, and the n partials compile into one gradient function,
like the value (no finite differences).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError, ParseError, UnknownVariableError

__all__ = [
    "Expression",
    "Node",
    "Num",
    "Var",
    "Neg",
    "Fun",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "parse",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "tanh")
_EVAL_FAILURES = (ValueError, ZeroDivisionError, OverflowError)


class Node:
    """Base class for AST nodes (all concrete nodes are frozen dataclasses)."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based, printed as x1..xn


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Fun(Node):
    name: str
    arg: Node


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
class Pow(Node):
    base: Node
    exponent: Node


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, "", len(self.text))

    def _advance(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, value, pos = self._peek()
        if kind != "op" or value != op:
            raise ParseError(f"found {value!r}" if kind else "unexpected end of input",
                             pos, expected=repr(op))
        self.i += 1

    def parse(self) -> Node:
        if not self.tokens:
            raise ParseError("empty expression", 0, expected="an expression")
        node = self._expr()
        kind, value, pos = self._peek()
        if kind is not None:
            raise ParseError(f"trailing input {value!r}", pos, expected="end of input")
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self.i += 1
                rhs = self._term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def _term(self) -> Node:
        node = self._factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "*/":
                self.i += 1
                rhs = self._factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def _factor(self) -> Node:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self.i += 1
            return Neg(self._power())
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self.i += 1
            return Pow(base, self._factor())  # right-associative
        return base

    def _atom(self) -> Node:
        kind, value, pos = self._advance()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            if value in FUNCTIONS:
                self._expect_op("(")
                arg = self._expr()
                self._expect_op(")")
                return Fun(value, arg)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.n:
                    raise UnknownVariableError(
                        f"variable {value!r} outside x1..x{self.n}", pos)
                return Var(index)
            raise ParseError(f"unknown identifier {value!r}", pos,
                             expected="a variable x<k> or a function name")
        if kind == "op" and value == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        if kind is None:
            raise ParseError("unexpected end of input", pos, expected="an operand")
        raise ParseError(f"unexpected token {value!r}", pos, expected="an operand")


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(to_string(e)) is structurally identical)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt(node: Node, ctx: int) -> str:
    if isinstance(node, Num):
        if node.value < 0 or math.copysign(1.0, node.value) < 0:
            # API-built negative literals print (and round-trip) as a unary minus
            return _wrap(f"-{repr(-node.value)}", _PREC_NEG, ctx)
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Fun):
        return f"{node.name}({_fmt(node.arg, 0)})"
    if isinstance(node, Neg):
        return _wrap(f"-{_fmt(node.arg, _PREC_POW)}", _PREC_NEG, ctx)
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        s = f"{_fmt(node.left, _PREC_ADD)}{op}{_fmt(node.right, _PREC_ADD + 1)}"
        return _wrap(s, _PREC_ADD, ctx)
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        s = f"{_fmt(node.left, _PREC_MUL)}{op}{_fmt(node.right, _PREC_MUL + 1)}"
        return _wrap(s, _PREC_MUL, ctx)
    if isinstance(node, Pow):
        s = f"{_fmt(node.base, _PREC_ATOM)}^{_fmt(node.exponent, _PREC_NEG)}"
        return _wrap(s, _PREC_POW, ctx)
    raise TypeError(f"not an AST node: {node!r}")


def _wrap(s: str, prec: int, ctx: int) -> str:
    return f"({s})" if prec < ctx else s


# ---------------------------------------------------------------------------
# Compiled evaluation (scalar and batched)
# ---------------------------------------------------------------------------

def _emit(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg)})"
    if isinstance(node, Fun):
        return f"_{node.name}({_emit(node.arg)})"
    if isinstance(node, Add):
        return f"({_emit(node.left)} + {_emit(node.right)})"
    if isinstance(node, Sub):
        return f"({_emit(node.left)} - {_emit(node.right)})"
    if isinstance(node, Mul):
        return f"({_emit(node.left)} * {_emit(node.right)})"
    if isinstance(node, Div):
        return f"({_emit(node.left)} / {_emit(node.right)})"
    if isinstance(node, Pow):
        return f"_pow({_emit(node.base)}, {_emit(node.exponent)})"
    raise TypeError(f"not an AST node: {node!r}")


# log appears only in derived trees (variable exponents), never in parsed ones
_SCALAR_NS = {
    "_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
    "_sqrt": math.sqrt, "_tanh": math.tanh, "_pow": math.pow, "_log": math.log,
}
_ARRAY_NS = {
    "_sin": np.sin, "_cos": np.cos, "_exp": np.exp,
    "_sqrt": np.sqrt, "_tanh": np.tanh, "_pow": np.power, "_log": np.log,
}


def _compile(body: Node | tuple[Node, ...], n: int, ns: dict) -> Callable:
    """Compile one tree to a function of x1..xn, or a tuple of trees to a
    function returning the tuple of their values, with the functions of ns
    (_SCALAR_NS over floats, _ARRAY_NS over numpy columns)."""
    args = ", ".join(f"x{i}" for i in range(1, n + 1))
    if isinstance(body, Node):
        ret = _emit(body)
    else:
        ret = "(" + "".join(f"{_emit(b)}, " for b in body) + ")"
    src = f"def _fn({args}):\n    return {ret}\n"
    scope = dict(ns)
    exec(compile(src, "<flowrelay-expr>", "exec"), scope)
    return scope["_fn"]


# ---------------------------------------------------------------------------
# Symbolic partials (the forward-mode chain rule materialized as ASTs, then
# compiled like any expression)
# ---------------------------------------------------------------------------

def _n_add(a: Node, b: Node) -> Node:
    if a == Num(0.0):
        return b
    if b == Num(0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def _n_sub(a: Node, b: Node) -> Node:
    if b == Num(0.0):
        return a
    if a == Num(0.0):
        return Neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def _n_mul(a: Node, b: Node) -> Node:
    if a == Num(0.0) or b == Num(0.0):
        return Num(0.0)
    if a == Num(1.0):
        return b
    if b == Num(1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def _n_div(a: Node, b: Node) -> Node:
    if a == Num(0.0):
        return Num(0.0)
    if b == Num(1.0):
        return a
    return Div(a, b)


def _n_pow(a: Node, c: Node) -> Node:
    if c == Num(1.0):
        return a
    if c == Num(0.0):
        return Num(1.0)
    return Pow(a, c)


def derive(node: Node, index: int) -> Node:
    """Exact partial derivative of the subtree with respect to x<index>.

    The result may contain ``log`` (from a variable exponent), which the
    grammar does not accept: derived trees are compiled, never parsed.
    """
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.index == index else Num(0.0)
    if isinstance(node, Neg):
        d = derive(node.arg, index)
        return Num(0.0) if d == Num(0.0) else Neg(d)
    if isinstance(node, Fun):
        d = derive(node.arg, index)
        if d == Num(0.0):
            return Num(0.0)
        a = node.arg
        if node.name == "sin":
            outer: Node = Fun("cos", a)
        elif node.name == "cos":
            outer = Neg(Fun("sin", a))
        elif node.name == "exp":
            outer = Fun("exp", a)
        elif node.name == "sqrt":
            outer = _n_div(Num(0.5), Fun("sqrt", a))
        elif node.name == "tanh":
            outer = _n_sub(Num(1.0), Pow(Fun("tanh", a), Num(2.0)))
        else:
            raise TypeError(f"unknown function {node.name!r}")
        return _n_mul(outer, d)
    if isinstance(node, Add):
        return _n_add(derive(node.left, index), derive(node.right, index))
    if isinstance(node, Sub):
        return _n_sub(derive(node.left, index), derive(node.right, index))
    if isinstance(node, Mul):
        return _n_add(_n_mul(derive(node.left, index), node.right),
                      _n_mul(node.left, derive(node.right, index)))
    if isinstance(node, Div):
        num = _n_sub(_n_mul(derive(node.left, index), node.right),
                     _n_mul(node.left, derive(node.right, index)))
        return _n_div(num, _n_mul(node.right, node.right))
    if isinstance(node, Pow):
        # d(a^c) = c*a^(c-1)*a' + a^c*log(a)*c'
        a, c = node.base, node.exponent
        d = _n_mul(_n_mul(c, _n_pow(a, _n_sub(c, Num(1.0)))), derive(a, index))
        dc = derive(c, index)
        if dc == Num(0.0):
            return d
        return _n_add(d, _n_mul(_n_mul(node, Fun("log", a)), dc))
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Public Expression type and parse
# ---------------------------------------------------------------------------

class Expression:
    """An immutable parsed expression over variables x1..xn."""

    __slots__ = ("root", "n", "_fns")

    def __init__(self, root: Node, n: int):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        _check_tree(root, n)
        self.root = root
        self.n = n
        self._fns: dict = {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expression)
                and self.n == other.n and self.root == other.root)

    def __hash__(self) -> int:
        return hash((self.root, self.n))

    def __repr__(self) -> str:
        return f"Expression({_fmt(self.root, 0)!r}, n={self.n})"

    def __str__(self) -> str:
        return _fmt(self.root, 0)

    # -- evaluation ---------------------------------------------------------

    def _compiled(self, array: bool, grad: bool) -> Callable:
        """The compiled function of floats, or with array of numpy columns
        (constant parts come back as plain floats): the value, or with grad
        the tuple of the n partials. Built on first use."""
        fn = self._fns.get((array, grad))
        if fn is None:
            body = (tuple(derive(self.root, j) for j in range(1, self.n + 1))
                    if grad else self.root)
            fn = self._fns[array, grad] = _compile(
                body, self.n, _ARRAY_NS if array else _SCALAR_NS)
        return fn

    def _lie(self, field) -> tuple[Callable, Callable]:
        """(f, L_V f), the value and the Lie derivative sum_j df/dx_j * V_j,
        summed in index order, along the field V of field.components: one
        pair of trees compiled over floats and over numpy columns, in that
        order. Built on first use per field object."""
        fns = self._fns.get(field)
        if fns is None:
            lie: Node = Num(0.0)
            for j, c in enumerate(field.components, 1):
                lie = _n_add(lie, _n_mul(derive(self.root, j), c.root))
            fns = self._fns[field] = tuple(
                _compile((self.root, lie), self.n, ns)
                for ns in (_SCALAR_NS, _ARRAY_NS))
        return fns

    def _check_point(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1:] != (self.n,):
            raise ValueError(f"point has dimension {arr.shape[-1:]}, expected {self.n}")
        return arr

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate at a point (n,) -> float, or a batch (..., n) -> (...,) array."""
        arr = self._check_point(x)
        if arr.ndim == 1:
            try:
                out = self._compiled(False, False)(*arr.tolist())
            except _EVAL_FAILURES as exc:
                raise EvalError(f"evaluation failed: {exc}") from exc
            if not math.isfinite(out):
                raise EvalError(f"non-finite value {out!r}")
            return out
        cols = [arr[..., j] for j in range(self.n)]
        with np.errstate(all="ignore"):
            out = self._compiled(True, False)(*cols)
        out = np.asarray(out, dtype=float)
        if out.shape != arr.shape[:-1]:
            out = np.broadcast_to(out, arr.shape[:-1]).copy()
        if not np.all(np.isfinite(out)):
            raise EvalError("non-finite value in batched evaluation")
        return out

    def gradient(self, x) -> np.ndarray:
        """Exact gradient at a point (n,) -> (n,), or a batch (..., n) -> (..., n)."""
        arr = self._check_point(x)
        if arr.ndim == 1:
            return np.array(_floats(self._compiled(False, True), arr.tolist(),
                                    "gradient"), dtype=float)
        cols = [arr[..., j] for j in range(self.n)]
        with np.errstate(all="ignore"):
            parts = self._compiled(True, True)(*cols)
        g = np.stack([np.broadcast_to(d, arr.shape[:-1]) for d in parts], axis=-1)
        if not np.all(np.isfinite(g)):
            raise EvalError("non-finite gradient")
        return g


def _floats(fn: Callable, xs: list[float], what: str) -> tuple[float, ...]:
    """fn(*xs) for a function compiled over floats that returns a tuple:
    EvalError naming what when it fails or returns a non-finite entry."""
    try:
        out = fn(*xs)
    except _EVAL_FAILURES as exc:
        raise EvalError(f"{what} failed: {exc}") from exc
    if not all(map(math.isfinite, out)):
        raise EvalError(f"non-finite {what} {out!r}")
    return out


def _check_tree(node: Node, n: int) -> None:
    if isinstance(node, Var):
        if not 1 <= node.index <= n:
            raise UnknownVariableError(f"variable x{node.index} outside x1..x{n}", -1)
        return
    if isinstance(node, Num):
        return
    if isinstance(node, (Neg,)):
        _check_tree(node.arg, n)
        return
    if isinstance(node, Fun):
        if node.name not in FUNCTIONS:
            raise ValueError(f"unknown function {node.name!r}")
        _check_tree(node.arg, n)
        return
    if isinstance(node, (Add, Sub, Mul, Div)):
        _check_tree(node.left, n)
        _check_tree(node.right, n)
        return
    if isinstance(node, Pow):
        _check_tree(node.base, n)
        _check_tree(node.exponent, n)
        return
    raise TypeError(f"not an AST node: {node!r}")


def parse(text: str, n: int) -> Expression:
    """Parse expression text against dimension n."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected="an expression")
    return Expression(_Parser(text, n).parse(), n)

