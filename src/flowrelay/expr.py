"""Scalar expression language for vector-field components and level functions.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := number | var | func "(" expr ")" | "(" expr ")"
    var    := "x" digit+            (1-based, up to the declared dimension)
    func   := "sin"|"cos"|"exp"|"sqrt"|"tanh"
    number := a decimal literal that is finite (1e999 is a ParseError)

An :class:`Expression` is immutable after :func:`parse`; evaluation and
differentiation are pure, so one instance may be shared across workers.
Derivatives are exact: :func:`derive` applies the forward-mode chain rule
to the AST once (no finite differences). The kernel contract: this module
alone builds and compiles trees. Each body an Expression or a field reads
(its value, its partials, both at once, (f, L_V f) along a field, a
field's variational right-hand side) is compiled on first use over floats
and over numpy columns into one cache per tuple of roots, _Kernels, and
called through _floats and _columns, which raise EvalError on a failed or
non-finite entry, or by the stepper of _dop853 on the state directly.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
            if not math.isfinite(float(value)):
                raise ParseError(f"literal {value} is not finite", pos,
                                 expected="a finite number")
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
        # folding in derive may overflow a constant; inf and nan are no literals
        return repr(node.value) if math.isfinite(node.value) else f"float('{node.value}')"
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


def _compile(body: tuple[Node, ...], n: int, ns: dict) -> Callable:
    """Compile a tuple of trees to a function of x1..xn returning the tuple
    of their values, with the functions of ns (_SCALAR_NS over floats,
    _ARRAY_NS over numpy columns)."""
    args = ", ".join(f"x{i}" for i in range(1, n + 1))
    ret = "(" + "".join(f"{_emit(b)}, " for b in body) + ")"
    src = f"def _fn({args}):\n    return {ret}\n"
    scope = dict(ns)
    exec(compile(src, "<flowrelay-expr>", "exec"), scope)
    return scope["_fn"]


class _Kernel(NamedTuple):
    floats: Callable    # over floats, for _floats
    columns: Callable   # over numpy columns, for _columns
    names: tuple[str, ...]   # of the entries, for errors


class _Kernels(dict):
    """The kernel cache of a tuple of roots over x1..xn, an expression's one
    root f or a field's n components V: kernels[key] compiles one body on
    first use. "value" is the roots, "gradient" their exact partials, root
    by root, "value and gradient" both (f, df/dx_1, ..., df/dx_n). For a
    field, "variational" is (V, DV·M) over the n + n² entries of (x, M), M
    row-major in x<n+1>..x<n+n²>, each product summed over k in order. For
    an expression, (field, backward) is (f, L_V f) along the roots of
    field._kernels, L_V f = sum_j df/dx_j * V_j in index order, negated
    (exactly) when backward: the rate in elapsed time. (field, backward,
    "rate") applies the same rule to that rate's tree: (ġ, g̈) in elapsed
    time, compiled only when a crossing scan polishes a turn of g."""

    __slots__ = ("roots", "n")

    def __init__(self, roots: tuple[Node, ...], n: int):
        super().__init__()
        self.roots, self.n = roots, n

    def __missing__(self, key) -> _Kernel:
        roots, n, width = self.roots, self.n, self.n
        values = ("value",) * len(roots)

        def partials() -> tuple[Node, ...]:   # root by root, derived on demand
            return tuple(derive(r, j) for r in roots for j in range(1, n + 1))

        if key == "value":
            body, names = roots, values
        elif key in ("gradient", "value and gradient"):
            body = partials()
            names = tuple(f"gradient (d/dx{j})" for _ in roots for j in range(1, n + 1))
            if key == "value and gradient":
                body, names = (*roots, *body), values + names
        elif key == "variational":
            body, width, jac = roots, n + n * n, partials()
            for i in range(n):
                for j in range(n):
                    acc: Node = Num(0.0)
                    for k in range(n):
                        acc = _n_add(acc, _n_mul(jac[i * n + k], Var(n + k * n + j + 1)))
                    body += (acc,)
            names = values + ("variational",) * (n * n)
        else:
            field, backward, *rate = key

            def lie(h: Node) -> Node:
                acc: Node = Num(0.0)
                for j, v in enumerate(field._kernels.roots, 1):
                    acc = _n_add(acc, _n_mul(derive(h, j), v))
                return Neg(acc) if backward else acc
            gdot = lie(roots[0])
            body = (gdot, lie(gdot)) if rate else (roots[0], gdot)
            names = ("value", "gradient along the field", "its rate along the field")
            names = names[1:] if rate else names[:2]
        kernel = self[key] = _Kernel(_compile(body, width, _SCALAR_NS),
                                     _compile(body, width, _ARRAY_NS), names)
        return kernel

    def call(self, key, x,
             what: str | None = None) -> tuple[float, ...] | list[np.ndarray]:
        """The entries of a body at a point (n,), as floats (an EvalError
        names what, by default the key), or at a batch (..., n), as arrays
        of shape (...,); ValueError on a point of another dimension."""
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1:] != (self.n,):
            raise ValueError(f"point has dimension {arr.shape[-1:]}, expected {self.n}")
        if arr.ndim == 1:
            return _floats(self[key].floats, arr.tolist(), what or key)
        return _columns(self[key], [arr[..., j] for j in range(self.n)])


def _floats(fn: Callable, xs: list[float], what: str) -> tuple[float, ...]:
    """fn(*xs) for a function compiled over floats: EvalError naming what
    when it fails or returns a non-finite entry."""
    try:
        out = fn(*xs)
    except _EVAL_FAILURES as exc:
        raise EvalError(f"{what} failed: {exc}") from exc
    if not all(map(math.isfinite, out)):
        raise EvalError(f"non-finite {what} {out!r}")
    return out


def _columns(kernel: _Kernel, cols) -> list[np.ndarray]:
    """kernel.columns(*cols) over numpy columns of one shape, without
    numpy's warnings: each entry as a new array of that shape (a constant
    one is broadcast, an input column, a bare variable's value, copied; the
    others are the kernel's own results), EvalError naming the first entry
    that is not finite."""
    cols = tuple(cols)
    with np.errstate(all="ignore"):
        out = kernel.columns(*cols)
    shape = np.shape(cols[0])
    out = [np.full(shape, v) if np.shape(v) != shape
           else v.copy() if any(v is c for c in cols) else v for v in out]
    for v, name in zip(out, kernel.names):
        if not np.isfinite(v).all():
            raise EvalError(f"non-finite {name} in batched evaluation")
    return out


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
    grammar does not accept: derived trees are compiled, never parsed, and
    derived again for a second derivative.
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
        elif node.name == "log":
            outer = _n_div(Num(1.0), a)
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

    __slots__ = ("root", "n", "_kernels")

    def __init__(self, root: Node, n: int):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        _check_tree(root, n)
        self.root = root
        self.n = n
        self._kernels = _Kernels((root,), n)

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

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate at a point (n,) -> float, or a batch (..., n) -> (...,) array."""
        return self._kernels.call("value", x)[0]

    def gradient(self, x) -> np.ndarray:
        """Exact gradient at a point (n,) -> (n,), or a batch (..., n) -> (..., n)."""
        parts = self._kernels.call("gradient", x)
        if isinstance(parts, tuple):   # a point: _floats' tuple
            return np.array(parts, dtype=float)
        return np.stack(parts, axis=-1)


def _check_tree(node: Node, n: int) -> None:
    if isinstance(node, Var):
        if not 1 <= node.index <= n:
            raise UnknownVariableError(f"variable x{node.index} outside x1..x{n}", -1)
        return
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            raise ValueError(f"constant {node.value} is not finite")
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

