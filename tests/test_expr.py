"""Parser, printer, evaluation, and exact-derivative checks."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from flowrelay import expr
from flowrelay.dynamics import VectorField
from flowrelay.errors import EvalError, ParseError, UnknownVariableError
from flowrelay.expr import Add, Div, Fun, Mul, Neg, Num, Pow, Sub, Var, derive

from conftest import GRADIENT_CORPUS, fd_gradient, gradient_corpus_max_relerr


def test_parse_add_structure():
    e = expr.parse("x1 + x2", 2)
    assert e.root == Add(Var(1), Var(2))


def test_parse_rotor_region():
    e = expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2)
    assert isinstance(e.root, Sub)
    assert e.evaluate([1.0, 0.0]) == pytest.approx(0.09)


def test_parse_unclosed_call_reports_end_position():
    with pytest.raises(ParseError) as exc:
        expr.parse("sin(x3", 3)
    assert exc.value.position == len("sin(x3")


def test_parse_errors():
    with pytest.raises(ParseError):
        expr.parse("", 2)
    with pytest.raises(ParseError):
        expr.parse("x1 +", 2)
    with pytest.raises(ParseError):
        expr.parse("2 @ 3", 2)
    with pytest.raises(ParseError):
        expr.parse("foo(x1)", 2)
    with pytest.raises(UnknownVariableError):
        expr.parse("x3", 2)
    with pytest.raises(UnknownVariableError):
        expr.parse("x0", 2)


def test_precedence_and_associativity():
    assert expr.parse("1 - 2 - 3", 1).root == Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))
    assert expr.parse("2^3^2", 1).evaluate([0.0]) == 512.0  # right-assoc
    assert expr.parse("-x1^2", 1).root == Neg(Pow(Var(1), Num(2.0)))
    assert expr.parse("2*x1 + 1", 1).root == Add(Mul(Num(2.0), Var(1)), Num(1.0))
    assert expr.parse("x1^-2", 1).evaluate([2.0]) == pytest.approx(0.25)


def test_whitespace_insensitive():
    assert expr.parse(" x1+ x2 ", 2) == expr.parse("x1+x2", 2)


@pytest.mark.parametrize("text,n", [(t, n) for t, n, _ in GRADIENT_CORPUS])
def test_roundtrip_corpus(text, n):
    e = expr.parse(text, n)
    assert expr.parse(str(e), n) == e


def _random_node(rng, n: int, depth: int) -> expr.Node:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(int(rng.integers(1, n + 1)))
        return Num(float(np.round(rng.uniform(0.0, 5.0), 3)))
    kind = rng.integers(0, 7)
    a = _random_node(rng, n, depth - 1)
    b = _random_node(rng, n, depth - 1)
    if kind == 0:
        return Add(a, b)
    if kind == 1:
        return Sub(a, b)
    if kind == 2:
        return Mul(a, b)
    if kind == 3:
        return Div(a, b)
    if kind == 4:
        return Pow(a, Num(float(rng.integers(1, 4))))
    if kind == 5:
        return Neg(a)
    return Fun(str(rng.choice(expr.FUNCTIONS)), a)


def test_roundtrip_generated_corpus():
    rng = np.random.default_rng(42)
    for _ in range(200):
        e = expr.Expression(_random_node(rng, 3, 4), 3)
        assert expr.parse(str(e), 3) == e


def test_evaluate_examples():
    assert expr.parse("x1*x2", 2).evaluate([3.0, 4.0]) == 12.0
    assert expr.parse("exp(x1)", 1).evaluate([0.0]) == 1.0
    boundary = expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2).evaluate([1.3, 0.0])
    assert abs(boundary) < 1e-15


def test_evaluate_batch_matches_scalar():
    e = expr.parse("sin(x1)*x2 - x1/(x2 + 3)", 2)
    pts = np.random.default_rng(1).uniform(-2, 2, (50, 2))
    batch = e.evaluate(pts)
    for x, v in zip(pts, batch):
        assert v == pytest.approx(e.evaluate(x), abs=1e-14)


def test_eval_errors():
    with pytest.raises(EvalError):
        expr.parse("x1/x2", 2).evaluate([1.0, 0.0])
    with pytest.raises(EvalError):
        expr.parse("x1^x2", 2).evaluate([0.0, -1.0])
    with pytest.raises(EvalError):
        expr.parse("x1^0.5", 1).evaluate([-2.0])
    with pytest.raises(EvalError):
        expr.parse("sqrt(x1)", 1).evaluate([-1.0])
    with pytest.raises(EvalError):
        expr.parse("exp(x1)", 1).evaluate([1000.0])
    # integer exponents are fine on negative bases
    assert expr.parse("x1^2", 1).evaluate([-2.0]) == 4.0
    assert expr.parse("x1^3", 1).evaluate([-2.0]) == -8.0


def test_dimension_mismatch():
    e = expr.parse("x1 + x2", 2)
    with pytest.raises(ValueError):
        e.evaluate([1.0])


def test_gradient_examples():
    assert np.allclose(expr.parse("x1^2 + x2^2", 2).gradient([3.0, 4.0]), [6.0, 8.0])
    a, b = 0.7, -1.3
    assert np.allclose(expr.parse("x1*x2", 2).gradient([a, b]), [b, a])


def test_gradient_corpus_vs_finite_differences():
    assert gradient_corpus_max_relerr(seed=0) < 1e-6


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    e1 = expr.parse("sin(x1)*x2", 2)
    e2 = expr.parse("x1^2 - x2", 2)
    a = 2.75
    combo = expr.parse(f"{a}*(sin(x1)*x2) + (x1^2 - x2)", 2)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        lhs = combo.gradient(x)
        rhs = a * e1.gradient(x) + e2.gradient(x)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_gradient_batch_matches_single():
    rng = np.random.default_rng(4)
    cases = GRADIENT_CORPUS + [("exp(-(x1^2 + x2^2))*x1", 2, (-1.5, 1.5)),
                               ("x1^x2", 2, (0.5, 2.0))]
    for text, n, (lo, hi) in cases:
        e = expr.parse(text, n)
        pts = rng.uniform(lo, hi, (20, n))
        batch = e.gradient(pts)
        assert batch.shape == (20, n)
        for x, g in zip(pts, batch):
            assert np.allclose(g, e.gradient(x), atol=1e-14)
    # any leading batch shape, and constant partials broadcast to it
    e = expr.parse("x1^2 + 3*x2 - x3", 3)
    pts = rng.uniform(-1.0, 1.0, (2, 3, 3))
    batch = e.gradient(pts)
    assert batch.shape == (2, 3, 3)
    for x, g in zip(pts.reshape(-1, 3), batch.reshape(-1, 3)):
        assert np.array_equal(g, e.gradient(x))


def test_determinism_bit_identical():
    e = expr.parse("sin(x1)*cos(x2) + x1^3/(x2 + 2)", 2)
    x = np.array([0.123456789, -0.987654321])
    assert e.evaluate(x) == e.evaluate(x.copy())
    assert np.array_equal(e.gradient(x), e.gradient(x.copy()))


def test_variable_exponent_gradient_exact():
    e = expr.parse("x1^x2", 2)
    g = e.gradient([2.0, 3.0])
    assert np.allclose(g, [3 * 4.0, 8.0 * math.log(2.0)])


def test_log_stays_outside_the_grammar():
    # derived trees use log internally; parsed text may not
    with pytest.raises(ParseError):
        expr.parse("log(x1)", 1)


def test_gradient_singularity_raises_on_both_paths():
    e = expr.parse("sqrt(x1)", 1)
    with pytest.raises(EvalError):
        e.gradient([0.0])
    with pytest.raises(EvalError):
        e.gradient(np.array([[1.0], [0.0]]))


def test_negative_literal_prints_and_reparses():
    e = expr.Expression(Mul(Num(-0.3), Var(1)), 1)
    text = str(e)
    re = expr.parse(text, 1)
    assert re.evaluate([2.0]) == pytest.approx(-0.6)


@pytest.mark.parametrize("text, position", [
    ("1e999*x1", 0), ("x1 + 1e400", 5), ("2^1e309", 2)])
def test_non_finite_literal_is_a_parse_error_at_its_position(text, position):
    # float("1e999") is inf, which would print as "inf" and never parse back
    with pytest.raises(ParseError, match="not finite") as exc:
        expr.parse(text, 2)
    assert exc.value.position == position


@pytest.mark.parametrize("root", [Num(math.inf), Mul(Num(math.nan), Var(1)),
                                  Neg(Num(-math.inf))])
def test_expression_refuses_a_non_finite_constant(root):
    with pytest.raises(ValueError, match="not finite"):
        expr.Expression(root, 2)


def test_folded_non_finite_constant_evaluates_to_an_eval_error():
    # derive folds d/dx1 of 1e308*x1 + 1e308*x1 to the constant inf, which
    # has no literal: the gradient kernel still runs and reports it
    e = expr.parse("1e308*x1 + 1e308*x1", 2)
    with pytest.raises(EvalError, match="non-finite gradient"):
        e.gradient([1.0, 2.0])
    with pytest.raises(EvalError, match=re.escape("non-finite gradient (d/dx1)")):
        e.gradient(np.array([[1.0, 2.0], [3.0, 4.0]]))
    # inf - inf folds to nan
    e = expr.parse("(1e308*x1 + 1e308*x1) - (1e308*x1 + 1e308*x1)", 2)
    assert math.isnan(derive(e.root, 1).value)
    with pytest.raises(EvalError, match="non-finite gradient"):
        e.gradient(np.zeros((3, 2)))


def test_batch_names_the_first_non_finite_entry_and_broadcasts_constants():
    e = expr.parse("3*x1 + sqrt(x2)", 2)
    pts = np.array([[1.0, 4.0], [2.0, -1.0]])
    with pytest.raises(EvalError, match=re.escape("non-finite gradient (d/dx2)")):
        e.gradient(pts)
    # d/dx1 is the constant 3: broadcast over the batch, whatever its shape
    grid = np.ones((2, 3, 2))
    assert e.gradient(grid).shape == (2, 3, 2)
    assert np.array_equal(e.gradient(grid)[..., 0], np.full((2, 3), 3.0))
    c = expr.parse("2.5", 2)
    assert np.array_equal(c.evaluate(grid), np.full((2, 3), 2.5))
    assert c.gradient(np.empty((0, 2))).shape == (0, 2)


def test_batch_results_are_not_views_of_the_batch():
    # a bare variable's value, or a partial that is one, is a copy of the
    # input column: writing into a result leaves the caller's batch alone
    B = np.ones((3, 2))
    v = expr.parse("x1", 2).evaluate(B)
    v[0] = 5.0
    g = expr.parse("x1*x2", 2).gradient(B)
    g[...] = 7.0
    assert np.array_equal(B, np.ones((3, 2)))
    # also when the columns are handed over as the rows of a transposed array
    value, d1, d2 = expr._columns(expr.parse("x1*x2", 2)._kernels["value and gradient"],
                                  B.T)
    for out in (value, d1, d2):
        out[:] = 9.0
    assert np.array_equal(B, np.ones((3, 2)))



def test_only_bodies_that_read_partials_derive_them(monkeypatch):
    # a value kernel derives nothing; every other kernel derives each of
    # its roots' n partials once, root by root (derive's recursion into
    # subtrees is not counted)
    derive, depth, top = expr.derive, [0], []

    def counted(node, index):
        if depth[0] == 0:
            top.append(index)
        depth[0] += 1
        try:
            return derive(node, index)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expr, "derive", counted)

    def derived(kernels, key) -> list[int]:
        top.clear()
        kernels[key]
        return list(top)

    def fresh():
        return (expr.parse("0.25 - ((x1+1)^2 + x2^2)", 2),
                VectorField([expr.parse("-0.5*(x1+1) - x2", 2),
                             expr.parse("(x1+1) - 0.5*x2", 2)]))

    for key, want in (("value", []), ("gradient", [1, 2]),
                      ("value and gradient", [1, 2])):
        f, field = fresh()
        assert derived(f._kernels, key) == want
        assert derived(field._kernels, key) == want * 2
    f, field = fresh()
    assert derived(field._kernels, "variational") == [1, 2, 1, 2]
    for backward in (False, True):
        assert derived(f._kernels, (field, backward)) == [1, 2]
