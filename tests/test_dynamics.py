"""Integrator oracles: closed forms, matrix exponentials, group properties."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from flowrelay import expr
from flowrelay.dynamics import (Flow, VectorField, flow_map, flow_map_points,
                                flow_map_with_jacobian, integrate)
from flowrelay.errors import EvalError, IntegrationError, OutOfSpan

from conftest import GRADIENT_CORPUS, make_rotor, make_systemb, rotation_field
from test_three_mode import make_triangle

A_SINK = np.array([[-0.5, -1.0], [1.0, -0.5]])
C_SINK = np.array([-1.0, 0.0])


def sink_flow() -> Flow:
    f = VectorField([expr.parse("-0.5*(x1+1) - x2", 2),
                     expr.parse("(x1+1) - 0.5*x2", 2)])
    return Flow(f, horizon=4.0)


def rotation_flow() -> Flow:
    return Flow(rotation_field(), horizon=math.pi)


def test_rotation_quarter_turn():
    out = flow_map(rotation_flow(), math.pi / 2, [1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-8)


def test_zero_time_is_exact():
    x = np.array([0.3, -0.7])
    out = flow_map(rotation_flow(), 0.0, x)
    assert np.array_equal(out, x)
    assert out is not x


def test_linear_sink_matches_matrix_exponential():
    fl = sink_flow()
    x0 = np.array([1.5, 0.0])
    for t in (0.5, 1.0, 2.5, 4.0):
        out = flow_map(fl, t, x0)
        ref = C_SINK + expm(t * A_SINK) @ (x0 - C_SINK)
        assert np.abs(out - ref).max() < 1e-8


def test_jacobian_identity_at_zero():
    x, J = flow_map_with_jacobian(sink_flow(), 0.0, [0.2, 0.1])
    assert np.array_equal(J, np.eye(2))


def test_jacobian_linear_field_is_matrix_exponential():
    fl = sink_flow()
    for x0 in ([1.5, 0.0], [0.0, 2.0]):
        J = flow_map_with_jacobian(fl, 3.0, x0)[1]
        assert np.abs(J - expm(3.0 * A_SINK)).max() < 1e-8


def test_jacobian_matches_finite_differences():
    f = VectorField([expr.parse("-x2 + 0.1*x1^2", 2),
                     expr.parse("x1 - 0.2*x1*x2", 2)])
    fl = Flow(f, horizon=3.0)
    x0 = np.array([0.8, -0.4])
    t = 1.7
    J = flow_map_with_jacobian(fl, t, x0)[1]
    h = 1e-6
    Jfd = np.zeros((2, 2))
    for j in range(2):
        xp = x0.copy(); xp[j] += h
        xm = x0.copy(); xm[j] -= h
        Jfd[:, j] = (flow_map(fl, t, xp) - flow_map(fl, t, xm)) / (2 * h)
    assert np.abs(J - Jfd).max() / np.abs(J).max() < 1e-5


def test_backward_jacobian_inverts_forward():
    fl = sink_flow()
    x0 = np.array([1.5, 0.0])
    Jf = flow_map_with_jacobian(fl, 2.0, x0)[1]
    Jb = flow_map_with_jacobian(fl, -2.0, flow_map(fl, 2.0, x0))[1]
    assert np.abs(Jb @ Jf - np.eye(2)).max() < 1e-7


def test_dense_eval_endpoints_and_midpoint():
    fl = rotation_flow()
    arc = integrate(fl, math.pi, np.array([1.0, 0.0]))
    assert np.array_equal(arc(0.0), np.array([1.0, 0.0]))
    assert np.abs(arc(math.pi) - arc.end).max() < 1e-13
    mid = arc(math.pi / 3)
    assert abs(np.linalg.norm(mid) - 1.0) < 1e-8


def test_dense_eval_linear_sink_vs_closed_form():
    fl = sink_flow()
    x0 = np.array([1.5, 0.0])
    arc = integrate(fl, 4.0, x0)
    for tau in np.linspace(0.0, 4.0, 17):
        ref = C_SINK + expm(tau * A_SINK) @ (x0 - C_SINK)
        assert np.abs(arc(tau) - ref).max() < 1e-7


def test_dense_eval_out_of_span():
    arc = integrate(rotation_flow(), 1.0, np.array([1.0, 0.0]))
    with pytest.raises(OutOfSpan):
        arc(1.5)
    with pytest.raises(OutOfSpan):
        arc(-0.1)


def test_group_property_and_backward_consistency():
    fl = sink_flow()
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        s, t = rng.uniform(0.2, 2.0, 2)
        ab = flow_map(fl, s, flow_map(fl, t, x))
        joint = flow_map(fl, s + t, x)
        assert np.abs(ab - joint).max() < 10 * 1e-8
        back = flow_map(fl, -t, flow_map(fl, t, x))
        assert np.abs(back - x).max() < 10 * 1e-8


def test_rotation_preserves_radius():
    fl = rotation_flow()
    x = np.array([0.6, -1.1])
    r0 = np.linalg.norm(x)
    arc = integrate(fl, 2 * math.pi, x)
    taus = np.linspace(0, 2 * math.pi, 64)
    radii = np.linalg.norm(arc.sample(taus), axis=1)
    assert np.abs(radii - r0).max() < 1e-8


def test_time_cap_enforced():
    fl = rotation_flow()
    with pytest.raises(IntegrationError):
        flow_map(fl, 11 * math.pi, [1.0, 0.0])


def test_flow_map_points_matches_pointwise():
    fl = sink_flow()
    pts = np.random.default_rng(2).uniform(-1, 1, (16, 2))
    batch = flow_map_points(fl, 2.0, pts)
    for x, y in zip(pts, batch):
        assert np.abs(flow_map(fl, 2.0, x) - y).max() < 1e-8


def test_flow_map_points_rejects_t_eval_outside_span():
    fl = sink_flow()
    pts = np.array([[1.5, 0.0], [0.0, 1.0]])
    inside = flow_map_points(fl, -2.0, pts, t_eval=[0.0, 1.0, 2.0])
    assert inside.shape == (3, 2, 2)
    assert np.abs(inside[-1] - flow_map_points(fl, -2.0, pts)).max() < 1e-8
    for t, t_eval in ((2.0, [1.0, 2.5]), (-2.0, [-0.5, 1.0]), (1.0, [0.0, 1.0 + 1e-9])):
        with pytest.raises(OutOfSpan):
            flow_map_points(fl, t, pts, t_eval=t_eval)


def _kernel_fields():
    """Fields over the gradient corpus (each expression in some field, in
    windows of n of the same dimension), plus a variable exponent and a
    constant component; with the box each is sampled in."""
    by_dim: dict[int, list[str]] = {}
    for text, n, _ in GRADIENT_CORPUS:
        by_dim.setdefault(n, []).append(text)
    fields = []
    for n, texts in by_dim.items():
        for k in range(len(texts)):
            comps = [texts[(k + i) % len(texts)] for i in range(n)]
            fields.append((comps, n, (-1.0, 1.0)))
    fields.append((["x2^x1", "x1 - x2"], 2, (0.5, 2.0)))
    fields.append((["2.5", "x1*x2"], 2, (-1.0, 1.0)))
    return fields


def test_field_kernels_match_component_expressions():
    rng = np.random.default_rng(11)
    for comps, n, (lo, hi) in _kernel_fields():
        exprs = [expr.parse(c, n) for c in comps]
        f = VectorField(exprs)
        for _ in range(5):
            x = rng.uniform(lo, hi, n)
            assert np.array_equal(f(x), np.array([e.evaluate(x) for e in exprs]))
            assert np.array_equal(f.jacobian(x), np.stack([e.gradient(x) for e in exprs]))
            batch = rng.uniform(lo, hi, (4, n))
            assert np.array_equal(f.value_batch(batch),
                                  np.stack([e.evaluate(batch) for e in exprs], axis=1))


def test_variational_kernel_is_value_and_jacobian_product():
    f = VectorField([expr.parse("sin(x1)*x2 + x1^2*x3", 3),
                     expr.parse("exp(-x1*x2) - x3^3", 3),
                     expr.parse("tanh(x1 + x2)*cos(x3)", 3)])
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        m = rng.standard_normal((3, 3))
        jac = f.jacobian(x).tolist()
        # DV(x) @ M, summed over k in index order
        dm = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    dm[i][j] += jac[i][k] * m[k, j]
        want = np.concatenate([f(x), np.ravel(dm)])
        y = np.concatenate([x, m.ravel()]).tolist()
        assert np.array_equal(np.array(f._var(*y)), want)
        assert np.abs(want[3:] - (f.jacobian(x) @ m).ravel()).max() < 1e-14


def test_backward_time_equals_negated_field_forward():
    # a negative time span steps V exactly as a positive one steps -V
    def negated(fl: Flow) -> Flow:
        return Flow(VectorField([expr.Expression(expr.Neg(c.root), c.n)
                                 for c in fl.field.components]), fl.horizon)

    rng = np.random.default_rng(13)
    flows = [*make_systemb().flows, make_rotor().flows[0], *make_triangle().flows]
    for fl in flows:
        neg = negated(fl)
        for _ in range(4):
            x = rng.uniform(-2.0, 2.0, 2)
            t = float(rng.uniform(0.1, fl.horizon))
            assert np.array_equal(flow_map(fl, -t, x), flow_map(neg, t, x))
            for got, want in zip(flow_map_with_jacobian(fl, -t, x),
                                 flow_map_with_jacobian(neg, t, x)):
                assert np.array_equal(got, want)
            back, fwd = integrate(fl, t, x, backward=True), integrate(neg, t, x)
            taus = np.linspace(0.0, t, 17)
            assert np.array_equal(back.ts, fwd.ts)
            assert np.array_equal(back.sample(taus), fwd.sample(taus))
            pts = rng.uniform(-2.0, 2.0, (3, 2))
            assert np.array_equal(flow_map_points(fl, -t, pts, taus),
                                  flow_map_points(neg, t, pts, taus))


@pytest.mark.parametrize("drift, t", [("-1", 1.0), ("1", -1.0)])
def test_domain_error_in_flow_raises_eval_error(drift, t):
    # the flow carries x1 from 0.5 to -0.5, where sqrt(x1) is undefined
    f = VectorField([expr.parse(drift, 2), expr.parse("sqrt(x1)", 2)])
    fl = Flow(f, horizon=1.0)
    with pytest.raises(EvalError, match="field evaluation failed"):
        flow_map(fl, t, [0.5, 0.0])
    with pytest.raises(EvalError, match="variational right-hand side failed"):
        flow_map_with_jacobian(fl, t, [0.5, 0.0])


def test_nonfinite_field_raises():
    f = VectorField([expr.parse("x1/x2", 2), expr.parse("x1", 2)])
    fl = Flow(f, horizon=1.0)
    with pytest.raises(EvalError):
        flow_map(fl, 1.0, [1.0, 0.0])


def test_variable_exponent_field_jacobian_matches_finite_differences():
    # x2^x1 differentiates through the internal log term of the Pow rule
    f = VectorField([expr.parse("x2^x1", 2), expr.parse("x1 - x2", 2)])
    fl = Flow(f, horizon=2.0)
    x0 = np.array([0.5, 2.0])
    J = flow_map_with_jacobian(fl, 0.8, x0)[1]
    h = 1e-6
    for j in range(2):
        xp = x0.copy(); xp[j] += h
        xm = x0.copy(); xm[j] -= h
        col = (flow_map(fl, 0.8, xp) - flow_map(fl, 0.8, xm)) / (2 * h)
        assert np.abs(J[:, j] - col).max() < 1e-5


def test_flow_map_matches_integrate_endpoint():
    # flow_map skips dense output; the accepted steps, and so the endpoint,
    # must be those of the dense arc
    f = VectorField([expr.parse("x2", 2), expr.parse("-sin(x1)", 2)])
    fl = Flow(f, horizon=7.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        t = float(rng.uniform(0.1, 7.0))
        for sign in (1.0, -1.0):
            arc = integrate(fl, t, x, backward=sign < 0)
            assert np.array_equal(flow_map(fl, sign * t, x), arc.end)
