"""Integrator oracles: closed forms, matrix exponentials, group properties."""
from __future__ import annotations

import math
import tracemalloc
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from flowrelay import _dop853, dynamics, expr
from flowrelay.dynamics import (Flow, FlowArc, VectorField, flow_map, flow_map_points,
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


def _point_from_tuple_rows(fl: Flow, x0, duration: float, backward: bool, taus):
    """FlowArc._point over the tuples DOP853's dense output builds, kept as
    a list: the form the array of rows replaced."""
    knots, rows = [0.0], []

    def keep(t, t_new, dense):
        knots.append(abs(t_new))
        rows.append(dense())

    dynamics._run(fl.field._value, "field evaluation",
                  -duration if backward else duration, list(x0), keep)
    n, out = fl.field.n, []
    for tau in taus:
        i = min(max(bisect_left(knots, tau) - 1, 0), len(rows) - 1)
        x = (tau - knots[i]) / (knots[i + 1] - knots[i])
        out.append([dynamics._interpolate(rows[i][j::n], x) for j in range(n)])
    return out


def test_arc_point_reads_its_array_row_as_the_tuple_rows_bit_for_bit():
    # FlowArc keeps each dense row once, as a row of one float array
    rng = np.random.default_rng(21)
    field3 = VectorField([expr.parse(c, 3) for c in
                          ("-0.3*x1 + 2*x2", "-0.5*x2 + sin(x3)", "0.4*x1*x2 - 0.2*x3")])
    cases = [(make_systemb().flows[0], [1.5, 0.3], 8.0),
             (rotation_flow(), [1.0, 0.0], math.pi),
             (Flow(field3, horizon=2.0), [0.5, -0.2, 0.8], 2.0)]
    for fl, x0, duration in cases:
        for backward in (False, True):
            arc = integrate(fl, duration, np.array(x0), backward=backward)
            taus = [0.0, *arc.ts.tolist(), *rng.uniform(0.0, duration, 200).tolist()]
            want = _point_from_tuple_rows(fl, x0, duration, backward, taus)
            got = [arc._point(tau) for tau in taus]
            assert _bits(np.array(got)).tolist() == _bits(np.array(want)).tolist()


def _grid_arcs() -> list:
    """systemb, rotor and triangle arcs over two horizons, forward and
    backward."""
    rng = np.random.default_rng(22)
    arcs = []
    for system in (make_systemb(), make_rotor(), make_triangle()):
        for backward in (False, True):
            for k in range(system.p):
                fl = system.flows[k]
                arcs.append(integrate(fl, 2 * fl.horizon, rng.uniform(-2.0, 2.0, 2),
                                      backward=backward))
    return arcs


def _linspace_grid(ts: np.ndarray, ns: int) -> np.ndarray:
    pieces = [np.linspace(ts[i], ts[i + 1], ns + 1)[:-1] for i in range(len(ts) - 1)]
    return np.unique(np.concatenate(pieces + [ts[-1:]]))


@pytest.mark.parametrize("ns", [8, 16, 32, 64])
def test_grid_states_agree_with_sample(ns):
    # the weight-table product is the Horner form at x = j/ns to a few ulps
    # of the rows; sample reads the rounded time, so it also differs by
    # |V| times the rounding of tau; a step start is the solver's state
    for arc in _grid_arcs():
        n = arc.flow.field.n
        rows = arc._table.reshape(-1, 8, n)
        ulp = np.spacing(np.abs(rows).max(axis=(0, 1)))
        taus, states = arc._grid(ns)
        assert _bits(taus).tolist() == _bits(_linspace_grid(arc.ts, ns)).tolist()
        x = np.arange(ns)[:, None] / ns
        horner = [dynamics._interpolate(row, x) for row in rows]
        horner = np.vstack(horner + [dynamics._interpolate(rows[-1], 1.0)])
        assert (np.abs(states - horner[dynamics._cut_steps(arc.ts, ns)[1]])
                <= 8 * ulp).all()
        speed = np.abs(arc.flow.field.value_batch(states))
        gap = 4 * ulp + 4 * speed * np.spacing(taus)[:, None]
        assert (np.abs(states - arc.sample(taus)) <= gap).all()
        starts = np.searchsorted(taus, arc.ts[:-1])
        assert np.array_equal(states[starts], arc.states[:, :-1].T)
        assert np.array_equal(states[0], arc.x0)


@pytest.mark.parametrize("ns", [8, 16, 32])
def test_grid_at_ns_is_every_other_row_at_twice_ns(ns):
    for arc in _grid_arcs():
        taus, states = arc._grid(ns)
        fine_taus, fine_states = arc._grid(2 * ns)
        assert _bits(fine_taus[::2]).tolist() == _bits(taus).tolist()
        assert _bits(fine_states[::2]).tolist() == _bits(states).tolist()


def test_grid_where_a_clipped_last_step_merges_points():
    # a last step a few ulps long rounds its pieces onto each other and onto
    # the end: the grid keeps each time once, at its first piece, whose state
    # is that step's interpolant at the piece's fraction j/ns
    rng = np.random.default_rng(23)
    end = 3.0
    ts = np.array([0.0, 1.0, end - 2 * math.ulp(end), end])
    arc = SimpleNamespace(ts=ts, _table=rng.uniform(-1.0, 1.0, (3, 16)),
                          flow=SimpleNamespace(field=SimpleNamespace(n=2)))
    ulp = np.spacing(np.abs(arc._table).max())
    for ns in (8, 16, 32, 64):
        taus, states = FlowArc._grid(arc, ns)
        assert _bits(taus).tolist() == _bits(_linspace_grid(ts, ns)).tolist()
        assert len(taus) < 3 * ns + 1
        step = (ts[1:] - ts[:-1]) / ns
        first = {}
        for i in range(3):
            for j in range(ns):
                first.setdefault(float(ts[i] + j * step[i]), (i, j / ns))
        first.setdefault(end, (2, 1.0))
        for tau, got in zip(taus.tolist(), states):
            i, x = first[tau]
            want = dynamics._interpolate(arc._table[i].reshape(8, 2), x)
            assert (np.abs(got - want) <= 4 * ulp).all()


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


def test_flow_map_points_three_dimensional_linear_field():
    # a non-normal x' = Mx with n = 3 and N = 5 points: a swapped (n, N)
    # axis would break shapes or values that square batches hide
    M = np.array([[-0.3, 2.0, 0.0], [0.0, -0.5, 1.5], [0.4, 0.0, -0.2]])
    field = VectorField([expr.parse(c, 3) for c in
                         ("-0.3*x1 + 2*x2", "-0.5*x2 + 1.5*x3", "0.4*x1 - 0.2*x3")])
    fl = Flow(field, horizon=2.0)
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3))
    taus = np.array([0.0, 0.4, 1.1, 1.5])
    for t in (1.5, -1.5):
        want = pts @ expm(t * M).T
        got = flow_map_points(fl, t, pts)
        assert got.shape == (5, 3)
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))
        dense = flow_map_points(fl, t, pts, t_eval=taus)
        assert dense.shape == (4, 5, 3)
        for tau, states in zip(taus, dense):
            want = pts @ expm(math.copysign(tau, t) * M).T
            assert np.all(np.abs(states - want) <= 1e-9 * (1.0 + np.abs(want)))


def _keep_everything(fl: Flow, t: float, pts: np.ndarray, t_eval):
    """flow_map_points as one full solve that keeps every accepted step and
    a copy of every dense row to the end, then one Horner pass per time at
    the step searchsorted picks: (the result, the accepted step times in
    elapsed time, the distinct dense-row buffers)."""
    ts, rows, buffers = [0.0], [], {}

    def keep(t0, t1, dense):
        ts.append(t1)
        row = dense()
        buffers[id(row)] = row
        rows.append(row.copy())

    with np.errstate(all="ignore"):
        end = _dop853.solve(fl.field._value_cols, t, tuple(pts.T), keep)
        knots = np.abs(ts)
        if t_eval is None:
            return end.T.copy(), knots, buffers
        steps = np.clip(np.searchsorted(knots, t_eval) - 1, 0, len(ts) - 2)
        x = (t_eval - knots[steps]) / (knots[steps + 1] - knots[steps])
        out = np.array([dynamics._interpolate(rows[i], xk)
                        for i, xk in zip(steps, x)])
    return out.transpose(0, 2, 1), knots, buffers


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("npts", [1, 1000])
def test_streamed_flow_map_points_is_bit_identical_to_keeping_every_step(npts):
    # a regression guard: building a row only for a step that holds a
    # t_eval time, into one reused buffer, changes no bit of the result
    fields = {2: make_systemb().flows[0].field,
              3: VectorField([expr.parse(c, 3) for c in
                              ("-x2 - 0.1*x1", "x1 - 0.1*x2",
                               "-0.5*x3 + sin(x1)*x2")])}
    rng = np.random.default_rng(41)
    for n, field in fields.items():
        fl = Flow(field, 5.0)
        pts = rng.uniform(-2.0, 2.0, (npts, n))
        for t in (3.0, -3.0):
            want, knots, _ = _keep_everything(fl, t, pts, None)
            assert _bits(flow_map_points(fl, t, pts)).tolist() == _bits(want).tolist()
            inner = knots[1:-1]
            a, b = rng.uniform(0.0, 3.0, 2)
            cases = [np.sort(rng.uniform(0.0, 3.0, 7)), rng.uniform(0.0, 3.0, 7),
                     np.array([a, b, a, a, b]),
                     np.array([3.0, inner[len(inner) // 2], 0.0, inner[0],
                               inner[-1], 3.0, 0.0])]
            for t_eval in cases:
                want, _, buffers = _keep_everything(fl, t, pts, t_eval)
                assert len(buffers) == 1
                got = flow_map_points(fl, t, pts, t_eval=t_eval)
                assert got.shape == (len(t_eval), npts, n)
                assert np.array_equal(_bits(got), _bits(want))


def test_flow_map_points_memory_does_not_grow_with_duration():
    # only the current state and, with t_eval, the output and one dense row
    # are held: 40 time units peak within 10 % of 4 (keeping every accepted
    # state and row took 2.9x)
    fl = Flow(make_systemb().flows[0].field, 40.0)
    pts = np.random.default_rng(42).uniform(-2.0, 2.0, (1024, 2))

    def peak(t: float, t_eval) -> int:
        flow_map_points(fl, t, pts[:4], t_eval)
        tracemalloc.start()
        try:
            flow_map_points(fl, t, pts, t_eval)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40.0, None) <= 1.1 * peak(4.0, None)
    assert (peak(40.0, np.linspace(20.0, 40.0, 16))
            <= 1.1 * peak(4.0, np.linspace(2.0, 4.0, 16)))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_start_point_is_a_value_error(bad):
    fl = sink_flow()
    x = [0.5, bad]
    calls = {"flow_map": lambda: flow_map(fl, 1.0, x),
             "flow_map_with_jacobian": lambda: flow_map_with_jacobian(fl, -1.0, x),
             "integrate": lambda: integrate(fl, 1.0, x),
             "flow_map_points": lambda: flow_map_points(fl, 1.0, [[0.1, 0.2], x])}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"^{name}: start point \[0\.5, -?(nan|inf)\]"):
            call()


def test_start_point_of_the_wrong_shape_is_a_value_error():
    fl = sink_flow()
    single = r"expected a point of shape \(2,\), got shape \(3,\)"
    batch = r"expected start points of shape \(N, 2\), got shape"
    calls = [("flow_map", single, lambda: flow_map(fl, 1.0, [1, 2, 3])),
             ("flow_map_with_jacobian", single,
              lambda: flow_map_with_jacobian(fl, 1.0, [1, 2, 3])),
             ("integrate", single, lambda: integrate(fl, 1.0, [1, 2, 3])),
             ("flow_map_points", batch, lambda: flow_map_points(fl, 1.0, np.ones((4, 3)))),
             ("flow_map_points", batch, lambda: flow_map_points(fl, 1.0, [1.0, 2.0]))]
    for name, message, call in calls:
        with pytest.raises(ValueError, match=rf"^{name}: {message}"):
            call()


def test_flow_map_points_edge_spans():
    fl = sink_flow()
    pts = np.array([[1.5, 0.0], [0.0, 1.0], [0.3, -0.4]])
    assert flow_map_points(fl, 2.0, pts, t_eval=[]).shape == (0, 3, 2)
    assert flow_map_points(fl, -2.0, pts, t_eval=np.array([])).shape == (0, 3, 2)
    assert np.array_equal(flow_map_points(fl, 0.0, pts, t_eval=[0.0]), pts[None])
    assert np.array_equal(flow_map_points(fl, 0.0, pts), pts)
