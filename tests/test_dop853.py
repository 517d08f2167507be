"""The owned DOP853 stepper against scipy's solve_ivp, over floats and over
stacked columns, its two forms against each other, its embedded tableau
against scipy's and the order conditions, and its dense output against
itself."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from flowrelay import _dop853, expr
from flowrelay.dynamics import (Flow, VectorField, flow_map, flow_map_points,
                                flow_map_with_jacobian, integrate)
from flowrelay.errors import IntegrationError

from conftest import make_rotor, make_systemb
from test_three_mode import make_triangle

PENDULUM = ("x2", "-sin(x1)")
VAN_DER_POL = ("x2", "(1 - x1^2)*x2 - x1")


def _field(comps) -> VectorField:
    return VectorField([expr.parse(c, 2) for c in comps])


def _scipy(kernel, t: float, y0, dense: bool = False):
    return solve_ivp(lambda _t, y: kernel(*y.tolist()), (0.0, t), y0,
                     method="DOP853", dense_output=dense, rtol=1e-10, atol=1e-12)


def _solve(kernel, t: float, y0):
    """The accepted step times and the end state of _dop853.solve."""
    ts = [0.0]
    end = _dop853.solve(kernel, t, tuple(y0), lambda t0, t1, y, row: ts.append(t1))
    return ts, end


def _close(got, want, rel: float) -> bool:
    return bool(np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want))))


@pytest.mark.parametrize("name", ["pendulum", "systemb", "van der pol"])
def test_core_matches_solve_ivp(name):
    field = {"pendulum": _field(PENDULUM), "systemb": make_systemb().flows[0].field,
             "van der pol": _field(VAN_DER_POL)}[name]
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        t = float(rng.uniform(0.5, 3.0))
        for sign in (1.0, -1.0):
            for kernel, y0 in ((field._kernels["value"].floats, x),
                               (field._kernels["variational"].floats,
                                np.concatenate([x, np.eye(2).ravel()]))):
                ref = _scipy(kernel, sign * t, y0)
                assert ref.success
                ts, end = _solve(kernel, sign * t, y0.tolist())
                assert abs(len(ts) - len(ref.t)) <= 1
                assert _close(np.array(end), ref.y[:, -1], 1e-12)
            arc = integrate(Flow(field, 3.0), t, x, backward=sign < 0)
            taus = np.linspace(0.0, t, 25)
            ref = _scipy(field._kernels["value"].floats, sign * t, x, dense=True)
            assert _close(arc.sample(taus), ref.sol(sign * taus).T, 1e-11)


@pytest.mark.parametrize("name", ["pendulum", "systemb"])
def test_coarse_pair_matches_solve_ivp_at_its_tolerances(name):
    # the coarse pair reaches the first step and the error norm alike
    field = {"pendulum": _field(PENDULUM), "systemb": make_systemb().flows[0].field}[name]
    kernel = field._kernels["value"].floats
    rtol, atol = _dop853.COARSE
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        t = float(rng.uniform(0.5, 3.0)) * rng.choice([-1.0, 1.0])
        ref = solve_ivp(lambda _t, y: kernel(*y.tolist()), (0.0, t), x,
                        method="DOP853", rtol=rtol, atol=atol)
        ts = [0.0]
        end = _dop853.solve(kernel, t, tuple(x.tolist()),
                            lambda t0, t1, y, row: ts.append(t1), tols=_dop853.COARSE)
        assert len(ts) == len(ref.t) < len(_solve(kernel, t, x.tolist())[0])
        assert _close(np.array(end), ref.y[:, -1], 1e-12)


@pytest.mark.parametrize("n, m", [(2, 2), (6, 2), (12, 3)])
def test_pairs_differ_only_in_the_step_tolerance_literals(n, m):
    # each controlled entry's error scale holds the pair's two literals;
    # swapping them for the fixed pair's gives the fixed step bit for bit
    fixed = (_dop853.RTOL, _dop853.ATOL)
    src = _dop853._step_source(n, m, _dop853.COARSE)
    for coarse, want in zip(_dop853.COARSE, fixed):
        assert src.count(repr(coarse)) == m
        src = src.replace(repr(coarse), repr(want))
    assert src == _dop853._step_source(n, m, fixed)


def _close_points(got, want, rel: float) -> bool:
    """Each point within rel * (1 + its norm): where rounding noise in a
    tiny error estimate moves a step, the interpolants differ in the
    small coordinate of a large point by more than rel times that
    coordinate."""
    dist = np.abs(got - want).max(axis=-1)
    return bool(np.all(dist <= rel * (1.0 + np.linalg.norm(want, axis=-1))))


def _stacked(field: VectorField, t: float, pts: np.ndarray):
    """solve_ivp on the batch stacked into one system under one joint norm:
    the reference for the column form of the stepper."""
    npts, n = pts.shape
    return solve_ivp(lambda _t, y: field.value_batch(y.reshape(npts, n)).ravel(),
                     (0.0, t), pts.ravel(), method="DOP853", rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("npts", [1, 7, 256])
def test_batch_matches_stacked_solve_ivp(npts):
    # a linear field forgives an error in a stage argument, so the pendulum
    # and van der Pol run too; van der Pol's reversed flow escapes from
    # outside its limit cycle, so its points start inside it, in |x_i| < 1
    flows = [(fl, 2.0) for fl in (*make_systemb().flows, make_rotor().flows[0],
                                  *make_triangle().flows)]
    flows += [(Flow(_field(PENDULUM), 3.0), 2.0), (Flow(_field(VAN_DER_POL), 3.0), 1.0)]
    rng = np.random.default_rng(23)
    for fl, width in flows:
        for sign in (1.0, -1.0):
            pts = rng.uniform(-width, width, (npts, 2))
            t = float(rng.uniform(0.5, fl.horizon))
            ref = _stacked(fl.field, sign * t, pts)
            assert ref.success
            with np.errstate(all="ignore"):
                ts, _ = _solve(fl.field._kernels["value"].columns, sign * t, pts.T.copy())
            assert abs(len(ts) - len(ref.t)) <= 1
            want = ref.y[:, -1].reshape(npts, 2)
            assert _close_points(flow_map_points(fl, sign * t, pts), want, 1e-12)


def test_one_row_batch_matches_the_float_stepper():
    # the stacked form rounds its stage sums in BLAS order, the float form
    # left to right: backward legs away from the sinks grow that difference
    # by up to e^2.5, so the bound sits above rounding, far below tolerance
    flows = [*make_systemb().flows, *make_rotor().flows, *make_triangle().flows]
    rng = np.random.default_rng(24)
    for fl in flows:
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, 2)
            t = float(rng.uniform(0.5, fl.horizon))
            for sign in (1.0, -1.0):
                want = flow_map(fl, sign * t, x)
                got = flow_map_points(fl, sign * t, x[None])[0]
                assert _close_points(got[None], want[None], 1e-13)
                floats, _ = _solve(fl.field._kernels["value"].floats, sign * t, x.tolist())
                with np.errstate(all="ignore"):
                    stacked, _ = _solve(fl.field._kernels["value"].columns, sign * t,
                                        x[:, None])
                assert len(stacked) == len(floats)


def test_batch_blow_up_fails_as_underflow():
    # x1' = x1^2 from x1 = 3 escapes to infinity at t = 1/3: the overflowing
    # columns raise no warning, and the batch fails as the stepper underflows
    fl = Flow(_field(("x1^2", "0")), 1.0)
    pts = np.array([[0.1, 1.0], [3.0, 1.0]])
    with pytest.raises(IntegrationError, match="Required step size is less "
                       "than spacing between numbers."):
        flow_map_points(fl, 1.0, pts)
    want = np.array([[0.1 / 1.1, 1.0], [0.75, 1.0]])
    assert _close(flow_map_points(fl, -1.0, pts), want, 1e-9)


def test_backward_van_der_pol_blow_up_fails_in_both():
    # outside the limit cycle the reversed flow escapes to infinity in finite time
    field = _field(VAN_DER_POL)
    x = np.array([3.0, 3.0])
    assert not _scipy(field._kernels["value"].floats, -5.0, x).success
    fl = Flow(field, 5.0)
    with pytest.raises(IntegrationError, match="step size"):
        flow_map(fl, -5.0, x)
    with pytest.raises(IntegrationError, match="step size"):
        flow_map_with_jacobian(fl, -5.0, x)


def test_overflowing_start_derivative_fails_as_underflow():
    # V(x0) is inf: the first step size is 0, every trial is rejected and the
    # step underflows, as in scipy, instead of a float division raising
    fl = Flow(_field(("x1*x1*x1*x1", "x2")), 1.0)
    for call in (flow_map, flow_map_with_jacobian, integrate):
        with pytest.raises(IntegrationError, match="step size"):
            call(fl, 0.5, [1e80, 1.0])


def test_a_start_at_rest_stays_put():
    # V(x0) = 0 at systemb's first focus: the first step comes from the
    # zero-derivative branch of the step size choice, and no step moves
    fl = make_systemb().flows[0]
    focus = np.array([-1.0, 0.0])
    assert not np.any(fl.field(focus))
    for t in (4.0, -4.0):
        assert np.array_equal(flow_map(fl, t, focus), focus)


_TABLEAU = ("A", "B", "E3", "E5", "A_EXTRA", "D")


def test_embedded_tableau_is_scipys_bit_for_bit():
    for name in _TABLEAU:
        got = np.array(getattr(_dop853, "_" + name))
        want = getattr(DOP853, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert _dop853._ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order


def test_tableau_meets_the_order_conditions():
    a_rows, b, e3, e5, a_extra, d = (np.array(getattr(_dop853, "_" + name))
                                     for name in _TABLEAU)
    c = DOP853.C
    for a, ci in zip(a_rows, c):
        assert abs(a.sum() - ci) <= 1e-15
    for a, ci in zip(a_extra, DOP853.C_EXTRA):
        assert abs(a.sum() - ci) <= 1e-15
    assert abs(b.sum() - 1.0) <= 1e-15
    assert abs(b @ c - 1.0 / 2.0) <= 1e-15
    assert abs(b @ c**2 - 1.0 / 3.0) <= 1e-15
    assert abs(e3.sum()) <= 1e-15
    assert abs(e5.sum()) <= 1e-15
    # the shapes the generated step reads
    assert a_rows.shape == (12, 12) and b.shape == (12,)
    assert e3.shape == e5.shape == (13,)
    assert a_extra.shape == (3, 16) and d.shape == (4, 16)
    # the stacked form's table holds the stage rows and B, no dense rows
    assert np.array_equal(_dop853._TABLE, np.vstack([a_rows[1:], b]))


@pytest.mark.parametrize("backward", [False, True])
def test_dense_point_and_sample_agree(backward):
    fl = Flow(_field(PENDULUM), 7.0)
    rng = np.random.default_rng(22)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, 2)
        arc = integrate(fl, float(rng.uniform(1.0, 7.0)), x, backward=backward)
        taus = np.concatenate([rng.uniform(0.0, arc.duration, 40), arc.ts])
        for tau in taus:
            assert np.array_equal(arc(tau), arc.sample([tau])[0])
        starts = np.vstack([arc._table[:, :2], arc.end])
        for i, tau in enumerate(arc.ts):
            want = starts[i]
            assert np.abs(arc(tau) - want).max() <= 1e-14 * np.abs(want).max()
