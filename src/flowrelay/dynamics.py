"""Flow integration: flow maps, dense trajectories, variational Jacobians.

Every integration runs through _run on the owned DOP853 stepper of _dop853
at rtol 1e-10, atol 1e-12, which calls the fused kernels directly. A single
trajectory (flow_map, flow_map_with_jacobian and the dense FlowArc behind
integrate) is stepped over floats. flow_map_points steps its N points as one
stacked (n, N) array under one joint norm, taking each stage sum as one
matrix product of a tableau row with the flattened stages, and keeps only
the current state: each t_eval time is one vectorised Horner pass over the
dense row of the step that holds it, as soon as that step is accepted, so
its memory does not grow with the duration. The dense interpolant is
built only where it is read. A FlowArc samples its steps cut into equal
pieces (_grid) as one product of a table of Horner weights with its rows.
No stiff path. Backward time is a negative time span: the stepper steps
the same field with negative steps, so both directions use the same
compiled kernels.

Each VectorField is compiled once into fused kernels (value, Jacobian,
variational right-hand side) that the stepper calls on the state directly.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _dop853
from . import expr as ex
from .errors import EvalError, IntegrationError, OutOfSpan

__all__ = [
    "VectorField",
    "Flow",
    "FlowArc",
    "integrate",
    "flow_map",
    "flow_map_with_jacobian",
    "flow_map_points",
]

TIME_CAP_FACTOR = 10.0  # |t| may not exceed this multiple of the flow horizon
_EVAL_FAILURES = (ValueError, ZeroDivisionError, OverflowError)


def _variational_body(roots: tuple[ex.Node, ...],
                      jac: tuple[ex.Node, ...]) -> tuple[ex.Node, ...]:
    """(V(x), DV(x)·M) as trees over the n + n² entries of (x, M), M
    row-major in x<n+1>..x<n+n²>; each product sums over k in order."""
    n = len(roots)
    dm = []
    for i in range(n):
        for j in range(n):
            acc: ex.Node = ex.Num(0.0)
            for k in range(n):
                acc = ex._n_add(acc, ex._n_mul(jac[i * n + k],
                                               ex.Var(n + k * n + j + 1)))
            dm.append(acc)
    return roots + tuple(dm)


class VectorField:
    """An autonomous field on R^n given by n component expressions.

    Compiled at construction into functions of floats that each return one
    tuple: the value (n entries), the Jacobian (n², row-major) and the
    variational right-hand side (n + n² entries); the value also over numpy
    columns. They evaluate the same trees as
    Expression.evaluate/gradient. Immutable after construction; evaluation
    is pure and thread-safe.
    """

    def __init__(self, components: Sequence[ex.Expression]):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        n = components[0].n
        if any(c.n != n for c in components):
            raise ValueError("component dimensions disagree")
        if len(components) != n:
            raise ValueError(f"{len(components)} components for dimension {n}")
        self.components = components
        self.n = n
        roots = tuple(c.root for c in components)
        jac = tuple(ex.derive(r, k) for r in roots for k in range(1, n + 1))
        self._value = ex._compile(roots, n, ex._SCALAR_NS)
        self._var = ex._compile(_variational_body(roots, jac), n + n * n,
                                ex._SCALAR_NS)
        self._jac = ex._compile(jac, n, ex._SCALAR_NS)
        self._value_cols = ex._compile(roots, n, ex._ARRAY_NS)

    def __call__(self, x) -> np.ndarray:
        xs = [float(v) for v in x]
        try:
            return np.array(self._value(*xs))
        except _EVAL_FAILURES as exc:
            raise EvalError(f"field evaluation failed: {exc}") from exc

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points (N, n) -> (N, n)."""
        cols = [pts[:, j] for j in range(self.n)]
        with np.errstate(all="ignore"):
            out = np.stack([np.broadcast_to(c, pts.shape[0])
                            for c in self._value_cols(*cols)], axis=1)
        return out.astype(float)

    def jacobian(self, x) -> np.ndarray:
        """Space derivative DV(x) as an (n, n) matrix, exact."""
        xs = [float(v) for v in x]
        try:
            return np.array(self._jac(*xs)).reshape(self.n, self.n)
        except _EVAL_FAILURES as exc:
            raise EvalError(f"field Jacobian failed: {exc}") from exc


@dataclass
class Flow:
    """A flow descriptor: a field and its horizon. Every flow is integrated
    with the same fixed method and tolerances (_dop853.RTOL, _dop853.ATOL)."""

    field: VectorField
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"flow horizon must be finite and positive, "
                             f"got {self.horizon}")


class FlowArc:
    """An integrated trajectory piece with dense output, built by integrate.

    The arc is parameterized by elapsed time tau in [0, duration]: ts holds
    the accepted steps in tau and states the states there, shape
    (n, len(ts)). A backward arc is solved over the negative span
    [0, -duration], so its solver time is -tau; this class is the one place
    that maps between the two. Each step keeps, as one row of a float array,
    its start state and the 7 rows of DOP853's interpolant, which depends on
    tau only through the step fraction (tau - ts[i]) / (ts[i+1] - ts[i]),
    the same in either time. At an accepted step time the lower step is
    used, as scipy's OdeSolution does.
    """

    def __init__(self, flow: Flow, x0: np.ndarray, duration: float,
                 backward: bool):
        self.flow = flow
        self.x0 = x0
        self.duration = duration
        self.backward = backward
        knots, rows = [0.0], []

        def keep(t, t_new, dense):
            knots.append(abs(t_new))
            rows.append(dense())

        end = _run(flow.field._value, "field evaluation",
                   -duration if backward else duration, x0.tolist(), keep)
        self._knots = knots
        self._table = np.array(rows)
        self.ts = np.array(knots)
        # each row starts with its step's start state
        self.states = np.vstack([self._table[:, :len(end)], end]).T

    @property
    def end(self) -> np.ndarray:
        return self.states[:, -1].copy()

    def __call__(self, tau: float) -> np.ndarray:
        return np.array(self._point(tau))

    def _step(self, tau: float) -> int:
        """The index of the step whose row serves tau: the lower one at an
        accepted step time, the first at 0."""
        if tau < 0.0 or tau > self.duration:
            raise OutOfSpan(f"tau={tau} outside [0, {self.duration}]")
        return min(max(bisect_left(self._knots, tau) - 1, 0), len(self._table) - 1)

    def _row(self, i: int) -> tuple[float, float, list[list[float]]]:
        """(t0, t1, coeffs): step i's bounds in tau and its row as floats,
        the 8 interpolant coefficients of each entry."""
        row, n = self._table[i].tolist(), self.flow.field.n
        return self._knots[i], self._knots[i + 1], [row[j::n] for j in range(n)]

    def _point(self, tau: float) -> list[float]:
        """The dense state at one parameter as a list of n floats."""
        t0, t1, coeffs = self._row(self._step(tau))
        x = (tau - t0) / (t1 - t0)
        return [_interpolate(c, x) for c in coeffs]

    def _grid(self, ns: int) -> tuple[np.ndarray, np.ndarray]:
        """(taus, states): every step cut into ns equal pieces plus the end,
        as _cut_steps gives them with merged points dropped, and the dense
        states there, shape (len(taus), n).

        The pieces sit at the step fractions j/ns, so the states are one
        product of the (ns + 1, 8) table of Horner weights with the steps'
        rows: _interpolate at x = j/ns to a few ulps. sample, which reads
        x from the rounded time, also differs by that rounding. A step
        start is its own row's start state (sample takes the lower step at
        x = 1 there), the end is the last step at x = 1."""
        taus, keep = _cut_steps(self.ts, ns)
        w = _horner_weights(ns)
        n = self.flow.field.n
        rows = self._table.reshape(len(self._table), 8, n)
        states = np.concatenate([(w[:ns] @ rows).reshape(-1, n), w[ns:] @ rows[-1]])
        return taus[keep], states[keep]

    def sample(self, taus) -> np.ndarray:
        """Dense states at many parameters, shape (len(taus), n)."""
        taus = np.asarray(taus, float)
        n = self.flow.field.n
        if taus.size == 0:
            return np.empty((0, n))
        if taus.min() < 0.0 or taus.max() > self.duration:
            raise OutOfSpan("sample parameters outside the integrated span")
        ts = self.ts
        i = np.clip(np.searchsorted(ts, taus) - 1, 0, len(self._table) - 1)
        x = ((taus - ts[i]) / (ts[i + 1] - ts[i]))[:, None]
        blocks = self._table[i].reshape(len(taus), 8, n).transpose(1, 0, 2)
        return _interpolate(blocks, x)


def _interpolate(c, x):
    """DOP853's dense output at step fraction x from c = (y_old, F0, ..., F6),
    floats or arrays alike: the Horner form of scipy's Dop853DenseOutput."""
    u = 1 - x
    v = 0.0
    for k, w in ((7, x), (6, u), (5, x), (4, u), (3, x), (2, u), (1, x)):
        v = (v + c[k]) * w
    return v + c[0]


@functools.cache
def _horner_weights(ns: int) -> np.ndarray:
    """The (ns + 1, 8) weights of c = (y_old, F0, ..., F6) in _interpolate
    at x = j/ns, j = 0..ns: 1, x, xu, x²u, x²u², x³u², x³u³, x⁴u³ with
    u = 1 - x; read-only, built on first use per ns. x = j/ns rounds alike
    for every ns that holds the fraction, so the table at ns is every
    other row of the one at 2*ns, bit for bit."""
    x = np.arange(ns + 1) / ns
    xu = x * (1 - x)
    x2u2 = xu * xu
    x3u3 = xu * x2u2
    w = np.stack([np.ones_like(x), x, xu, x * xu, x2u2, x * x2u2, x3u3,
                  x * x3u3], axis=1)
    w.flags.writeable = False
    return w


def _cut_steps(ts: np.ndarray, ns: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid, keep): each step of ts cut into ns equal pieces, plus the
    final time, with the same floats as np.linspace(ts[i], ts[i + 1],
    ns + 1)[:-1] per step, and the mask that drops a point equal to the one
    before it. ts rises and no piece rounds past its step's end, so repeats
    are adjacent; they occur where a last step clipped to a few ulps of
    the end merges pieces."""
    step = (ts[1:] - ts[:-1]) / ns
    grid = np.empty(len(step) * ns + 1)
    np.add(np.arange(ns) * step[:, None], ts[:-1, None],
           out=grid[:-1].reshape(-1, ns))
    grid[-1] = ts[-1]
    keep = np.empty(len(grid), bool)
    keep[0] = True
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    return grid, keep


def _check_cap(flow: Flow, t: float) -> None:
    if abs(t) > TIME_CAP_FACTOR * flow.horizon:
        raise IntegrationError(
            f"|t|={abs(t)} exceeds the {TIME_CAP_FACTOR}x horizon cap "
            f"({TIME_CAP_FACTOR * flow.horizon})")


def _start(x, fn: str, n: int, batch: bool = False) -> np.ndarray:
    """The start point (n,), or with batch the points (N, n), as floats;
    ValueError naming fn and the expected shape, or the first point that is
    not finite."""
    x = np.asarray(x, float)
    if x.ndim != 1 + batch or x.shape[-1] != n:
        want = f"start points of shape (N, {n})" if batch else f"a point of shape ({n},)"
        raise ValueError(f"{fn}: expected {want}, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        bad = x if x.ndim == 1 else x[~finite][0]
        raise ValueError(f"{fn}: start point {bad.tolist()} is not finite")
    return x


def _run(kernel, what: str, t: float, y0, solout):
    """Integrate y' = kernel(*y) from 0 to the signed time t on the owned
    stepper, over the floats or numpy columns of y0, handing each accepted
    step to solout as _dop853.solve does: the end state. A kernel failure
    raises EvalError; a non-finite end state, IntegrationError."""
    try:
        end = _dop853.solve(kernel, t, tuple(y0), solout)
    except _EVAL_FAILURES as exc:
        raise EvalError(f"{what} failed: {exc}") from exc
    if not np.isfinite(end).all():
        raise IntegrationError("non-finite state at the end of integration")
    return end


def integrate(flow: Flow, duration: float, x0, *, backward: bool = False) -> FlowArc:
    """Integrate the flow from x0 for the given duration, backward in time
    if asked."""
    x0 = _start(x0, "integrate", flow.field.n)
    if duration <= 0:
        raise ValueError("duration must be positive")
    _check_cap(flow, duration)
    return FlowArc(flow, x0, duration, backward)


def flow_map(flow: Flow, t: float, x) -> np.ndarray:
    """State after time t (t may be negative) starting from x."""
    x = _start(x, "flow_map", flow.field.n)
    if t == 0.0:
        return x.copy()
    _check_cap(flow, t)
    return np.array(_run(flow.field._value, "field evaluation", t, x.tolist(), None))


def flow_map_with_jacobian(flow: Flow, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(F^t(x), D_x F^t(x)) via the variational equations integrated alongside."""
    n = flow.field.n
    x = _start(x, "flow_map_with_jacobian", n)
    if t == 0.0:
        return x.copy(), np.eye(n)
    _check_cap(flow, t)
    y0 = x.tolist() + np.eye(n).ravel().tolist()
    yf = np.array(_run(flow.field._var, "variational right-hand side", t, y0, None))
    return yf[:n], yf[n:].reshape(n, n)


def flow_map_points(flow: Flow, t: float, points: np.ndarray,
                    t_eval=None) -> np.ndarray:
    """Flow many points at once, stepped together as one (n, N) array.

    Error control is applied to the joint norm, which is adequate for the
    margin checks this backs (not for tight per-point tolerances). Memory
    holds the current state and the output, not the trajectory. Returns
    the endpoint batch (N, n), or (len(t_eval), N, n) when t_eval is given;
    t_eval is in elapsed time and must lie in [0, |t|] (else OutOfSpan).
    """
    n = flow.field.n
    pts = _start(points, "flow_map_points", n, batch=True)
    shape = pts.shape
    if t_eval is not None:
        t_eval = np.asarray(t_eval, float)
        if t_eval.size and (t_eval.min() < 0.0 or t_eval.max() > abs(t)):
            raise OutOfSpan(f"t_eval outside the integrated span [0, {abs(t)}]")
        shape = (len(t_eval),) + shape
    _check_cap(flow, t)
    if t == 0.0 or 0 in shape:   # nothing to integrate
        return np.broadcast_to(pts, shape).copy()
    # each time lies in the step FlowArc.sample picks for it, from |t0|
    # exclusive (0 inclusive) to |t1|: one Horner pass over that step's row
    # covers every entry and point, before the next step overwrites it
    times = np.empty(0) if t_eval is None else t_eval
    order = np.argsort(times, kind="stable")
    upto = times[order]
    out = np.empty((len(times), n, len(pts)))
    done = 0

    def horner(t0, t1, dense):
        nonlocal done
        lo, hi = abs(t0), abs(t1)
        stop = int(np.searchsorted(upto, hi, "right"))
        if stop > done:
            row = dense()
            for k in order[done:stop]:
                out[k] = _interpolate(row, (times[k] - lo) / (hi - lo))
            done = stop

    with np.errstate(all="ignore"):
        end = _run(flow.field._value_cols, "field evaluation", t, pts.T, horner)
    return end.T.copy() if t_eval is None else out.transpose(0, 2, 1)
