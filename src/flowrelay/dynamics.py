"""Flow integration: flow maps, dense trajectories, variational Jacobians.

Every integration runs through _run on the owned DOP853 stepper of _dop853
at rtol 1e-10, atol 1e-12, which calls the fused kernels directly. The one
exception is _coarse_variational_map, flow_map_with_jacobian at the
stepper's coarse pair (rtol 1e-5, atol 1e-7), which only Newton's trials
from far iterates call; no public function steps at that pair. A single
trajectory (flow_map, flow_map_with_jacobian and the dense FlowArc behind
integrate) is stepped over floats. flow_map_points steps its N points as one
stacked (n, N) array under one joint norm, taking each stage sum as one
matrix product of a tableau row with the flattened stages, and keeps only
the current state, so its memory does not grow with the duration. The
dense interpolant is built only for a FlowArc, which the stepper hands
each step's row, and which is the one reader of its rows: a point at a
time through the step it read last (_point) and a float kernel there
(_read), its steps cut into equal pieces (_grid) as one product of a
table of Horner weights with its rows, or any parameters (sample) as one
Horner pass in the (n, N) layout. No stiff path. Backward time is a
negative time span: the stepper steps the same field with negative steps,
so both directions use the same compiled kernels.

This module builds and compiles no tree: the stepper calls the kernels of
each VectorField's cache in expr directly on the state, the value over
floats or numpy columns and, for flow_map_with_jacobian alone, the
variational right-hand side. That kernel's first n entries are the value
kernel's trees and only they are under error control, so a variational
leg takes flow_map's steps and ends on its state bit for bit.
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


class VectorField:
    """An autonomous field on R^n given by n component expressions.

    Its kernels are expr's cache over the n component roots, each compiled
    on first use: the value, which every integration steps, the variational
    right-hand side (n + n² entries), which only flow_map_with_jacobian
    reads, and the partials behind jacobian. Crossing location reads the
    roots from that cache. Immutable after construction; evaluation is
    pure and thread-safe.
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
        self._kernels = ex._Kernels(tuple(c.root for c in components), n)

    def __call__(self, x) -> np.ndarray:
        """The value at a point (n,) -> (n,); EvalError when an entry fails
        or is not finite."""
        return np.array(self._kernels.call("value", x, "field evaluation"))

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points (N, n) -> (N, n)."""
        return np.stack(self._kernels.call("value", pts), axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """Space derivative DV(x) as an (n, n) matrix, exact."""
        return np.array(self._kernels.call("gradient", x)).reshape(self.n, self.n)


@dataclass
class Flow:
    """A flow descriptor: a field and its horizon. Every flow is integrated
    with the same fixed method and tolerances (_dop853.RTOL, _dop853.ATOL),
    but for the trials of Newton's far iterates (_dop853.COARSE)."""

    field: VectorField
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"flow horizon must be finite and positive, "
                             f"got {self.horizon}")


class FlowArc:
    """An integrated trajectory piece with dense output, built by integrate.

    The arc is parameterized by elapsed time tau in [0, duration]: ts holds
    the accepted steps in tau. A backward arc is solved over the negative
    span [0, -duration], so its solver time is -tau; this class is the one
    place that maps between the two and the one reader of the dense rows.
    Each step keeps, as one row of a float array, its start state and the 7
    rows of DOP853's interpolant, which depends on tau only through the step
    fraction (tau - ts[i]) / (ts[i+1] - ts[i]), the same in either time. At
    an accepted step time the lower step is used, as scipy's OdeSolution
    does.
    """

    def __init__(self, flow: Flow, x0: np.ndarray, duration: float,
                 backward: bool):
        self.flow = flow
        self.x0 = x0
        self.duration = duration
        self.backward = backward
        knots, rows = [0.0], []

        def keep(t, t_new, y, row):
            knots.append(abs(t_new))
            rows.extend(row)

        self._end = _run(flow.field._kernels["value"].floats, "field evaluation",
                         -duration if backward else duration, x0.tolist(), keep)
        self._knots = knots
        self._table = np.array(rows).reshape(len(knots) - 1, -1)
        self.ts = np.array(knots)
        self._last = (math.nan, math.nan, [])

    @property
    def end(self) -> np.ndarray:
        return np.array(self._end)

    def __call__(self, tau: float) -> np.ndarray:
        return np.array(self._point(tau))

    def _step(self, tau: float) -> int:
        """The index of the step whose row serves tau: the lower one at an
        accepted step time, the first at 0."""
        if not 0.0 <= tau <= self.duration:
            raise OutOfSpan(f"tau={tau} outside [0, {self.duration}]")
        return min(max(bisect_left(self._knots, tau) - 1, 0), len(self._table) - 1)

    def _point(self, tau: float) -> list[float]:
        """The dense state at one parameter as a list of n floats.

        The step of the last parameter is kept (its bounds in tau and its
        row as floats, the 8 interpolant coefficients of each entry), so a
        root polish inside one step reads the row once: a tau in (ts[i],
        ts[i + 1]] is interpolated from the kept step i, any other tau takes
        the step _step picks."""
        t0, t1, coeffs = self._last
        if not t0 < tau <= t1:
            i, n = self._step(tau), self.flow.field.n
            row = self._table[i].tolist()
            t0, t1 = self._knots[i], self._knots[i + 1]
            coeffs = [row[j::n] for j in range(n)]
            self._last = t0, t1, coeffs
        x = (tau - t0) / (t1 - t0)
        return [_interpolate(c, x) for c in coeffs]

    def _read(self, kernel, tau: float) -> tuple[float, ...]:
        """kernel(*_point(tau)) for a kernel compiled over floats: EvalError
        when it fails or returns a non-finite entry."""
        return ex._floats(kernel, self._point(tau), "evaluation")

    def _grid(self, ns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(taus, states, half): every step cut into ns equal pieces plus the
        end, as _cut_steps gives them with merged points dropped, the dense
        states there, shape (len(taus), n), and _cut_steps' indices of the
        ns/2 cut in taus.

        The pieces sit at the step fractions j/ns, so the states are one
        product of the (ns + 1, 8) table of Horner weights with the steps'
        rows: _interpolate at x = j/ns to a few ulps. sample, which reads
        x from the rounded time, also differs by that rounding. A step
        start is its own row's start state (sample takes the lower step at
        x = 1 there), the end is the last step at x = 1."""
        taus, keep, half = _cut_steps(self.ts, ns)
        w = _horner_weights(ns)
        n = self.flow.field.n
        rows = self._table.reshape(len(self._table), 8, n)
        states = np.concatenate([(w[:ns] @ rows).reshape(-1, n), w[ns:] @ rows[-1]])
        return taus[keep], states[keep], half

    def sample(self, taus) -> np.ndarray:
        """Dense states at many parameters, shape (len(taus), n): one Horner
        pass over their steps' rows, taken as one (8, n, N) array, whose
        operations each run over contiguous memory, returned transposed."""
        taus = np.asarray(taus, float)
        n = self.flow.field.n
        if taus.size == 0:
            return np.empty((0, n))
        if not 0.0 <= taus.min() <= taus.max() <= self.duration:
            raise OutOfSpan("sample parameters outside the integrated span")
        ts = self.ts
        i = np.clip(np.searchsorted(ts, taus) - 1, 0, len(self._table) - 1)
        x = (taus - ts[i]) / (ts[i + 1] - ts[i])
        levels = self._table.reshape(-1, 8, n).transpose(1, 2, 0)
        return _interpolate(levels.take(i, axis=2), x).T


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


def _cut_steps(ts: np.ndarray, ns: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """(grid, keep, half): each step of ts cut into ns equal pieces, plus
    the final time, with the same floats as np.linspace(ts[i], ts[i + 1],
    ns + 1)[:-1] per step; the mask that drops a point equal to the one
    before it; and, for even ns, the indices in grid[keep] of the cut into
    ns/2 pieces with its own repeats dropped. ts rises and no piece rounds
    past its step's end, so repeats are adjacent; they occur where a last
    step clipped to a few ulps of the end merges pieces.

    A piece k*(h/(ns/2)) is 2k*(h/ns) exactly, so the ns/2 cut is every
    other grid point; a point dropped by keep shares the index of the kept
    one before it, which is its value."""
    step = (ts[1:] - ts[:-1]) / ns
    grid = np.empty(len(step) * ns + 1)
    np.add(np.arange(ns) * step[:, None], ts[:-1, None],
           out=grid[:-1].reshape(-1, ns))
    grid[-1] = ts[-1]
    keep = np.empty(len(grid), bool)
    keep[0] = True
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    at = np.cumsum(keep)[::2] - 1
    first = np.empty(len(at), bool)
    first[0] = True
    np.not_equal(at[1:], at[:-1], out=first[1:])
    return grid, keep, at[first]


def _check_cap(flow: Flow, t: float) -> None:
    """ValueError for a NaN time, IntegrationError for |t| past the cap."""
    if math.isnan(t):
        raise ValueError(f"time {t} is not a number")
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


def _run(kernel, what: str, t: float, y0, solout, **stepping):
    """Integrate y' = kernel(*y) from 0 to the signed time t on the owned
    stepper, over the floats or numpy columns of y0, handing each accepted
    step to solout as _dop853.solve does, with its keyword arguments
    stepping (controlled entries, tolerance pair). A kernel failure raises
    EvalError; a non-finite end state, IntegrationError."""
    try:
        end = _dop853.solve(kernel, t, tuple(y0), solout, **stepping)
    except ex._EVAL_FAILURES as exc:
        raise EvalError(f"{what} failed: {exc}") from exc
    if not np.isfinite(end).all():
        raise IntegrationError("non-finite state at the end of integration")
    return end


def integrate(flow: Flow, duration: float, x0, *, backward: bool = False) -> FlowArc:
    """Integrate the flow from x0 for the given duration, backward in time
    if asked."""
    x0 = _start(x0, "integrate", flow.field.n)
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    _check_cap(flow, duration)
    return FlowArc(flow, x0, duration, backward)


def flow_map(flow: Flow, t: float, x) -> np.ndarray:
    """State after time t (t may be negative) starting from x."""
    x = _start(x, "flow_map", flow.field.n)
    if t == 0.0:
        return x.copy()
    _check_cap(flow, t)
    return np.array(_run(flow.field._kernels["value"].floats, "field evaluation",
                         t, x.tolist(), None))


def flow_map_with_jacobian(flow: Flow, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(F^t(x), D_x F^t(x)) via the variational equations integrated alongside,
    under error control on the n state entries alone: the state is
    flow_map's bit for bit, the matrix the derivative of that computed map."""
    return _variational_map(flow, t, x, (_dop853.RTOL, _dop853.ATOL))


def _coarse_variational_map(flow: Flow, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """flow_map_with_jacobian stepped at _dop853.COARSE, read when called.
    Only periodic._newton's trials from far iterates call it."""
    return _variational_map(flow, t, x, _dop853.COARSE)


def _variational_map(flow: Flow, t: float, x,
                     tols: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    n = flow.field.n
    x = _start(x, "flow_map_with_jacobian", n)
    if t == 0.0:
        return x.copy(), np.eye(n)
    _check_cap(flow, t)
    y0 = x.tolist() + np.eye(n).ravel().tolist()
    yf = np.array(_run(flow.field._kernels["variational"].floats,
                       "variational right-hand side", t, y0, None, controlled=n,
                       tols=tols))
    return yf[:n], yf[n:].reshape(n, n)


def flow_map_points(flow: Flow, t: float, points: np.ndarray) -> np.ndarray:
    """Flow many points at once, stepped together as one (n, N) array, and
    return their states at t as an (N, n) batch.

    Error control is applied to the joint norm, which is adequate for the
    margin checks this backs (not for tight per-point tolerances). Memory
    holds the current state, not the trajectory.
    """
    pts = _start(points, "flow_map_points", flow.field.n, batch=True)
    _check_cap(flow, t)
    if t == 0.0 or len(pts) == 0:   # nothing to integrate
        return pts.copy()
    with np.errstate(all="ignore"):
        end = _run(flow.field._kernels["value"].columns, "field evaluation", t,
                   pts.T, None)
    return end.T.copy()
