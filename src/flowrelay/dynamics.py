"""Flow integration: flow maps, dense trajectories, variational Jacobians.

One adaptive embedded Runge-Kutta pair (DOP853 by default, RK45 selectable)
with a free dense-output interpolant; no stiff path. Backward time is
realized by integrating the sign-flipped field forward, so crossing search
and tree recursion share a single code path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import expr as ex
from .errors import EvalError, IntegrationError, OutOfSpan

__all__ = [
    "VectorField",
    "Flow",
    "FlowArc",
    "integrate",
    "flow_map",
    "flow_jacobian",
    "flow_map_with_jacobian",
    "flow_map_points",
]

TIME_CAP_FACTOR = 10.0  # |t| may not exceed this multiple of the flow horizon


class VectorField:
    """An autonomous field on R^n given by n component expressions.

    Immutable after construction; evaluation is pure and thread-safe.
    """

    def __init__(self, components: Sequence[ex.Expression], label: int = 0):
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
        self.label = label
        self._fns = [c._scalar() for c in components]
        self._afns = [c._array() for c in components]
        self._jac_fns = [c._scalar(grad=True) for c in components]

    def __call__(self, x) -> np.ndarray:
        xs = [float(v) for v in x]
        try:
            return np.array([fn(*xs) for fn in self._fns])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"field evaluation failed: {exc}") from exc

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points (N, n) -> (N, n)."""
        cols = [pts[:, j] for j in range(self.n)]
        with np.errstate(all="ignore"):
            out = np.stack([np.broadcast_to(fn(*cols), pts.shape[0])
                            for fn in self._afns], axis=1)
        return out.astype(float)

    def jacobian(self, x) -> np.ndarray:
        """Space derivative DV(x) as an (n, n) matrix, exact."""
        xs = [float(v) for v in x]
        try:
            return np.array([fn(*xs) for fn in self._jac_fns])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"field Jacobian failed: {exc}") from exc


@dataclass
class Flow:
    """A flow descriptor: field, horizon, and integrator settings."""

    field: VectorField
    horizon: float
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf
    method: str = "DOP853"
    dense: bool = True

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("flow horizon must be positive")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


class FlowArc:
    """An integrated trajectory piece with dense output.

    The arc is parameterized by tau in [0, duration]; for a backward arc the
    physical time is -tau.
    """

    def __init__(self, flow: Flow, x0: np.ndarray, duration: float,
                 backward: bool, sol):
        self.flow = flow
        self.x0 = np.asarray(x0, float)
        self.duration = duration
        self.backward = backward
        self._sol = sol
        self.ts = sol.t
        self.states = sol.y

    @property
    def end(self) -> np.ndarray:
        return self.states[:, -1].copy()

    def _interpolant(self):
        if self._sol.sol is None:
            raise IntegrationError(
                "flow was integrated without dense output (Flow.dense=False)")
        return self._sol.sol

    def __call__(self, tau: float) -> np.ndarray:
        if tau < 0.0 or tau > self.duration:
            raise OutOfSpan(f"tau={tau} outside [0, {self.duration}]")
        if tau == 0.0:
            return self.x0.copy()
        return np.asarray(self._interpolant()(tau), float)

    def sample(self, taus) -> np.ndarray:
        """Dense states at many parameters, shape (len(taus), n)."""
        taus = np.asarray(taus, float)
        if taus.size == 0:
            return np.empty((0, self.flow.field.n))
        if taus.min() < 0.0 or taus.max() > self.duration:
            raise OutOfSpan("sample parameters outside the integrated span")
        return np.asarray(self._interpolant()(taus), float).T


def _check_cap(flow: Flow, t: float) -> None:
    if abs(t) > TIME_CAP_FACTOR * flow.horizon:
        raise IntegrationError(
            f"|t|={abs(t)} exceeds the {TIME_CAP_FACTOR}x horizon cap "
            f"({TIME_CAP_FACTOR * flow.horizon})")


def integrate(flow: Flow, duration: float, x0, *, backward: bool = False) -> FlowArc:
    """Integrate the flow from x0 over [0, duration] (field negated if backward)."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    _check_cap(flow, duration)
    x0 = np.asarray(x0, float)
    fld = flow.field
    sign = -1.0 if backward else 1.0

    def rhs(_t, y):
        return sign * fld(y)

    sol = solve_ivp(rhs, (0.0, duration), x0, method=flow.method,
                    dense_output=flow.dense, rtol=flow.rtol, atol=flow.atol,
                    max_step=flow.max_step)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError("non-finite state at the end of integration")
    return FlowArc(flow, x0, duration, backward, sol)


def flow_map(flow: Flow, t: float, x) -> np.ndarray:
    """State after time t (t may be negative) starting from x."""
    x = np.asarray(x, float)
    if t == 0.0:
        return x.copy()
    _check_cap(flow, t)
    return integrate(flow, abs(t), x, backward=t < 0.0).end


def _variational(flow: Flow, duration: float, x0, backward: bool):
    n = flow.field.n
    fld = flow.field
    sign = -1.0 if backward else 1.0

    def rhs(_t, y):
        x = y[:n]
        m = y[n:].reshape(n, n)
        dx = sign * fld(x)
        dm = sign * fld.jacobian(x) @ m
        return np.concatenate([dx, dm.ravel()])

    y0 = np.concatenate([np.asarray(x0, float), np.eye(n).ravel()])
    sol = solve_ivp(rhs, (0.0, duration), y0, method=flow.method,
                    rtol=flow.rtol, atol=flow.atol, max_step=flow.max_step)
    if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError(f"variational integration failed: {sol.message}")
    yf = sol.y[:, -1]
    return yf[:n].copy(), yf[n:].reshape(n, n).copy()


def flow_map_with_jacobian(flow: Flow, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(F^t(x), D_x F^t(x)) via the variational equations integrated alongside."""
    x = np.asarray(x, float)
    n = flow.field.n
    if t == 0.0:
        return x.copy(), np.eye(n)
    _check_cap(flow, t)
    return _variational(flow, abs(t), x, t < 0.0)


def flow_jacobian(flow: Flow, t: float, x) -> np.ndarray:
    """Space derivative of the time-t flow map at x."""
    return flow_map_with_jacobian(flow, t, x)[1]


def flow_map_points(flow: Flow, t: float, points: np.ndarray,
                    t_eval=None) -> np.ndarray:
    """Flow many points at once by stacking them into one ODE system.

    Error control is applied to the joint norm, which is adequate for the
    margin checks this backs (not for tight per-point tolerances). Returns
    the endpoint batch (N, n), or (len(t_eval), N, n) when t_eval is given.
    """
    if t == 0.0 and t_eval is None:
        return np.array(points, float, copy=True)
    _check_cap(flow, t)
    pts = np.asarray(points, float)
    npts, n = pts.shape
    fld = flow.field
    sign = -1.0 if t < 0.0 else 1.0

    def rhs(_t, y):
        return sign * fld.value_batch(y.reshape(npts, n)).ravel()

    sol = solve_ivp(rhs, (0.0, abs(t)), pts.ravel(), method=flow.method,
                    dense_output=t_eval is not None,
                    rtol=flow.rtol, atol=flow.atol, max_step=flow.max_step)
    if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError(f"batched integration failed: {sol.message}")
    if t_eval is None:
        return sol.y[:, -1].reshape(npts, n)
    out = sol.sol(np.asarray(t_eval, float))
    return out.T.reshape(len(t_eval), npts, n)
