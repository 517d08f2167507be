"""Flow integration: flow maps, dense trajectories, variational Jacobians.

One adaptive embedded Runge-Kutta pair (DOP853 at rtol 1e-10, atol 1e-12)
behind one solve_ivp call; the dense-output interpolant is built only for
arcs and sampled batches, not for endpoint maps. No stiff path. Backward
time is a negative time span: the solver steps the same field with negative
steps, so both directions use the same compiled kernels.

Each VectorField is compiled once into fused kernels (value, Jacobian,
variational right-hand side) that the solver calls on the state directly.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    "flow_map_with_jacobian",
    "flow_map_points",
]

TIME_CAP_FACTOR = 10.0  # |t| may not exceed this multiple of the flow horizon
_RTOL = 1e-10  # relative tolerance of every integration
_ATOL = 1e-12  # absolute tolerance of every integration
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
        self._value = ex._compile(roots, n, "_", ex._SCALAR_NS)
        self._var = ex._compile(_variational_body(roots, jac), n + n * n, "_",
                                ex._SCALAR_NS)
        self._jac = ex._compile(jac, n, "_", ex._SCALAR_NS)
        self._value_cols = ex._compile(roots, n, "_a", ex._ARRAY_NS)

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
    with the same fixed method and tolerances (_RTOL, _ATOL)."""

    field: VectorField
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("flow horizon must be positive")


class FlowArc:
    """An integrated trajectory piece with dense output, built by integrate.

    The arc is parameterized by elapsed time tau in [0, duration], and ts
    holds the accepted steps in tau. A backward arc is solved over the
    negative span [0, -duration], so its solver time is -tau; this class is
    the one place that maps between the two.
    """

    def __init__(self, flow: Flow, x0: np.ndarray, duration: float,
                 backward: bool):
        self.flow = flow
        self.x0 = np.asarray(x0, float)
        self.duration = duration
        self.backward = backward
        self._sign = -1.0 if backward else 1.0
        self._sol = _solve(_kernel_rhs(flow.field._value, "field evaluation"),
                           self._sign * duration, self.x0, dense=True)
        self.ts = np.abs(self._sol.t)
        self.states = self._sol.y

    @property
    def end(self) -> np.ndarray:
        return self.states[:, -1].copy()

    def __call__(self, tau: float) -> np.ndarray:
        if tau < 0.0 or tau > self.duration:
            raise OutOfSpan(f"tau={tau} outside [0, {self.duration}]")
        if tau == 0.0:
            return self.x0.copy()
        return np.asarray(self._sol.sol(self._sign * tau), float)

    def sample(self, taus) -> np.ndarray:
        """Dense states at many parameters, shape (len(taus), n)."""
        taus = np.asarray(taus, float)
        if taus.size == 0:
            return np.empty((0, self.flow.field.n))
        if taus.min() < 0.0 or taus.max() > self.duration:
            raise OutOfSpan("sample parameters outside the integrated span")
        return np.asarray(self._sol.sol(self._sign * taus), float).T


def _check_cap(flow: Flow, t: float) -> None:
    if abs(t) > TIME_CAP_FACTOR * flow.horizon:
        raise IntegrationError(
            f"|t|={abs(t)} exceeds the {TIME_CAP_FACTOR}x horizon cap "
            f"({TIME_CAP_FACTOR * flow.horizon})")


def _solve(rhs, t: float, y0: np.ndarray, dense: bool):
    """The one solve_ivp call: integrate y' = rhs(y) from 0 to the signed
    time t, raising IntegrationError on solver failure or a non-finite end
    state."""
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853",
                    dense_output=dense, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError("non-finite state at the end of integration")
    return sol


def _kernel_rhs(kernel, what: str):
    """Wrap a fused kernel as a solve_ivp right-hand side of the state y."""

    def rhs(_t, y):
        try:
            return kernel(*y.tolist())
        except _EVAL_FAILURES as exc:
            raise EvalError(f"{what} failed: {exc}") from exc

    return rhs


def integrate(flow: Flow, duration: float, x0, *, backward: bool = False) -> FlowArc:
    """Integrate the flow from x0 for the given duration, backward in time
    if asked."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    _check_cap(flow, duration)
    return FlowArc(flow, x0, duration, backward)


def flow_map(flow: Flow, t: float, x) -> np.ndarray:
    """State after time t (t may be negative) starting from x."""
    x = np.asarray(x, float)
    if t == 0.0:
        return x.copy()
    _check_cap(flow, t)
    rhs = _kernel_rhs(flow.field._value, "field evaluation")
    return _solve(rhs, t, x, dense=False).y[:, -1].copy()


def flow_map_with_jacobian(flow: Flow, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(F^t(x), D_x F^t(x)) via the variational equations integrated alongside."""
    x = np.asarray(x, float)
    n = flow.field.n
    if t == 0.0:
        return x.copy(), np.eye(n)
    _check_cap(flow, t)
    rhs = _kernel_rhs(flow.field._var, "variational right-hand side")
    yf = _solve(rhs, t, np.concatenate([x, np.eye(n).ravel()]), dense=False).y[:, -1]
    return yf[:n].copy(), yf[n:].reshape(n, n).copy()


def flow_map_points(flow: Flow, t: float, points: np.ndarray,
                    t_eval=None) -> np.ndarray:
    """Flow many points at once by stacking them into one ODE system.

    Error control is applied to the joint norm, which is adequate for the
    margin checks this backs (not for tight per-point tolerances). Returns
    the endpoint batch (N, n), or (len(t_eval), N, n) when t_eval is given;
    t_eval is in elapsed time and must lie in [0, |t|] (else OutOfSpan).
    """
    if t_eval is not None:
        t_eval = np.asarray(t_eval, float)
        if t_eval.size and (t_eval.min() < 0.0 or t_eval.max() > abs(t)):
            raise OutOfSpan(f"t_eval outside the integrated span [0, {abs(t)}]")
    elif t == 0.0:
        return np.array(points, float, copy=True)
    _check_cap(flow, t)
    pts = np.asarray(points, float)
    npts, n = pts.shape
    fld = flow.field

    def rhs(_t, y):
        return fld.value_batch(y.reshape(npts, n)).ravel()

    sol = _solve(rhs, t, pts.ravel(), dense=t_eval is not None)
    if t_eval is None:
        return sol.y[:, -1].reshape(npts, n)
    return sol.sol(np.copysign(t_eval, t)).T.reshape(len(t_eval), npts, n)
