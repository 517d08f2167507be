"""The DOP853 stepper behind every integration in flowrelay.

The explicit Runge-Kutta 8(5,3) pair of Prince & Dormand with its 7th-order
dense output (Hairer, Norsett & Wanner, Solving ODEs I, ch. II.5), at fixed
rtol 1e-10 and atol 1e-12. The tableau is read from scipy.integrate.DOP853,
and the initial-step rule, error norm, step controller and step-underflow
failure are that class's, so results differ from scipy's only by rounding.

A state is a tuple of n floats (one trajectory) or of n numpy columns (a
batch of N points under one joint error norm). Each form has its own step
and dense-row functions under the one step loop of solve.

- Floats: for each state size the two functions are generated as
  straight-line Python with the zero tableau entries dropped, the way
  expr._compile builds the field kernels.
- Columns are stacked into one (n, N) array, with the stages in one
  preallocated (16, n, N) buffer K. Every stage, solution, error and
  dense-row sum is one matrix product of tableau rows with the flattened
  stages, a[:s] @ K[:s].reshape(s, -1), the arithmetic of scipy's rk_step.

A right-hand side maps the n state entries to a tuple of n entries (a
column may come back as a scalar); a failing one propagates its own
exception. Squares are plain products, so an overflowing error estimate is
inf or nan and rejects the step instead of raising.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import DOP853

from .errors import IntegrationError

RTOL = 1e-10
ATOL = 1e-12
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)

# the coefficients the generated code reads (K[12] is the derivative at the
# new state; K[13..15] are the extra stages of the dense output)
_A = DOP853.A.tolist()
_B = DOP853.B.tolist()
_E3 = DOP853.E3.tolist()
_E5 = DOP853.E5.tolist()
_A_EXTRA = DOP853.A_EXTRA.tolist()
_D = DOP853.D.tolist()
_STAGES = len(_B)

# the same coefficients as arrays, for the stacked form's matrix products
_A_ROWS = [np.array(row[:s]) for s, row in enumerate(_A)]
_B_ROW = np.array(_B)
_E_ROWS = (np.array(_E5), np.array(_E3))
_EXTRA_ROWS = [np.array(row[:s]) for s, row in enumerate(_A_EXTRA, _STAGES + 1)]
_D_ROWS = np.array(_D)

# (step, dense rows) of the float form per state size: pure functions, so
# one cache serves all
_GENERATED: dict[int, tuple[Callable, Callable]] = {}


def _comb(coefs, i: int) -> str:
    """sum_j coefs[j] * k<j>_<i> over the nonzero coefficients, in order."""
    return " + ".join(f"{c!r}*k{j}_{i}" for j, c in enumerate(coefs) if c != 0.0)


def _names(stem: str, n: int) -> str:
    return "".join(f"{stem}_{i}, " for i in range(n))


def _args(n: int, entry: Callable[[int], str]) -> str:
    return "".join(f"{entry(i)}, " for i in range(n))


def _step_source(n: int) -> str:
    """_step(fun, y, k0, h) -> (error norm, y_new, f_new, stages): one trial
    step of size h from y with derivative k0."""
    lines = ["def _step(fun, y, k0, h):", f"    {_names('y', n)}= y",
             f"    {_names('k0', n)}= k0"]
    for s in range(1, _STAGES):
        arg = _args(n, lambda i: f"y_{i} + ({_comb(_A[s][:s], i)})*h")
        lines += [f"    k{s} = fun({arg})", f"    {_names(f'k{s}', n)}= k{s}"]
    lines += [f"    n_{i} = y_{i} + h*({_comb(_B, i)})" for i in range(n)]
    lines.append(f"    k{_STAGES} = fun({_names('n', n)})")
    for i in range(n):
        lines += [f"    a = abs(y_{i})", f"    b = abs(n_{i})",
                  f"    s = {ATOL!r} + max(a, b)*{RTOL!r}",
                  f"    r_{i} = ({_comb(_E5, i)})/s",
                  f"    q_{i} = ({_comb(_E3, i)})/s"]
    lines.append("    e5 = " + " + ".join(f"r_{i}*r_{i}" for i in range(n)))
    lines.append("    e3 = " + " + ".join(f"q_{i}*q_{i}" for i in range(n)))
    # e5 == 0 gives a zero norm whatever e3 is, as in scipy
    lines.append(f"    err = abs(h)*e5/_sqrt((e5 + 0.01*e3)*{n}) if e5 else 0.0")
    stages = "".join(f"k{s}, " for s in range(_STAGES))
    lines.append(f"    return err, ({_names('n', n)}), k{_STAGES}, ({stages})")
    return "\n".join(lines) + "\n"


def _dense_source(n: int) -> str:
    """_dense(fun, y, stages, y_new, f_new, h) -> y and the 7 rows F0..F6 of
    the step's interpolant, as one flat tuple of 8n floats."""
    stages = "".join(f"({_names(f'k{s}', n)}), " for s in range(_STAGES))
    lines = ["def _dense(fun, y, ks, yn, fn, h):", f"    {_names('y', n)}= y",
             f"    {_names('n', n)}= yn", f"    {_names(f'k{_STAGES}', n)}= fn",
             f"    {stages}= ks"]
    for r, row in enumerate(_A_EXTRA):
        s = _STAGES + 1 + r
        arg = _args(n, lambda i: f"y_{i} + ({_comb(row[:s], i)})*h")
        lines.append(f"    {_names(f'k{s}', n)}= fun({arg})")
    lines += [f"    d_{i} = n_{i} - y_{i}" for i in range(n)]
    rows = [_names("y", n), _names("d", n),
            _args(n, lambda i: f"h*k0_{i} - d_{i}"),
            _args(n, lambda i: f"2*d_{i} - h*(k{_STAGES}_{i} + k0_{i})")]
    rows += [_args(n, lambda i: f"h*({_comb(row, i)})") for row in _D]
    lines.append(f"    return ({''.join(rows)})")
    return "\n".join(lines) + "\n"


def _generated(n: int) -> tuple[Callable, Callable]:
    """The float form's step and dense-row functions for states of n
    entries, generated on first use."""
    got = _GENERATED.get(n)
    if got is None:
        scope = {"_sqrt": math.sqrt}
        src = _step_source(n) + _dense_source(n)
        exec(compile(src, f"<flowrelay-dop853-{n}>", "exec"), scope)
        got = _GENERATED[n] = (scope["_step"], scope["_dense"])
    return got


def _stacked(n: int, npts: int) -> tuple[Callable, Callable]:
    """The stacked form's step and dense-row functions for a batch of npts
    points of n entries, the same contract as the generated pair over
    (n, npts) arrays. They share one stage buffer K, so the stages passed to
    the dense rows are those of the last trial step."""
    K = np.empty((_STAGES + 4, n, npts))
    flat = K.reshape(len(K), n * npts)

    def put(s: int, entries) -> None:
        """K[s] = the n entries, columns or scalars."""
        for i, v in enumerate(entries):
            K[s, i] = v

    def stage(fun, s: int, y, coefs, h: float) -> None:
        """K[s] = fun(y + (coefs @ K[:len(coefs)]) * h)."""
        z = (coefs @ flat[:len(coefs)]).reshape(n, npts)
        z *= h
        z += y
        put(s, fun(*z))

    def step(fun, y, k0, h):
        put(0, k0)
        for s in range(1, _STAGES):
            stage(fun, s, y, _A_ROWS[s], h)
        y_new = y + (_B_ROW @ flat[:_STAGES]).reshape(n, npts) * h
        put(_STAGES, fun(*y_new))
        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
        # each the mean over points of the scaled squares summed over
        # entries, as in the float form; e5 == 0 gives a zero norm whatever
        # e3 is, as in scipy
        e5, e3 = (np.mean(np.sum(np.square(
            (row @ flat[:_STAGES + 1]).reshape(n, npts) / scale), axis=0))
            for row in _E_ROWS)
        err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
        return err, y_new, K[_STAGES].copy(), K

    def dense(fun, y, ks, y_new, f_new, h):
        for s, coefs in enumerate(_EXTRA_ROWS, _STAGES + 1):
            stage(fun, s, y, coefs, h)
        row = np.empty((8, n, npts))
        row[0] = y
        row[1] = d = y_new - y
        row[2] = h * K[0] - d
        row[3] = 2 * d - h * (K[_STAGES] + K[0])
        row[4:] = h * (_D_ROWS @ flat).reshape(len(_D), n, npts)
        return row

    return step, dense


# the initial RMS norm of a state of floats and of a stacked state
def _rms_floats(v) -> float:
    return math.hypot(*v) / len(v) ** 0.5


def _rms_stacked(v) -> float:
    return math.sqrt(np.mean(np.square(v)))


def _initial_step(fun, y: tuple, f: tuple, span: float, direction: float,
                  rms: Callable) -> float:
    """|h| of the first trial step (Hairer, Norsett & Wanner, sec. II.4)."""
    scale = [ATOL + abs(v) * RTOL for v in y]
    d0 = rms([v / s for v, s in zip(y, scale)])
    d1 = rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(*[v + h0 * direction * w for v, w in zip(y, f)])
    d2 = rms([(a - b) / s for a, b, s in zip(f1, f, scale)])
    # h0 is 0 only if d1 overflowed; numpy's division would give inf too
    d2 = d2 / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, span)


def solve(fun, t_end: float, y0: tuple, dense_from: float):
    """Integrate y' = fun(*y) from time 0 to the signed time t_end, over
    floats or, if y0 holds numpy columns, over the stacked columns.

    Returns (ts, ys, rows): the accepted times (signed, from 0 to t_end),
    the states there, and for each step ending at |t| >= dense_from (the
    last len(rows) steps) one row holding its start state and its 7
    interpolant rows. Over floats a state is a tuple and a row a flat tuple
    of 8n floats; over columns a state is an (n, N) array and a row an
    (8, n, N) array. Raises IntegrationError on step underflow.
    """
    if isinstance(y0[0], np.ndarray):
        y0 = np.array(y0, float)
        (step, dense_rows), rms = _stacked(*y0.shape), _rms_stacked
    else:
        (step, dense_rows), rms = _generated(len(y0)), _rms_floats
    direction = 1.0 if t_end > 0 else -1.0
    toward = direction * math.inf
    t, y = 0.0, y0
    f = fun(*y)
    h_abs = _initial_step(fun, y, f, abs(t_end), direction, rms)
    ts, ys, rows = [t], [y], []
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, toward) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError("integration failed: Required step size "
                                       "is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            err, y_new, f_new, ks = step(fun, y, f, h)
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        if abs(t_new) >= dense_from:
            rows.append(dense_rows(fun, y, ks, y_new, f_new, h))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return ts, ys, rows
