"""The DOP853 stepper behind every integration in flowrelay.

The explicit Runge-Kutta 8(5,3) pair of Prince & Dormand with its 7th-order
dense output (Hairer, Norsett & Wanner, Solving ODEs I, ch. II.5), at one
of two fixed (rtol, atol) pairs: (1e-10, 1e-12), which every public
integration steps at, and COARSE, (1e-5, 1e-7), which only the trials of
Newton's far iterates step at. Neither is an option. The tableau
is embedded below as the float literals of scipy.integrate.DOP853's arrays
(a test checks them bit for bit), and the initial-step rule, error norm,
step controller and step-underflow failure are that class's, so a state
under full error control differs from scipy's only by rounding.

A float state may put only its leading entries under error control: the
error norm and the first step read those alone, and the other entries ride
along on the same steps. A state extended by its variational equations
thus takes the steps the state alone would take, and its matrix entries
are the derivative of that computed flow map with its steps held fixed
(internal numerical differentiation: Bock 1981; Hairer, Norsett & Wanner
on the variational equations).

A state is a tuple of n floats (one trajectory) or of n numpy columns (a
batch of N points under one joint error norm), each form with its own step
function under the one step loop of solve. That loop keeps only the
current state and hands each accepted step to the caller's solout, as the
SOLOUT of Hairer's DOP853 driver does (Solving ODEs I, sec. II.6); a step
that would pass the final time ends there.

- Floats: for each state size, count of controlled entries and tolerance
  pair the step function and the dense-row function, which builds a step's
  interpolant only for a caller with a solout, are generated as
  straight-line Python with the zero tableau entries dropped, the way
  expr._compile builds the field kernels. The pair enters the step's source
  as its two literals and nowhere else.
- Columns are stacked into one (n, N) array and have no dense output. The
  state y and the stages K0..K12 are the rows of one preallocated buffer
  S. Once per step h times the tableau rows, behind a column of ones,
  makes each stage argument and the solution, y + h * (a @ K), one
  product [1, h*a] @ S[:s + 1] into a preallocated buffer; the two error
  estimates are one product.

A right-hand side maps the n state entries to a tuple of n entries (a
column may come back as a scalar); a failing one propagates its own
exception. Squares are plain products, so an overflowing error estimate is
inf or nan and rejects the step instead of raising.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import IntegrationError

RTOL = 1e-10
ATOL = 1e-12
# the coarse (rtol, atol) pair: only Newton's trials from far iterates step
# at it (periodic._newton)
COARSE = (1e-5, 1e-7)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_ESTIMATOR_ORDER = 7
_EXPONENT = -1.0 / (_ERROR_ESTIMATOR_ORDER + 1)

# the coefficients the generated code reads (K[12] is the derivative at the
# new state; K[13..15] are the extra stages of the dense output): the repr of
# each of DOP853.A, B, E3, E5, A_EXTRA and D as .tolist()
_A = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.05260015195876773, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
     0.0],
    [0.0197250569845379, 0.0591751709536137, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.02958758547680685, 0.0, 0.08876275643042054, 0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0, 0.0],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792, 0.0,
     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996, 0.0, 0.0,
     0.0, 0.0],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
     -0.590290826836843, 21.230051448181193, 15.279233632882423,
     -33.28821096898486, -0.020331201708508627, 0.0, 0.0, 0.0],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196, 0.0, 0.0],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.0],
]
_B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
_E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]
_E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0]
_A_EXTRA = [
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298, 0.0, 0.0, 0.0],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325, 0.0, 0.0],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
     0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
     0.0],
]
_D = [
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
]
_STAGES = len(_B)

# the stacked form's tables: [1, h * _TABLE[r]] @ [y, K0..K11] is the
# argument of K(r + 1), the last the solution; _ERRORS maps K0..K12 to the
# E5 and E3 estimates
_TABLE = np.array(_A[1:] + [_B])
_ERRORS = np.array([_E5, _E3])


def _comb(coefs, i: int) -> str:
    """sum_j coefs[j] * k<j>_<i> over the nonzero coefficients, in order."""
    return " + ".join(f"{c!r}*k{j}_{i}" for j, c in enumerate(coefs) if c != 0.0)


def _names(stem: str, n: int) -> str:
    return "".join(f"{stem}_{i}, " for i in range(n))


def _args(n: int, entry: Callable[[int], str]) -> str:
    return "".join(f"{entry(i)}, " for i in range(n))


def _step_source(n: int, m: int, tols: tuple[float, float]) -> str:
    """_step(fun, y, k0, h) -> (error norm, y_new, f_new, stages): one trial
    step of size h from y with derivative k0, its error norm over the
    leading m of the n entries at the (rtol, atol) pair tols."""
    rtol, atol = tols
    lines = ["def _step(fun, y, k0, h):", f"    {_names('y', n)}= y",
             f"    {_names('k0', n)}= k0"]
    for s in range(1, _STAGES):
        arg = _args(n, lambda i: f"y_{i} + ({_comb(_A[s][:s], i)})*h")
        lines += [f"    k{s} = fun({arg})", f"    {_names(f'k{s}', n)}= k{s}"]
    lines += [f"    n_{i} = y_{i} + h*({_comb(_B, i)})" for i in range(n)]
    lines.append(f"    k{_STAGES} = fun({_names('n', n)})")
    for i in range(m):
        lines += [f"    a = abs(y_{i})", f"    b = abs(n_{i})",
                  f"    s = {atol!r} + max(a, b)*{rtol!r}",
                  f"    r_{i} = ({_comb(_E5, i)})/s",
                  f"    q_{i} = ({_comb(_E3, i)})/s"]
    lines.append("    e5 = " + " + ".join(f"r_{i}*r_{i}" for i in range(m)))
    lines.append("    e3 = " + " + ".join(f"q_{i}*q_{i}" for i in range(m)))
    # e5 == 0 gives a zero norm whatever e3 is, as in scipy
    lines.append(f"    err = abs(h)*e5/_sqrt((e5 + 0.01*e3)*{m}) if e5 else 0.0")
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


@functools.cache
def _generated(n: int, m: int, tols: tuple[float, float]) -> tuple[Callable, Callable]:
    """The float form's step and dense-row functions for states of n
    entries, the leading m under error control at the pair tols, generated
    on first use: pure functions, so one cache serves all."""
    scope = {"_sqrt": math.sqrt}
    src = _step_source(n, m, tols) + _dense_source(n)
    exec(compile(src, f"<flowrelay-dop853-{n}-{m}-{tols[0]!r}>", "exec"), scope)
    return scope["_step"], scope["_dense"]


def _stacked(n: int, npts: int, tols: tuple[float, float]) -> Callable:
    """The stacked form's step function for a batch of npts points of n
    entries at the pair tols, the same contract as the generated one over
    (n, npts) arrays. Its stages are the one buffer that the next trial
    step overwrites."""
    rtol, atol = tols
    S = np.empty((_STAGES + 2, n * npts))    # y, then the stages K0..K12
    K = S[1:].reshape(_STAGES + 1, n, npts)
    coefs = np.ones((len(_TABLE), _STAGES + 1))
    z = np.empty(n * npts)                   # a stage argument, then the scale
    Z = z.reshape(n, npts)
    errs = np.empty((2, n * npts))
    # the argument of K[s] is coefs[s - 1, :s + 1] @ S[:s + 1]
    args = [(coefs[s - 1, :s + 1], S[:s + 1]) for s in range(1, _STAGES + 1)]

    def step(fun, y, k0, h):
        np.multiply(_TABLE, h, out=coefs[:, 1:])
        S[0] = y.reshape(-1)
        for i, v in enumerate(k0):
            K[0, i] = v
        for s in range(1, _STAGES + 1):      # the last argument is y_new
            np.matmul(*args[s - 1], out=z)
            for i, v in enumerate(fun(*Z)):
                K[s, i] = v
        y_new = Z.copy()
        # each the mean over points of the scaled squares summed over
        # entries, as in the float form; e5 == 0 gives a zero norm whatever
        # e3 is, as in scipy
        scale = np.maximum(np.abs(S[0], out=errs[0]), np.abs(z, out=errs[1]), out=z)
        scale *= rtol
        scale += atol
        np.matmul(_ERRORS, S[1:], out=errs)
        np.divide(errs, scale, out=errs)
        e5, e3 = np.add.reduce(np.square(errs, out=errs), axis=1) / npts
        err = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
        return err, y_new, K[_STAGES].copy(), K

    return step


# the initial RMS norm of a state of floats and of a stacked state
def _rms_floats(v) -> float:
    return math.hypot(*v) / len(v) ** 0.5


def _rms_stacked(v) -> float:
    return math.sqrt(np.mean(np.square(v)))


def _initial_step(fun, y: tuple, f: tuple, span: float, direction: float,
                  rms: Callable, m: int, tols: tuple[float, float]) -> float:
    """|h| of the first trial step (Hairer, Norsett & Wanner, sec. II.4),
    read from the leading m entries of y, f and the probe's value, at the
    (rtol, atol) pair tols."""
    rtol, atol = tols
    scale = [atol + abs(v) * rtol for v in y[:m]]
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


def solve(fun, t_end: float, y0: tuple, solout, *, controlled: int | None = None,
          tols: tuple[float, float] = (RTOL, ATOL)):
    """Integrate y' = fun(*y) from time 0 to the signed time t_end, over
    floats or, if y0 holds numpy columns, over the stacked columns, and
    return the end state: a tuple over floats, an (n, N) array over columns.

    Over floats, the error norm and the first step read only the leading
    controlled entries (all by default); the others ride along on the same
    steps. tols is the (rtol, atol) pair: the fixed one by default, or
    COARSE.

    Only the current state is kept; the last step ends at t_end exactly.
    Unless solout is None, each accepted step from t to t_new (signed, from
    0 to t_end) calls solout(t, t_new, y_new, row) with its end state. Over
    floats row is that step's dense row, its start state and its 7
    interpolant rows as a flat tuple of 8n floats; over columns it is None.
    Raises IntegrationError on step underflow.
    """
    m = len(y0) if controlled is None else controlled
    if isinstance(y0[0], np.ndarray):
        y0 = np.array(y0, float)
        step, dense_rows, rms = _stacked(*y0.shape, tols), None, _rms_stacked
    else:
        (step, dense_rows), rms = _generated(len(y0), m, tols), _rms_floats
    direction = 1.0 if t_end > 0 else -1.0
    toward = direction * math.inf
    t, y = 0.0, y0
    f = fun(*y)
    h_abs = _initial_step(fun, y, f, abs(t_end), direction, rms, m, tols)

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
        if solout is not None:
            solout(t, t_new, y_new, dense_rows and dense_rows(fun, y, ks, y_new, f_new, h))
        t, y, f = t_new, y_new, f_new
    return y
