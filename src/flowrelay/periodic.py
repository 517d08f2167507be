"""Periodic switching orbits: shooting residual, Levenberg-Marquardt, continuation.

A candidate orbit is a switching vector (start point x, durations t_1..t_p)
whose chain x_{i+1} = F_{i+1}(t_{i+1}, x_i) visits each boundary in turn.
Closure is solved as a square (n+p) root-finding problem: p level equations
plus the n-vector x_p - x_0, so a zero residual is exactly a p-periodic
switching trajectory. That needs equal first and closing level offsets
(the orbit leaves and re-enters boundary 0 at one level); the solvers
reject unequal ones with ValueError. Newton is Levenberg-Marquardt on a
four-rung damping ladder (mu in 0, 1e-2, 1e-1, 1) with one SVD per
Jacobian. It flows the start and every trial once, with the variational
equations, and reads both the residual and an accepted trial's Jacobian
from that one linearized chain, so a seed costs at most max_iter Jacobians
and 2*max_iter + 5 linearized chains; a solved orbit's monodromy comes from
its last one. The trials of an iterate with |r| above 3e-2 are flowed at
the stepper's coarse tolerance pair, all others at the fixed one, and a
seed converges only on a fixed-pair chain. A variational leg steps on its
state's error alone, so a fixed-pair linearized chain is chain_points' and
its residual shooting_residual's, bit for bit. Level continuation tracks
an orbit from a first step over the whole segment, with steps that double
while its corrector succeeds, but never back to a size already refused,
and halve when it fails.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .dynamics import (TIME_CAP_FACTOR, _coarse_variational_map, flow_map,
                       flow_map_with_jacobian, integrate)
from .errors import (ContinuationStalled, DegenerateCrossing,
                     DegenerateJacobian, FlowRelayError, NoConvergence,
                     NotInWindow, ReplayMismatch)
from .events import _expand_tree, find_crossings
from .geometry import RelaySystem, sample_boundary
from ._util import seeded_rng

__all__ = [
    "SwitchingVector",
    "PeriodicOrbit",
    "VerificationReport",
    "SolveOptions",
    "ContinuationPath",
    "chain_points",
    "shooting_residual",
    "residual_jacobian",
    "find_periodic",
    "continue_levels",
    "verify_periodic",
    "orbit_points",
    "orbit_hausdorff",
]


@dataclass(frozen=True)
class SwitchingVector:
    """Start point plus the p leg durations of a candidate orbit."""

    start: tuple[float, ...]
    durations: tuple[float, ...]

    @classmethod
    def of(cls, start, durations) -> "SwitchingVector":
        return cls(tuple(float(v) for v in start),
                   tuple(float(t) for t in durations))

    @property
    def x(self) -> np.ndarray:
        return np.asarray(self.start, float)

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.durations, float)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.t])


def _check_shape(system: RelaySystem, sv: SwitchingVector) -> None:
    if len(sv.start) != system.n or len(sv.durations) != system.p:
        raise ValueError(
            f"switching vector needs {system.n} start coordinates and "
            f"{system.p} durations, got {len(sv.start)} and "
            f"{len(sv.durations)}")


def _check_windows(system: RelaySystem, sv: SwitchingVector) -> None:
    for i, (t, flow) in enumerate(zip(sv.durations, system.flows)):
        cap = TIME_CAP_FACTOR * flow.horizon
        if not 0.0 < t <= cap:
            raise NotInWindow(
                f"duration t_{i + 1}={t} outside (0, {cap}] for flow {i + 1}")


def chain_points(system: RelaySystem, sv: SwitchingVector) -> list[np.ndarray]:
    """The chain x_0, ..., x_p realized by integrating each leg in turn."""
    _check_shape(system, sv)
    _check_windows(system, sv)
    xs = [sv.x]
    for i, t in enumerate(sv.durations):
        xs.append(flow_map(system.flows[i], t, xs[-1]))
    return xs


@dataclass(frozen=True)
class _Linearization:
    """A switching vector's chain flowed with its variational equations: the
    chain points x_i, leg Jacobians dx_i/dx_{i-1} and end fields dx_i/dt_i,
    and the shooting residual read from those points. At the fixed pair
    the points and residual are the plain chain's bit for bit; a coarse
    one's legs step at _dop853.COARSE."""

    sv: SwitchingVector
    r: np.ndarray
    xs: list[np.ndarray]
    mats: list[np.ndarray]
    vels: list[np.ndarray]
    coarse: bool = False


def _residual(system: RelaySystem, lv: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    rows = [float(system.chain_region(i, lv).f.evaluate(xs[i])) - float(lv[i])
            for i in range(system.p)]
    return np.concatenate([np.array(rows), xs[-1] - xs[0]])


def _linearize(system: RelaySystem, lv: np.ndarray, sv: SwitchingVector,
               coarse: bool = False) -> _Linearization:
    _check_shape(system, sv)
    _check_windows(system, sv)
    leg = _coarse_variational_map if coarse else flow_map_with_jacobian
    xs, mats, vels = [sv.x], [], []
    for i, t in enumerate(sv.durations):
        x_next, a = leg(system.flows[i], t, xs[-1])
        xs.append(x_next)
        mats.append(a)
        vels.append(system.flows[i].field(x_next))
    return _Linearization(sv, _residual(system, lv, xs), xs, mats, vels, coarse)


def _jacobian(system: RelaySystem, lv: np.ndarray, lin: _Linearization) -> np.ndarray:
    """The chain rule over a linearization's legs: boundary gradients at the
    chain points, leg Jacobians, and the end fields as the time partials."""
    n, p = system.n, system.p
    xs, mats, vels = lin.xs, lin.mats, lin.vels
    jac = np.zeros((n + p, n + p))
    for i in range(p):
        w = system.chain_region(i, lv).f.gradient(xs[i])
        for j in range(i - 1, -1, -1):
            jac[i, n + j] = w @ vels[j]
            w = w @ mats[j]
        jac[i, :n] = w
    w_mat = np.eye(n)
    for j in range(p - 1, -1, -1):
        jac[p:, n + j] = w_mat @ vels[j]
        w_mat = w_mat @ mats[j]
    jac[p:, :n] = w_mat - np.eye(n)
    return jac


def shooting_residual(system: RelaySystem, levels, sv: SwitchingVector) -> np.ndarray:
    """(f_i(x_i) - level_i for i = 0..p-1) followed by x_p - x_0; length n+p."""
    return _residual(system, system.levels(levels), chain_points(system, sv))


def residual_jacobian(system: RelaySystem, levels, sv: SwitchingVector) -> np.ndarray:
    """Exact (n+p) x (n+p) derivative of the shooting residual.

    Assembled by the chain rule from the leg Jacobians (variational
    integration), boundary gradients, and field values at the chain points
    (the time partials).
    """
    lv = system.levels(levels)
    return _jacobian(system, lv, _linearize(system, lv, sv))


# ---------------------------------------------------------------------------
# Levenberg-Marquardt on the square system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOptions:
    """Seed budget and RNG seed of find_periodic's automatic seeding; the
    duration window (window_factor horizons) is fixed."""

    max_seeds: int = 32
    seed: int = 0
    window_factor: ClassVar[float] = 2.0  # durations in (0, factor * horizon)


_MAX_ITER = 40              # Jacobians per Newton solve
_CORRECTOR_MAX_ITER = 5     # Jacobians per continuation corrector
_RESIDUAL_TOL = 1e-9        # |r| at which a Newton seed has converged
_COARSE_ABOVE = 3e-2        # |r| above which an iterate's trials step coarse
_CLAMP_MARGIN_REL = 1e-6    # duration clamp margin, as a share of the horizon
_COND_LIMIT = 1e12          # cond(J) above which a Jacobian counts as degenerate
_DAMPING = (0.0, 1e-2, 1e-1, 1.0)  # the Levenberg-Marquardt ladder of mu


# failures a seed or a continuation step may hit; anything else is a bug
_SOLVE_ERRORS = (FlowRelayError, np.linalg.LinAlgError)


@dataclass
class _NewtonResult:
    sv: SwitchingVector
    lin: _Linearization  # the linearization at sv
    converged: bool
    on_clamp: bool
    degenerate: bool


def _clamp_bounds(system: RelaySystem) -> tuple[np.ndarray, np.ndarray]:
    horizons = np.array([f.horizon for f in system.flows])
    lo = _CLAMP_MARGIN_REL * horizons
    return lo, SolveOptions.window_factor * horizons - lo


def _newton(system: RelaySystem, levels: np.ndarray, sv: SwitchingVector,
            max_iter: int) -> _NewtonResult:
    """Levenberg-Marquardt on a four-rung damping ladder, one SVD per Jacobian.

    Each Jacobian is factored once, J = U diag(sig) V^T. That gives the
    degeneracy test cond(J) = sig_1/sig_n > _COND_LIMIT, the scale
    s = trace(J^T J)/(n+p) and every trial step
    dz = -V diag(sig/(sig^2 + mu*s)) U^T r, the least-squares solution of
    [J; sqrt(mu*s) I] dz = [-r; 0]. At mu = 0 it is the minimum-norm
    Gauss-Newton step: the sig at or below lstsq's cut-off on that stacked
    matrix, eps*2(n+p)*sig_1, are dropped. mu takes the rungs of _DAMPING =
    (0, 1e-2, 1e-1, 1). Every trial is linearized (_linearize flows its
    chain with the variational equations) and r is read from its chain
    points, so an accepted trial's Jacobian needs no second integration. A
    trial is accepted only if it lowers |r|; acceptance moves mu one rung
    down, rejection one rung up. The seed is given up once a trial at mu = 1
    is rejected, which bounds the work to max_iter (_MAX_ITER, or
    _CORRECTOR_MAX_ITER in a continuation corrector) Jacobians and
    2*max_iter + 5 linearized chains, of either pair.

    Two accuracies (inexact Newton: Dembo, Eisenstat & Steihaug 1982): the
    start is linearized at the fixed pair, and so is every trial from an
    iterate with |r| <= _COARSE_ABOVE (3e-2); the trials from an iterate
    above it step at the coarse pair, _dop853.COARSE. A seed converges
    only on a fixed-pair linearization with |r| <= _RESIDUAL_TOL, whose
    chain points are the plain chain's bit for bit, so the r it stops on is
    the public residual. No switching vector is linearized twice. The
    result carries the last accepted linearization, at the fixed pair on a
    converged seed.
    """
    n, p = system.n, system.p
    lo, hi = _clamp_bounds(system)
    z = np.concatenate([sv.x, np.clip(sv.t, lo, hi)])
    degenerate = False

    def split(vec: np.ndarray) -> SwitchingVector:
        return SwitchingVector.of(vec[:n], vec[n:])

    lin = _linearize(system, levels, split(z))
    rnorm = float(np.linalg.norm(lin.r))
    rung = 0
    for _ in range(max_iter):
        if (rnorm <= _RESIDUAL_TOL and not lin.coarse) or rung == len(_DAMPING):
            break
        coarse = rnorm > _COARSE_ABOVE
        u, sig, vt = np.linalg.svd(_jacobian(system, levels, lin))
        degenerate |= bool(sig[0] > _COND_LIMIT * sig[-1])
        scale, ur = float(sig @ sig) / (n + p), u.T @ lin.r
        gauss = np.divide(1.0, sig, out=np.zeros(n + p),
                          where=sig > np.finfo(float).eps * 2 * (n + p) * sig[0])
        while rung < len(_DAMPING):
            damp = _DAMPING[rung] * scale
            w = sig / (sig * sig + damp) if damp else gauss
            z_try = z - vt.T @ (w * ur)
            z_try[n:] = np.clip(z_try[n:], lo, hi)
            try:
                trial = (_linearize(system, levels, split(z_try), True) if coarse
                         else _linearize(system, levels, split(z_try)))
                rnorm_try = float(np.linalg.norm(trial.r))
            except _SOLVE_ERRORS:
                rnorm_try = np.inf
            if rnorm_try < rnorm:
                z, lin, rnorm = z_try, trial, rnorm_try
                rung = max(rung - 1, 0)
                break
            rung += 1
    converged = rnorm <= _RESIDUAL_TOL and not lin.coarse
    on_clamp = bool(np.any(z[n:] <= lo * 1.5) or np.any(z[n:] >= hi - 0.5 * lo))
    return _NewtonResult(lin.sv, lin, converged, on_clamp, degenerate)


# ---------------------------------------------------------------------------
# Orbit objects, verification, deduplication
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """The replay's closure |end - start|, its transversality margins
    |grad f . V| at each leg's matched crossing, and the matches."""

    closure: float
    margins: tuple[float, ...]
    matched_indices: tuple[int, ...]
    max_time_mismatch: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PeriodicOrbit:
    """A converged, verified periodic switching orbit."""

    sv: SwitchingVector
    levels: np.ndarray
    residual_norm: float
    monodromy: np.ndarray
    verification: VerificationReport | None = None

    @property
    def period(self) -> float:
        return float(sum(self.sv.durations))

    def to_dict(self) -> dict:
        return {
            "start": [float(v) for v in self.sv.start],
            "durations": [float(v) for v in self.sv.durations],
            "period": self.period,
            "levels": [float(v) for v in self.levels],
            "residual_norm": self.residual_norm,
            "monodromy_moduli": [float(abs(m)) for m in
                                 np.linalg.eigvals(self.monodromy)],
            "verification": None if self.verification is None
                            else self.verification.to_dict(),
        }


def _package(system: RelaySystem, levels: np.ndarray,
             lin: _Linearization) -> PeriodicOrbit:
    """The orbit at a solved switching vector, replay-verified: the monodromy
    is the product of the linearization's leg Jacobians, the residual norm
    that of the public residual, |shooting_residual|, flowed only once the
    replay has passed (it equals |lin.r|, Newton's last)."""
    monodromy = np.eye(system.n)
    for a in lin.mats:
        monodromy = a @ monodromy
    orbit = PeriodicOrbit(lin.sv, np.asarray(levels, float), math.nan, monodromy)
    orbit.verification = verify_periodic(system, orbit)
    orbit.residual_norm = float(np.linalg.norm(shooting_residual(system, levels, lin.sv)))
    return orbit


_ORBIT_PER_LEG = 256  # samples per leg of an orbit's sampled curve


def orbit_points(system: RelaySystem, sv: SwitchingVector) -> np.ndarray:
    """Dense samples along the closed curve traced by the orbit."""
    _check_shape(system, sv)
    pts = []
    x = sv.x
    for i, dur in enumerate(sv.durations):
        arc = integrate(system.flows[i], dur, x)
        taus = np.linspace(0.0, dur, _ORBIT_PER_LEG, endpoint=False)
        pts.append(arc.sample(taus))
        x = arc.end
    return np.vstack(pts)


def orbit_hausdorff(system: RelaySystem, a: SwitchingVector | PeriodicOrbit,
                    b: SwitchingVector | PeriodicOrbit) -> float:
    """Symmetric Hausdorff distance between two orbits' sampled curves."""
    sa = a.sv if isinstance(a, PeriodicOrbit) else a
    sb = b.sv if isinstance(b, PeriodicOrbit) else b
    pa, pb = orbit_points(system, sa), orbit_points(system, sb)
    return max(_farthest_nearest(pa, pb), _farthest_nearest(pb, pa))


_HAUSDORFF_ROWS = 64  # rows of `a` per block of the distance table


def _farthest_nearest(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of a of the distance to the nearest point of b.

    Squared distances are sums of squared coordinate differences, summed in
    coordinate order, never |a|^2 + |b|^2 - 2 a.b, whose cancellation loses
    about 1e-4 on near-equal curves."""
    worst = 0.0
    bt = b.T
    for lo in range(0, len(a), _HAUSDORFF_ROWS):
        block = a[lo:lo + _HAUSDORFF_ROWS].T
        d2 = np.subtract.outer(block[0], bt[0])
        d2 *= d2
        for k in range(1, len(bt)):
            d = np.subtract.outer(block[k], bt[k])
            d *= d
            d2 += d
        worst = max(worst, float(d2.min(axis=1).max()))
    return math.sqrt(worst)


def _require_closing_level(lv: np.ndarray) -> None:
    if lv[0] != lv[-1]:
        raise ValueError(
            f"first and closing level offsets differ ({lv[0]} != {lv[-1]}); "
            "a periodic orbit needs them equal")


_REPLAY_TOL_REL = 1e-6  # replay time mismatch allowed, as a share of the horizon
_REPLAY_PAD_REL = 1e-3  # replay span past a recorded duration, as a share of the horizon


def verify_periodic(system: RelaySystem,
                    orbit: PeriodicOrbit) -> VerificationReport:
    """Independently replay the orbit and measure closure and margins.

    Each leg's crossing list is recomputed from scratch on one integration
    that ends a pad (_REPLAY_PAD_REL, 1e-3 horizons) past the recorded
    duration, or at the window of 2 horizons if that comes first; the
    separation floor and the window-edge filter are the window's. The
    recorded duration must match one crossing (the matched index, which
    counts only crossings before it, realizes an NthHit replay). Structure
    after a leg's switch is read only within the pad: a graze or root pair
    farther on does not reject the orbit. A failed match, or a matched time
    off by more than the replay tolerance, raises ReplayMismatch; a
    switching vector of the wrong shape or unequal first and closing level
    offsets raise ValueError. closure is |replayed end - start|."""
    lv = orbit.levels
    _check_shape(system, orbit.sv)
    _require_closing_level(lv)
    x = orbit.sv.x
    indices = []
    margins = []
    max_mismatch = 0.0
    for i, dur in enumerate(orbit.sv.durations):
        flow = system.flows[i]
        region = system.chain_region(i + 1, lv)
        window = SolveOptions.window_factor * flow.horizon
        span = min(window, max(dur, 0.0) + _REPLAY_PAD_REL * flow.horizon)
        evs = find_crossings(flow, region, None, x, window,
                             arc=integrate(flow, span, x))
        if not evs:
            raise ReplayMismatch(f"no crossings on leg {i + 1} during replay")
        diffs = [abs(e.t - dur) for e in evs]
        k = int(np.argmin(diffs))
        tol_t = _REPLAY_TOL_REL * flow.horizon
        if diffs[k] > tol_t:
            raise ReplayMismatch(
                f"leg {i + 1}: recorded duration {dur} is {diffs[k]:.2e} from "
                f"the nearest replayed crossing (tolerance {tol_t:.2e})")
        max_mismatch = max(max_mismatch, diffs[k])
        indices.append(k)
        margins.append(evs[k].margin)
        x = evs[k].point
    closure = float(np.linalg.norm(x - orbit.sv.x))
    return VerificationReport(closure, tuple(margins), tuple(indices),
                              float(max_mismatch))


# ---------------------------------------------------------------------------
# Seeding, the main solver, continuation
# ---------------------------------------------------------------------------

def _auto_seeds(system: RelaySystem, levels: np.ndarray,
                opts: SolveOptions) -> list[SwitchingVector]:
    """Chain completions grown from boundary-0 samples, one seed per leaf."""
    samples = sample_boundary(system.chain_region(0, levels), system.box,
                              opts.max_seeds,
                              seeded_rng(opts.seed, "find-periodic"))
    seeds: list[SwitchingVector] = []
    for pt in samples.points:
        try:
            tree = _expand_tree(system, levels, pt, True,
                                window_factor=SolveOptions.window_factor)
        except DegenerateCrossing:
            continue
        for leaf in tree.leaves:
            seeds.append(SwitchingVector.of(pt, leaf.times))
        if len(seeds) >= opts.max_seeds:
            break
    return seeds[:opts.max_seeds]


_DEDUP_TOL = 1e-4  # switching-vector distance (max norm) under which orbits are one


def _dedup(cands: list[_NewtonResult]) -> list[_NewtonResult]:
    """Keep each candidate whose switching vector (start, durations) is at
    least _DEDUP_TOL (max norm) from every switching vector kept before it."""
    kept: list[_NewtonResult] = []
    for c in cands:
        z = c.sv.as_vector()
        if all(np.abs(z - k.sv.as_vector()).max() >= _DEDUP_TOL for k in kept):
            kept.append(c)
    return kept


def find_periodic(system: RelaySystem, levels=None, seeds="auto",
                  opts: SolveOptions | None = None) -> list[PeriodicOrbit]:
    """Find periodic switching orbits by Levenberg-Marquardt from many seeds.

    Seeds are either SwitchingVectors or ("auto") the leaves of chain
    expansions grown from opts.max_seeds boundary samples; each gets at most
    _MAX_ITER (40) Jacobians. Converged candidates that sit on the duration
    clamp are rejected; survivors are deduplicated by the max-norm distance
    of their switching vectors and independently verified. Raises ValueError
    when the first and closing level offsets differ or a seed has the wrong
    shape, DegenerateJacobian when no seed converged and some seed met a
    Jacobian with condition number above _COND_LIMIT (1e12), and
    NoConvergence when no seed produces an orbit otherwise.
    """
    opts = opts or SolveOptions()
    lv = system.levels(levels)
    _require_closing_level(lv)
    if isinstance(seeds, str) and seeds == "auto":
        seed_list = _auto_seeds(system, lv, opts)
    else:
        seed_list = list(seeds)
        for sv in seed_list:
            _check_shape(system, sv)
    if not seed_list:
        raise NoConvergence("no seeds to start from")

    candidates: list[_NewtonResult] = []
    saw_degenerate = False
    for sv in seed_list:
        try:
            res = _newton(system, lv, sv, _MAX_ITER)
        except _SOLVE_ERRORS:
            continue
        if res.converged and not res.on_clamp:
            candidates.append(res)
        elif res.degenerate:
            saw_degenerate = True

    if not candidates:
        if saw_degenerate:
            raise DegenerateJacobian(
                "shooting Jacobian degenerate on every surviving seed")
        raise NoConvergence(f"no orbit from {len(seed_list)} seed(s)")

    candidates.sort(key=lambda r: (r.sv.durations, r.sv.start))
    verified: list[PeriodicOrbit] = []
    for res in _dedup(candidates):
        try:
            verified.append(_package(system, lv, res.lin))
        except (ReplayMismatch, DegenerateCrossing):
            continue
    if not verified:
        raise NoConvergence("all converged orbits failed replay verification")
    return verified


@dataclass
class ContinuationPath:
    steps: list[tuple[np.ndarray, SwitchingVector]]
    orbit: PeriodicOrbit


def continue_levels(system: RelaySystem, sv: SwitchingVector, levels_from,
                    levels_to) -> ContinuationPath:
    """Track a converged orbit as the level offsets move along a segment.

    Linear predictor (tangent solve of the shooting system, one Jacobian
    per accepted point, assembled from the linearization its corrector ended
    on), then a Levenberg-Marquardt corrector of at most 5 Jacobians. The
    first step tries the whole segment and each accepted step doubles the
    next, unless that reaches the smallest size refused so far. A corrector
    that fails, ends on the duration clamp or lands farther from the
    predictor than the predictor lies from the current point (a branch
    jump) halves the step; at 1/1024 of the segment
    ContinuationStalled carries the partial path. The last step lands on
    levels_to exactly, and its corrector's solution is the orbit returned.
    Raises ValueError when sv has the wrong shape or either end has unequal
    first and closing offsets, and the chain's own error (NotInWindow,
    IntegrationError) when sv cannot be flowed.
    """
    _check_shape(system, sv)
    lv_a = system.levels(levels_from)
    lv_b = system.levels(levels_to)
    _require_closing_level(lv_a)
    _require_closing_level(lv_b)
    n, p = system.n, system.p
    path: list[tuple[np.ndarray, SwitchingVector]] = [(lv_a.copy(), sv)]
    lin = _linearize(system, lv_a, sv)
    if np.array_equal(lv_a, lv_b):
        return ContinuationPath(path, _package(system, lv_a, lin))

    lo, hi = _clamp_bounds(system)
    s, h, refused = 0.0, 1.0, np.inf
    cur, jac = sv, None
    while s < 1.0 - 1e-15:
        h = min(h, 1.0 - s)
        lv_cur = lv_a + s * (lv_b - lv_a)
        lv_next = lv_b if h == 1.0 - s else lv_a + (s + h) * (lv_b - lv_a)
        try:
            if jac is None:
                jac = _jacobian(system, lv_cur, lin)
            rhs = np.concatenate([(lv_next - lv_cur)[:p], np.zeros(n)])
            tangent = np.linalg.lstsq(jac, rhs, rcond=None)[0]
            z_pred = cur.as_vector() + tangent
            pred = SwitchingVector.of(z_pred[:n], np.clip(z_pred[n:], lo, hi))
            res = _newton(system, lv_next, pred, _CORRECTOR_MAX_ITER)
        except _SOLVE_ERRORS:
            res = None
        if (res is not None and res.converged and not res.on_clamp
                and np.linalg.norm(res.sv.as_vector() - z_pred)
                <= np.linalg.norm(tangent)):
            s += h
            cur, lin, jac = res.sv, res.lin, None
            path.append((lv_next.copy(), cur))
            if 2.0 * h < refused:
                h = 2.0 * h
        else:
            refused = min(refused, h)
            h *= 0.5
            if h < 1.0 / 1024.0:
                raise ContinuationStalled(
                    f"minimum continuation step reached at s={s:.4f}",
                    path=path)
    return ContinuationPath(path, _package(system, lv_b, lin))
