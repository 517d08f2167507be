"""Periodic switching orbits: shooting residual, damped Newton, continuation.

A candidate orbit is a switching vector (start point x, durations t_1..t_p)
whose chain x_{i+1} = F_{i+1}(t_{i+1}, x_i) visits each boundary in turn.
Closure is solved as a square (n+p) root-finding problem: p level equations
plus the n-vector x_p - x_0. With equal first and closing level offsets a
zero residual is exactly a p-periodic switching trajectory; with unequal
offsets the solver returns the projection-closed orbit (the chain closes on
the starting level).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .dynamics import (TIME_CAP_FACTOR, flow_map, flow_map_with_jacobian,
                       integrate)
from .errors import (ContinuationStalled, DegenerateCrossing,
                     DegenerateJacobian, FlowRelayError, NoConvergence,
                     NotInWindow, ProjectionDiverged, ReplayMismatch)
from .events import (DEFAULT_EVENTS, EventSettings, _expand_tree,
                     find_crossings)
from .geometry import Region, RelaySystem, sample_boundary
from .relay import Segment, SwitchEvent, Trajectory
from ._util import seeded_rng

__all__ = [
    "SwitchingVector",
    "PeriodicOrbit",
    "VerificationReport",
    "SolveOptions",
    "ContinuationPath",
    "level_values",
    "chain_start",
    "chain_end",
    "chain_points",
    "project_to_boundary",
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


def _check_windows(system: RelaySystem, sv: SwitchingVector) -> None:
    for i, (t, flow) in enumerate(zip(sv.durations, system.flows)):
        cap = TIME_CAP_FACTOR * flow.horizon
        if not 0.0 < t <= cap:
            raise NotInWindow(
                f"duration t_{i + 1}={t} outside (0, {cap}] for flow {i + 1}")


def chain_points(system: RelaySystem, sv: SwitchingVector) -> list[np.ndarray]:
    """The chain x_0, ..., x_p realized by integrating each leg in turn."""
    _check_windows(system, sv)
    xs = [sv.x]
    for i, t in enumerate(sv.durations):
        xs.append(flow_map(system.flows[i], t, xs[-1]))
    return xs


def _chain_with_jacobians(system: RelaySystem, sv: SwitchingVector):
    _check_windows(system, sv)
    xs = [sv.x]
    mats = []
    for i, t in enumerate(sv.durations):
        x_next, a = flow_map_with_jacobian(system.flows[i], t, xs[-1])
        xs.append(x_next)
        mats.append(a)
    return xs, mats


def level_values(system: RelaySystem, sv: SwitchingVector) -> np.ndarray:
    """(f_0(x_0), ..., f_p(x_p)) along the chain; equals the level offsets
    exactly when the chain rides every boundary."""
    xs = chain_points(system, sv)
    vals = [float(system.chain_region(j).f.evaluate(xs[j]))
            for j in range(system.p + 1)]
    return np.array(vals)


def chain_start(sv: SwitchingVector) -> np.ndarray:
    """Projection of a switching vector onto its start point (bit-exact)."""
    return sv.x


def chain_end(system: RelaySystem, sv: SwitchingVector) -> np.ndarray:
    """Endpoint of the realized chain (the composed flow maps applied to x)."""
    return chain_points(system, sv)[-1]


def project_to_boundary(region: Region, level_target: float, y, *,
                        tol: float = 1e-12, max_iter: int = 30,
                        max_displacement: float | None = None) -> np.ndarray:
    """Newton steps along the gradient until |f - level_target| <= tol.

    Intended for points already near the target level (a collar move);
    diverging iterations or a vanishing gradient raise ProjectionDiverged.
    """
    x = np.array(y, float)
    start = x.copy()
    for _ in range(max_iter):
        r = float(region.f.evaluate(x)) - level_target
        if abs(r) <= tol:
            if max_displacement is not None and \
                    np.linalg.norm(x - start) > max_displacement:
                raise ProjectionDiverged("projection left the collar")
            return x
        g = region.f.gradient(x)
        gn2 = float(g @ g)
        if gn2 < region.eps_reg ** 2:
            raise ProjectionDiverged(
                f"gradient norm {np.sqrt(gn2):.2e} under the regularity floor")
        x = x - (r / gn2) * g
    raise ProjectionDiverged(f"no convergence in {max_iter} Newton steps")


def shooting_residual(system: RelaySystem, levels, sv: SwitchingVector) -> np.ndarray:
    """(f_i(x_i) - level_i for i = 0..p-1) followed by x_p - x_0; length n+p."""
    lv = system.levels() if levels is None else np.asarray(levels, float)
    xs = chain_points(system, sv)
    rows = [float(system.chain_region(i, lv).f.evaluate(xs[i])) - float(lv[i])
            for i in range(system.p)]
    return np.concatenate([np.array(rows), xs[-1] - xs[0]])


def residual_jacobian(system: RelaySystem, levels, sv: SwitchingVector) -> np.ndarray:
    """Exact (n+p) x (n+p) derivative of the shooting residual.

    Assembled by the chain rule from the leg Jacobians (variational
    integration), boundary gradients, and field values at the chain points
    (the time partials).
    """
    lv = system.levels() if levels is None else np.asarray(levels, float)
    n, p = system.n, system.p
    xs, mats = _chain_with_jacobians(system, sv)
    vels = [system.flows[i].field(xs[i + 1]) for i in range(p)]
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


# ---------------------------------------------------------------------------
# Damped Newton on the square system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOptions:
    max_seeds: int = 32
    window_factor: float = 2.0   # durations may range in (0, factor * horizon)
    residual_tol: float = 1e-9
    max_iter: int = 40
    armijo_factor: float = 0.5
    armijo_slope: float = 1e-4
    clamp_margin_rel: float = 1e-6
    dedup_tol: float = 1e-4
    cond_limit: float = 1e12
    seed: int = 0
    level_retry: bool = True     # perturb level offsets when the Jacobian degenerates
    retry_offset: float = 1e-3
    events: EventSettings = DEFAULT_EVENTS


# failures a seed or a continuation step may hit; anything else is a bug
_SOLVE_ERRORS = (FlowRelayError, np.linalg.LinAlgError)


@dataclass
class _NewtonResult:
    sv: SwitchingVector
    residual_norm: float
    converged: bool
    on_clamp: bool
    degenerate: bool
    iterations: int


def _clamp_bounds(system: RelaySystem,
                  opts: SolveOptions) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([opts.clamp_margin_rel * f.horizon for f in system.flows])
    hi = np.array([opts.window_factor * f.horizon - m
                   for f, m in zip(system.flows, lo)])
    return lo, hi


def _clamp_durations(t: np.ndarray, system: RelaySystem,
                     opts: SolveOptions) -> np.ndarray:
    return np.clip(t, *_clamp_bounds(system, opts))


def _newton(system: RelaySystem, levels: np.ndarray, sv: SwitchingVector,
            opts: SolveOptions) -> _NewtonResult:
    n, p = system.n, system.p
    z = np.concatenate([sv.x, _clamp_durations(sv.t, system, opts)])
    degenerate = False

    def split(vec: np.ndarray) -> SwitchingVector:
        return SwitchingVector.of(vec[:n], vec[n:])

    def try_step(step: np.ndarray, r_cur: np.ndarray, jac: np.ndarray):
        slope = float(r_cur @ (jac @ step))
        if slope >= 0.0:
            return None
        phi = 0.5 * float(r_cur @ r_cur)
        alpha = 1.0
        while alpha >= 2.0 ** -12:
            z_try = z + alpha * step
            z_try[n:] = _clamp_durations(z_try[n:], system, opts)
            try:
                r_try = shooting_residual(system, levels, split(z_try))
            except _SOLVE_ERRORS:
                alpha *= opts.armijo_factor
                continue
            if 0.5 * float(r_try @ r_try) <= phi + opts.armijo_slope * alpha * slope:
                return z_try, r_try
            alpha *= opts.armijo_factor
        return None

    r = shooting_residual(system, levels, split(z))
    rnorm = float(np.linalg.norm(r))
    iterations = 0
    for _ in range(opts.max_iter):
        if rnorm <= opts.residual_tol:
            break
        iterations += 1
        jac = residual_jacobian(system, levels, split(z))
        if np.linalg.cond(jac) > opts.cond_limit:
            degenerate = True
        # plain Gauss-Newton step, then Levenberg-regularized retries when a
        # near-singular direction makes the line search fail
        jtj = jac.T @ jac
        scale = float(np.trace(jtj)) / jtj.shape[0]
        accepted = None
        for mu in (0.0, 1e-8, 1e-4, 1e-2, 1.0):
            if mu == 0.0:
                step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            else:
                step = np.linalg.solve(jtj + mu * scale * np.eye(n + p),
                                       -(jac.T @ r))
            accepted = try_step(step, r, jac)
            if accepted is not None:
                break
        if accepted is None:
            break
        z, r = accepted
        rnorm = float(np.linalg.norm(r))
    converged = rnorm <= opts.residual_tol
    lo, hi = _clamp_bounds(system, opts)
    on_clamp = bool(np.any(z[n:] <= lo * 1.5) or np.any(z[n:] >= hi - 0.5 * lo))
    return _NewtonResult(split(z), rnorm, converged, on_clamp, degenerate,
                         iterations)


# ---------------------------------------------------------------------------
# Orbit objects, verification, deduplication
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    closure: float
    closure_raw: float
    margins: tuple[float, ...]
    monodromy_moduli: tuple[float, ...]
    matched_indices: tuple[int, ...]
    max_time_mismatch: float

    def to_dict(self) -> dict:
        return {
            "closure": self.closure,
            "closure_raw": self.closure_raw,
            "margins": list(self.margins),
            "monodromy_moduli": list(self.monodromy_moduli),
            "matched_indices": list(self.matched_indices),
            "max_time_mismatch": self.max_time_mismatch,
        }


@dataclass
class PeriodicOrbit:
    """A converged, verified periodic switching orbit."""

    sv: SwitchingVector
    levels: np.ndarray
    residual_norm: float
    margins: tuple[float, ...]
    monodromy: np.ndarray
    chain: list[np.ndarray]
    window_factor: float
    verification: VerificationReport | None = None

    @property
    def period(self) -> float:
        return float(sum(self.sv.durations))

    def trajectory(self) -> Trajectory:
        """The realized switching trajectory (one full period)."""
        segments = []
        switches = []
        t_abs = 0.0
        for i, dur in enumerate(self.sv.durations):
            segments.append(Segment(i % len(self.sv.durations), t_abs, dur,
                                    self.chain[i], self.chain[i + 1]))
            switches.append(SwitchEvent(t_abs + dur, self.chain[i + 1], i,
                                        (i + 1) % len(self.sv.durations), 0,
                                        self.margins[i]))
            t_abs += dur
        return Trajectory(0, self.levels, segments, switches)

    def to_dict(self) -> dict:
        return {
            "start": [float(v) for v in self.sv.start],
            "durations": [float(v) for v in self.sv.durations],
            "period": self.period,
            "levels": [float(v) for v in self.levels],
            "residual_norm": self.residual_norm,
            "margins": list(self.margins),
            "monodromy_moduli": [float(abs(m)) for m in
                                 np.linalg.eigvals(self.monodromy)],
            "verification": None if self.verification is None
                            else self.verification.to_dict(),
        }


def _package(system: RelaySystem, levels: np.ndarray, sv: SwitchingVector,
             rnorm: float, window_factor: float) -> PeriodicOrbit:
    xs, mats = _chain_with_jacobians(system, sv)
    vels = [system.flows[i].field(xs[i + 1]) for i in range(system.p)]
    margins = tuple(
        float(abs(system.chain_region(i + 1, levels).f.gradient(xs[i + 1]) @ vels[i]))
        for i in range(system.p))
    monodromy = np.eye(system.n)
    for a in mats:
        monodromy = a @ monodromy
    return PeriodicOrbit(sv, np.asarray(levels, float), rnorm, margins,
                         monodromy, xs, window_factor)


def orbit_points(system: RelaySystem, sv: SwitchingVector,
                 per_leg: int = 128) -> np.ndarray:
    """Dense samples along the closed curve traced by the orbit."""
    pts = []
    x = sv.x
    for i, dur in enumerate(sv.durations):
        arc = integrate(system.flows[i], dur, x)
        taus = np.linspace(0.0, dur, per_leg, endpoint=False)
        pts.append(arc.sample(taus))
        x = arc.end
    return np.vstack(pts)


def orbit_hausdorff(system: RelaySystem, a: SwitchingVector | PeriodicOrbit,
                    b: SwitchingVector | PeriodicOrbit,
                    per_leg: int = 256) -> float:
    """Symmetric Hausdorff distance between two orbits' sampled curves."""
    sa = a.sv if isinstance(a, PeriodicOrbit) else a
    sb = b.sv if isinstance(b, PeriodicOrbit) else b
    pa = orbit_points(system, sa, per_leg)
    pb = orbit_points(system, sb, per_leg)
    da = cKDTree(pb).query(pa)[0].max()
    db = cKDTree(pa).query(pb)[0].max()
    return float(max(da, db))


def verify_periodic(system: RelaySystem, orbit: PeriodicOrbit,
                    settings: EventSettings | None = None,
                    replay_tol_rel: float = 1e-6) -> VerificationReport:
    """Independently replay the orbit and measure closure and margins.

    Each leg's crossing list is recomputed from scratch; the recorded
    duration must match one crossing (the matched index realizes an NthHit
    replay). A failed match, or a matched time off by more than the replay
    tolerance, raises ReplayMismatch.
    """
    st = settings if settings is not None else DEFAULT_EVENTS
    lv = orbit.levels
    x = orbit.sv.x
    indices = []
    margins = []
    max_mismatch = 0.0
    for i, dur in enumerate(orbit.sv.durations):
        flow = system.flows[i]
        region = system.chain_region(i + 1, lv)
        window = orbit.window_factor * flow.horizon
        evs = find_crossings(flow, region, float(lv[i + 1]), x, window,
                             settings=st)
        if not evs:
            raise ReplayMismatch(f"no crossings on leg {i + 1} during replay")
        diffs = [abs(e.t - dur) for e in evs]
        k = int(np.argmin(diffs))
        tol_t = replay_tol_rel * flow.horizon
        if diffs[k] > tol_t:
            raise ReplayMismatch(
                f"leg {i + 1}: recorded duration {dur} is {diffs[k]:.2e} from "
                f"the nearest replayed crossing (tolerance {tol_t:.2e})")
        max_mismatch = max(max_mismatch, diffs[k])
        indices.append(k)
        margins.append(evs[k].margin)
        x = evs[k].point
    closure_raw = float(np.linalg.norm(x - orbit.sv.x))
    if abs(float(lv[system.p]) - float(lv[0])) > 0:
        x_proj = project_to_boundary(system.chain_region(0, lv), float(lv[0]), x)
        closure = float(np.linalg.norm(x_proj - orbit.sv.x))
    else:
        closure = closure_raw
    mono = np.linalg.eigvals(orbit.monodromy)
    return VerificationReport(closure, closure_raw, tuple(margins),
                              tuple(float(abs(m)) for m in mono),
                              tuple(indices), float(max_mismatch))


# ---------------------------------------------------------------------------
# Seeding, the main solver, continuation
# ---------------------------------------------------------------------------

def _auto_seeds(system: RelaySystem, levels: np.ndarray,
                opts: SolveOptions) -> list[SwitchingVector]:
    """Chain completions grown from boundary-0 samples, one seed per leaf."""
    samples = sample_boundary(system.chain_region(0, levels), system.box,
                              opts.max_seeds,
                              seeded_rng(opts.seed, "find-periodic"),
                              level=float(levels[0]))
    seeds: list[SwitchingVector] = []
    for pt in samples.points:
        try:
            tree = _expand_tree(system, levels, pt, True, opts.events,
                                window_factor=opts.window_factor)
        except DegenerateCrossing:
            continue
        for leaf in tree.leaves:
            seeds.append(SwitchingVector.of(pt, leaf.times))
        if len(seeds) >= opts.max_seeds:
            break
    return seeds[:opts.max_seeds]


def _dedup(system: RelaySystem, orbits: list[PeriodicOrbit],
           tol: float) -> list[PeriodicOrbit]:
    kept: list[PeriodicOrbit] = []
    for orb in orbits:
        if all(orbit_hausdorff(system, orb, other) >= tol for other in kept):
            kept.append(orb)
    return kept


def find_periodic(system: RelaySystem, levels=None, seeds="auto",
                  opts: SolveOptions | None = None) -> list[PeriodicOrbit]:
    """Find periodic switching orbits by damped Newton from many seeds.

    Seeds are either explicit switching vectors or ("auto") the leaves of
    chain expansions grown from boundary samples. Converged candidates that
    sit on the duration clamp are rejected; survivors are deduplicated by
    orbit Hausdorff distance and independently verified. Raises
    NoConvergence when no seed produces an orbit, or DegenerateJacobian when
    the only failures were singular Jacobians (after level-perturbation
    retries).
    """
    opts = opts or SolveOptions()
    lv = system.levels() if levels is None else np.asarray(levels, float)
    if isinstance(seeds, str) and seeds == "auto":
        seed_list = _auto_seeds(system, lv, opts)
    else:
        seed_list = [s if isinstance(s, SwitchingVector) else SwitchingVector.of(*s)
                     for s in seeds]
    if not seed_list:
        raise NoConvergence("no seeds to start from")

    candidates: list[PeriodicOrbit] = []
    saw_degenerate = False
    rng = seeded_rng(opts.seed, "level-retry")
    for sv in seed_list:
        try:
            res = _newton(system, lv, sv, opts)
        except _SOLVE_ERRORS:
            continue
        if res.converged and not res.on_clamp:
            candidates.append(_package(system, lv, res.sv, res.residual_norm,
                                       opts.window_factor))
            continue
        if res.degenerate:
            saw_degenerate = True
            if opts.level_retry:
                # solve at a perturbed level vector, then continue back
                lv_try = lv + rng.uniform(-opts.retry_offset, opts.retry_offset,
                                          len(lv))
                try:
                    res2 = _newton(system, lv_try, sv, opts)
                    if res2.converged and not res2.on_clamp:
                        path = continue_levels(system, res2.sv, lv_try, lv,
                                               opts=opts)
                        candidates.append(path.orbit)
                except _SOLVE_ERRORS:
                    pass

    if not candidates:
        if saw_degenerate:
            raise DegenerateJacobian(
                "shooting Jacobian degenerate on every surviving seed")
        raise NoConvergence(f"no orbit from {len(seed_list)} seed(s)")

    candidates.sort(key=lambda o: (o.sv.durations, o.sv.start))
    kept = _dedup(system, candidates, opts.dedup_tol)
    verified: list[PeriodicOrbit] = []
    for orb in kept:
        try:
            orb.verification = verify_periodic(system, orb, opts.events)
        except (ReplayMismatch, DegenerateCrossing):
            continue
        verified.append(orb)
    if not verified:
        raise NoConvergence("all converged orbits failed replay verification")
    return verified


@dataclass
class ContinuationPath:
    steps: list[tuple[np.ndarray, SwitchingVector]]
    orbit: PeriodicOrbit


def continue_levels(system: RelaySystem, sv: SwitchingVector, levels_from,
                    levels_to, steps: int = 16,
                    opts: SolveOptions | None = None) -> ContinuationPath:
    """Track a converged orbit as the level offsets move along a segment.

    Linear predictor (tangent solve of the shooting system) plus Newton
    corrector; the step halves on corrector failure down to 1/1024 of the
    segment, at which point ContinuationStalled carries the partial path.
    """
    opts = opts or SolveOptions()
    lv_a = np.asarray(levels_from, float)
    lv_b = np.asarray(levels_to, float)
    n, p = system.n, system.p
    path: list[tuple[np.ndarray, SwitchingVector]] = [(lv_a.copy(), sv)]
    if np.array_equal(lv_a, lv_b):
        rnorm = float(np.linalg.norm(shooting_residual(system, lv_a, sv)))
        orbit = _package(system, lv_a, sv, rnorm, opts.window_factor)
        orbit.verification = verify_periodic(system, orbit, opts.events)
        return ContinuationPath(path, orbit)

    s = 0.0
    base = 1.0 / steps
    h = base
    cur = sv
    while s < 1.0 - 1e-15:
        h = min(h, 1.0 - s)
        lv_cur = lv_a + s * (lv_b - lv_a)
        lv_next = lv_a + (s + h) * (lv_b - lv_a)
        dl = lv_next - lv_cur
        try:
            jac = residual_jacobian(system, lv_cur, cur)
            rhs = np.concatenate([dl[:p], np.zeros(n)])
            tangent = np.linalg.lstsq(jac, rhs, rcond=None)[0]
            z_pred = cur.as_vector() + tangent
            pred = SwitchingVector.of(z_pred[:n],
                                      _clamp_durations(z_pred[n:], system, opts))
            res = _newton(system, lv_next, pred,
                          replace(opts, max_iter=min(opts.max_iter, 20)))
        except _SOLVE_ERRORS:
            res = None
        if res is not None and res.converged and not res.on_clamp:
            s += h
            cur = res.sv
            path.append((lv_next.copy(), cur))
            h = min(2.0 * h, base)
        else:
            h *= 0.5
            if h < 1.0 / 1024.0:
                raise ContinuationStalled(
                    f"minimum continuation step reached at s={s:.4f}",
                    path=path)
    final = _newton(system, lv_b, cur, opts)
    orbit = _package(system, lv_b, final.sv, final.residual_norm,
                     opts.window_factor)
    orbit.verification = verify_periodic(system, orbit, opts.events)
    return ContinuationPath(path, orbit)
