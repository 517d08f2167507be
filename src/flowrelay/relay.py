"""Switching-trajectory execution and reachable/limit point clouds.

In mode k the state evolves under flow k and only boundary (k+1 mod p) is
watched; which of its crossings triggers the switch is the policy's choice
(trajectories are nonunique by design). Crossing search windows grow from
one horizon up to the ten-horizon cap before the run is declared stuck.
A simulated run is its segments; simulate samples none of their arcs, and
the CSV export and the strict-mode check share each segment's samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .dynamics import TIME_CAP_FACTOR, FlowArc, integrate
from .errors import NoCrossingWithinHorizon
from .events import CrossingEvent, find_crossings
from .geometry import RelaySystem
from ._util import seeded_rng

__all__ = [
    "FirstHit",
    "NthHit",
    "RandomHit",
    "SwitchPolicy",
    "Segment",
    "SwitchEvent",
    "Trajectory",
    "PointCloud",
    "simulate",
    "accessible_set",
    "strict_mode_check",
    "check_connected",
    "cloud_spacing",
]

_WINDOW_GROWTH = (1.0, 2.0, 4.0, TIME_CAP_FACTOR)  # multiples of the horizon
_SEGMENT_SAMPLES = 256  # per segment, even times over [0, duration], ends too


@dataclass(frozen=True)
class FirstHit:
    pass


@dataclass(frozen=True)
class NthHit:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("NthHit needs n >= 1")


@dataclass(frozen=True)
class RandomHit:
    seed: int = 0


SwitchPolicy = Union[FirstHit, NthHit, RandomHit]


@dataclass
class Segment:
    """Flow `mode` carries x0 to x1 over duration > 0. arc, integrated from
    x0, spans the crossing search's window, which can pass duration, or a
    parked run's last duration; it is read only on [0, duration]."""

    mode: int
    t0: float          # absolute start time
    duration: float
    x0: np.ndarray
    x1: np.ndarray
    arc: FlowArc = field(repr=False, compare=False)

    @cached_property
    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(taus, states) at _SEGMENT_SAMPLES times, computed once."""
        taus = np.linspace(0.0, self.duration, _SEGMENT_SAMPLES)
        return taus, self.arc.sample(taus)


@dataclass
class SwitchEvent:
    time: float        # absolute time of the switch
    point: np.ndarray
    mode_before: int
    mode_after: int
    crossing_index: int
    margin: float


@dataclass
class Trajectory:
    """A mode-tagged switching trajectory: its segments, and the switch
    that ends each but a run's cut or parked last one. The mode increments
    cyclically at each switch, whose point lies on the watched boundary to
    level tolerance. Segments share endpoint arrays bit-for-bit.
    """

    levels: np.ndarray
    segments: list[Segment]
    switches: list[SwitchEvent]

    @property
    def final_state(self) -> np.ndarray:
        return self.segments[-1].x1

    @property
    def final_time(self) -> float:
        seg = self.segments[-1]
        return seg.t0 + seg.duration


def _watched_events(system: RelaySystem, levels: np.ndarray, x: np.ndarray,
                    mode: int, need: int) -> tuple[list[CrossingEvent], FlowArc]:
    """Crossings of the watched boundary, growing the window up to the cap."""
    flow = system.flows[mode]
    watch = (mode + 1) % system.p
    region = system.chain_region(watch, levels)
    for factor in _WINDOW_GROWTH:
        window = factor * flow.horizon
        arc = integrate(flow, window, x)
        evs = find_crossings(flow, region, None, x, window, arc=arc)
        if len(evs) >= need:
            return evs, arc
    raise NoCrossingWithinHorizon(
        f"boundary {watch} not crossed {need} time(s) within "
        f"{_WINDOW_GROWTH[-1]} horizons of flow {mode}")


def _pick(policy: SwitchPolicy, events: list[CrossingEvent], need: int,
          switch_count: int) -> int:
    """The switching crossing's index: the need-th, or RandomHit's draw."""
    if isinstance(policy, RandomHit):
        rng = seeded_rng(policy.seed, "switch", str(switch_count))
        return int(rng.integers(0, len(events)))
    return need - 1


def simulate(system: RelaySystem, x0, k0: int = 0, levels=None,
             policy: SwitchPolicy = FirstHit(), *,
             max_switches: int | None = None,
             t_max: float | None = None) -> Trajectory:
    """Run the switching dynamics from (x0, mode k0) until a stop criterion.

    At least one of max_switches (>= 1) / t_max (finite, > 0) must bound
    the run.
    """
    if max_switches is None and t_max is None:
        raise ValueError("need max_switches or t_max as a stop criterion")
    if max_switches is not None and max_switches < 1:
        raise ValueError(f"max_switches={max_switches} must be at least 1")
    if t_max is not None and not 0.0 < t_max < np.inf:
        raise ValueError(f"t_max={t_max} must be finite and positive")
    lv = system.levels(levels)
    if not 0 <= k0 < system.p:
        raise ValueError(f"mode k0={k0} outside 0..{system.p - 1}")
    x = np.asarray(x0, float)
    mode = k0
    t_abs = 0.0
    segments: list[Segment] = []
    switches: list[SwitchEvent] = []

    need = policy.n if isinstance(policy, NthHit) else 1
    # t_abs < t_max holds inside the loop: a run that reaches t_max ends
    while max_switches is None or len(switches) < max_switches:
        try:
            events, arc = _watched_events(system, lv, x, mode, need)
        except NoCrossingWithinHorizon:
            if t_max is None:
                raise
            # park the trajectory at the time cap instead of failing
            flow = system.flows[mode]
            dur = min(t_max - t_abs, _WINDOW_GROWTH[-1] * flow.horizon)
            arc = integrate(flow, dur, x)
            segments.append(Segment(mode, t_abs, dur, x, arc.end, arc))
            break
        idx = _pick(policy, events, need, len(switches))
        ev = events[idx]
        if t_max is not None and t_abs + ev.t > t_max:
            dur = t_max - t_abs
            segments.append(Segment(mode, t_abs, dur, x, arc(dur), arc))
            break
        segments.append(Segment(mode, t_abs, ev.t, x, ev.point, arc))
        switches.append(SwitchEvent(t_abs + ev.t, ev.point, mode,
                                    (mode + 1) % system.p, idx, ev.margin))
        x = ev.point
        mode = (mode + 1) % system.p
        t_abs += ev.t
        if t_max is not None and t_abs >= t_max:
            break

    return Trajectory(lv, segments, switches)


# ---------------------------------------------------------------------------
# Reachability clouds
# ---------------------------------------------------------------------------

@dataclass
class PointCloud:
    """Sampled trajectory points and the switches before each."""

    points: np.ndarray                  # (N, n)
    depths: np.ndarray                  # switches completed before each point

    def __len__(self) -> int:
        return len(self.points)


def _arc_sample_times(arc: FlowArc, delta_s: float,
                      extra: list[float]) -> np.ndarray:
    """Arc-length paced parameters plus mandatory event times, sorted."""
    value = arc.flow.field._kernels["value"].floats
    ts = [0.0]
    t = 0.0
    while t < arc.duration:
        speed = math.sqrt(sum(v * v for v in arc._read(value, t)))
        dt = delta_s / max(speed, delta_s / arc.duration)
        t = min(t + dt, arc.duration)
        ts.append(t)
    ts.extend(e for e in extra if 0.0 <= e <= arc.duration)
    return np.unique(np.asarray(ts))


@dataclass
class _Branch:
    x: np.ndarray
    mode: int
    order: tuple[int, ...]     # (crossing indices along the ancestry), for pruning


def cloud_spacing(system: RelaySystem) -> float:
    """Arc-length spacing of reach-cloud samples: 1/512 of the box diagonal."""
    return system.diameter / 512.0


def accessible_set(system: RelaySystem, x0, k0: int = 0, levels=None,
                   depth: int = 0, breadth: int = 64) -> PointCloud:
    """Branching reach cloud: all policy choices up to `depth` switches.

    Breadth is capped per switching level with deterministic pruning (the
    branches with lexicographically lowest crossing indices survive). The
    points with depths >= m estimate the omega-limit set past the first m
    switches, from outside: the sampler under-approximates the set of all
    trajectories, so treat them as a witness, not a certificate. Raises
    ValueError when k0 lies outside 0..p-1, depth < 0 or breadth < 1.
    """
    if not 0 <= k0 < system.p:
        raise ValueError(f"mode k0={k0} outside 0..{system.p - 1}")
    if depth < 0:
        raise ValueError(f"depth={depth} must be at least 0")
    if breadth < 1:
        raise ValueError(f"breadth={breadth} must be at least 1")
    lv = system.levels(levels)
    delta_s = cloud_spacing(system)
    pts: list[np.ndarray] = []
    depths: list[int] = []
    level_branches = [_Branch(np.asarray(x0, float), k0, ())]

    for level in range(depth + 1):
        level_branches.sort(key=lambda b: b.order)
        level_branches = level_branches[:breadth]
        next_branches: list[_Branch] = []
        for br in level_branches:
            flow = system.flows[br.mode]
            watch = (br.mode + 1) % system.p
            try:
                evs, arc = _watched_events(system, lv, br.x, br.mode, 1)
            except NoCrossingWithinHorizon:
                # stuck branch: keep one horizon of its arc, spawn nothing
                evs, arc = [], integrate(flow, flow.horizon, br.x)
            ts = _arc_sample_times(arc, delta_s, [e.t for e in evs])
            pts.extend(arc.sample(ts))
            depths.extend([level] * len(ts))
            if level < depth:
                next_branches.extend(_Branch(e.point, watch, br.order + (ci,))
                                     for ci, e in enumerate(evs))
        level_branches = next_branches

    return PointCloud(np.array(pts), np.asarray(depths, dtype=int))


_STRICT_TOL = 1e-9      # interior excess the strict-mode check forgives


def strict_mode_check(system: RelaySystem,
                      traj: Trajectory) -> tuple[bool, float]:
    """Post-hoc check of the stricter trajectory notion: while in mode k the
    state never enters the interior of the watched region.

    Read at each segment's samples, the states the CSV export writes.
    Returns (holds, worst interior excess or 0). Reported only; no simulation
    path filters on it (first-hit runs satisfy it by construction, later-hit
    policies generally do not).
    """
    worst = 0.0
    for seg in traj.segments:
        region = system.chain_region((seg.mode + 1) % system.p, traj.levels)
        vals = region.f.evaluate(seg.samples[1]) - region.level
        worst = max(worst, float(vals.max()))
    return worst <= _STRICT_TOL, worst


# cells are this much wider than delta, so that rounding in a cell index can
# never put two points at most delta apart two cells apart
_CELL_WIDEN = 1.0 + 1e-6


def _pairs_within(points: np.ndarray, delta: float) -> np.ndarray:
    """The index pairs of points at most delta apart, each once: squared
    distance, summed over coordinates in order, at most delta*delta.

    The points are hashed to a grid of cells of side delta, and only points
    in the same or neighbouring cells are compared. Returns a (2, k) array.
    """
    n, dim = points.shape
    cells = np.floor((points - points.min(axis=0))
                     / (delta * _CELL_WIDEN)).astype(np.int64)
    # one int64 key per cell; each axis' occupied indices are renumbered
    # from 1 with gaps capped at 2, so neighbours stay neighbours and the key
    # stays small however fine the grid
    key = np.zeros(n, np.int64)
    offsets = [0]   # key steps to the 3^dim cells around one, in key order
    for col in cells.T:
        u, inv = np.unique(col, return_inverse=True)
        col = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(u), 2))))
        radix = int(col[-1]) + 2
        key = key * radix + col[inv]
        offsets = [off * radix + o for off in offsets for o in (-1, 0, 1)]
    order = np.argsort(key, kind="stable")
    skey = key[order]

    firsts, seconds = [], []

    def partners(lo: np.ndarray, hi: np.ndarray) -> None:
        """Pair the point at each sorted position s with those at sorted
        positions lo[s]..hi[s]-1."""
        counts = hi - lo
        starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        firsts.append(np.repeat(order, counts))
        seconds.append(order[starts + np.arange(counts.sum())])

    # the same cell, then each neighbouring cell with a larger key
    partners(np.arange(1, n + 1), np.searchsorted(skey, skey, "right"))
    for off in offsets[len(offsets) // 2 + 1:]:
        target = skey + off
        partners(np.searchsorted(skey, target, "left"),
                 np.searchsorted(skey, target, "right"))
    pairs = np.array([np.concatenate(firsts), np.concatenate(seconds)])
    diff = points[pairs[0]] - points[pairs[1]]
    d2 = diff[:, 0] ** 2
    for k in range(1, dim):
        d2 += diff[:, k] ** 2
    return pairs[:, d2 <= delta * delta]


def check_connected(cloud: PointCloud, delta: float) -> tuple[bool, int]:
    """Is the cloud one component when points within delta are joined?

    Distance alone joins points, consecutive samples of one arc too.
    Raises ValueError on an empty cloud or a delta that is not positive.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("empty cloud")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in _pairs_within(np.asarray(cloud.points, float), delta).T.tolist():
        union(a, b)
    roots = {find(i) for i in range(n)}
    return len(roots) == 1, len(roots)
