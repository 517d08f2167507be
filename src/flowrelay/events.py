"""Boundary-crossing location, crossing trees, and parity checks.

Crossings of g(t) = f(F^t(x)) - level are found on the dense interpolant of
one adaptive integration (event location as in Shampine & Thompson, "Event
location for ordinary differential equations", 2000): every accepted step is
cut into ns and 2*ns equal pieces, both scans read g and its time derivative
from one sampling pass at 2*ns (the ns grid is every other point of it), sign
changes are bracketed and the confirming scan's brackets are polished over
floats by safeguarded Newton steps on (g, ġ) (_polish), and near-tangent
structure (grazing extrema, root pairs closer than the separation floor)
aborts with DegenerateCrossing so callers can perturb the level offsets.

FlowArc reads the dense rows (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.6); this module only evaluates f on what it returns. A sampling
pass is FlowArc._grid: the states at the step fractions j/ns as one product
of a cached table of DOP853's Horner weights with the rows, and the indices
of the ns/2 scan among them. g and ġ come from one kernel of the level
function (expr's kernel contract): f and L_V f = sum_j df/dx_j * V_j along
the arc's field, negated on a backward arc, so ġ is the rate in elapsed
time either way. The scan calls it over the states' columns (expr._columns),
FlowArc._read over floats for the polish, start check and margins; a turn
of g is polished on (ġ, g̈), the kernel's "rate" body, compiled at the first
turn polished. FlowArc._point keeps the step it read last, so a polish
reads its step's row once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Flow, FlowArc, integrate
from . import expr as ex
from .errors import DegenerateCrossing, StartOnBoundary
from .geometry import Region, RelaySystem, sample_boundary
from ._util import seeded_rng

__all__ = [
    "DEFAULT_EVENTS",
    "CrossingEvent",
    "TreeNode",
    "CrossingTree",
    "find_crossings",
    "forward_tree",
    "backward_tree",
    "forward_leaf_parity",
    "backward_leaf_parity",
    "degree_check",
    "DegreeCheckResult",
]


@dataclass(frozen=True)
class _EventSettings:
    """The fixed crossing tolerances; DEFAULT_EVENTS is the one record read."""
    tol_level: float = 1e-10   # |f - level| at a reported crossing point
    eps_tan: float = 1e-8      # transversality floor on |d/dt f(F^t x)|
    t_sep_rel: float = 1e-7    # root pairs closer than this * window are tangencies
    ns: int = 8                # interpolant subsamples per accepted step
    ns_max: int = 64           # doubling cap for the confirmation rescan
    graze_tol: float = 1e-9    # |g| at a refined extremum that counts as a graze
    graze_band: float = 1e-2   # fraction of the g-range scanned for grazing extrema


DEFAULT_EVENTS = _EventSettings()


@dataclass
class CrossingEvent:
    """A transversal boundary crossing along one flow arc."""

    t: float
    point: np.ndarray
    direction: int    # sign of d/dt [f(F^t(x))] at the crossing
    margin: float     # |d/dt [f(F^t(x))]|, the transversality margin


def _polish(read: Callable[[float], tuple[float, float]], a, b, xtol: float,
            rtol: float) -> float:
    """A root of h in the bracket [a, b], read(t) = (h(t), h'(t)), by Newton
    steps from the end with the smaller |h|, safeguarded as rtsafe is (Press
    et al., Numerical Recipes, 3rd ed., sec. 9.4): the kept bracket is
    bisected when a step would leave it or would not halve the step before
    the last. Ends once a step is below (xtol + rtol*|t|)/2; raises
    DegenerateCrossing when the ends read one sign or 100 steps do not
    converge."""
    a, b = float(a), float(b)
    ha, da = read(a)
    hb, db = read(b)
    if ha == 0.0:
        return a
    if hb == 0.0:
        return b
    if (ha < 0.0) == (hb < 0.0):
        raise DegenerateCrossing("root polish: h has one sign at both ends")
    lo, hi = (a, b) if ha < 0.0 else (b, a)   # h(lo) < 0 < h(hi)
    t, h, d = (a, ha, da) if abs(ha) < abs(hb) else (b, hb, db)
    old = step = abs(b - a)
    for _ in range(100):
        # bisect when the Newton point t - h/d is outside [lo, hi] or slow
        if (((t - hi) * d - h) * ((t - lo) * d - h) > 0.0
                or abs(2.0 * h) > abs(old * d)):
            old, step = step, (hi - lo) / 2
            t = lo + step
        else:
            old, step = step, h / d
            t -= step
        if abs(step) < (xtol + rtol * abs(t)) / 2:
            return t
        h, d = read(t)
        if h == 0.0:   # also where d = 0, which no Newton step can take
            return t
        if h < 0.0:
            lo = t
        else:
            hi = t
    raise DegenerateCrossing(f"root polish did not converge in 100 steps, at t={t}")


def _samples(arc: FlowArc, f: ex.Expression, level: float, ns: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ts, g, gdot, half): one sampling pass (FlowArc._grid), every step
    cut into ns pieces, g and its time derivative there, and the indices of
    the ns/2 scan among them."""
    ts, pts, half = arc._grid(ns)
    g, gdot = ex._columns(f._kernels[arc.flow.field, arc.backward], pts.T)
    return ts, g - level, gdot, half


def _scan_brackets(ts: np.ndarray, g: np.ndarray, gdot: np.ndarray,
                   read: Callable[[float], tuple[float, float]],
                   rate: Callable[[float], tuple[float, float]]
                   ) -> list[tuple[float, float]]:
    """Sorted brackets of the roots of g on the span of the samples (ts, g,
    gdot), including pairs split at near-zero extrema, which are polished on
    rate(t) = (ġ, g̈) and valued on read(t) = (g, ġ); raises on grazes."""
    # signs are compared, never products, which underflow for tiny values; a
    # zero sample is left to the level-tolerance precondition / root polish.
    # Flips are rare, so the masks only find candidates and the few found
    # are tested one by one.
    sig = np.sign(g)
    flips = sig[:-1] != sig[1:]
    brackets = [(ts[i], ts[i + 1]) for i in np.flatnonzero(flips).tolist()
                if sig[i] != 0.0 and sig[i + 1] != 0.0]

    # grazing detection: extrema of g near zero that the sign scan cannot
    # see, where the sign of gdot flips and that of g does not
    dsig = np.sign(gdot)
    turns = np.flatnonzero((dsig[:-1] != dsig[1:]) & ~flips).tolist()
    if turns:
        band = max(DEFAULT_EVENTS.graze_band * float(g.max() - g.min()),
                   10.0 * DEFAULT_EVENTS.tol_level)
    for i in turns:
        if (dsig[i] == 0.0 or dsig[i + 1] == 0.0 or sig[i] == 0.0
                or min(abs(g[i]), abs(g[i + 1])) > band):
            continue
        t_ext = _polish(rate, ts[i], ts[i + 1], xtol=1e-13, rtol=1e-14)
        g_ext = read(t_ext)[0]
        if abs(g_ext) <= DEFAULT_EVENTS.graze_tol:
            raise DegenerateCrossing(
                f"grazing contact with the boundary (|g|={abs(g_ext):.2e})",
                time=float(t_ext))
        if np.sign(g_ext) != sig[i]:
            # the extremum pokes through: two roots hidden in one step
            brackets.append((ts[i], t_ext))
            brackets.append((t_ext, ts[i + 1]))

    return sorted(brackets)


def _scan_roots(ts: np.ndarray, g: np.ndarray, gdot: np.ndarray,
                read: Callable[[float], tuple[float, float]],
                rate: Callable[[float], tuple[float, float]]) -> list[float]:
    """Root times of g in the brackets of _scan_brackets, polished on read."""
    return sorted(_polish(read, a, b, xtol=1e-14, rtol=1e-15)
                  for a, b in _scan_brackets(ts, g, gdot, read, rate))


def find_crossings(flow: Flow, region: Region, level: float | None, x,
                   t_end: float, *, backward: bool = False,
                   arc: FlowArc | None = None) -> list[CrossingEvent]:
    """All transversal crossings of {f = level} along the arc, ordered by time.

    The scan is confirmed by doubling the oversampling density until two
    consecutive densities agree on the root set (up to the separation
    floor); disagreement at the densest scan is treated as unresolved
    tangency. The arc is sampled once per confirming density, by one
    weight-table product over its dense rows (FlowArc._grid): the first
    pass, at 2*ns, also serves the ns scan, whose grid is every other point
    of it (the indices FlowArc._grid returns with the cut). The ns scan
    keeps its brackets unpolished: the 2*ns roots agree with it when each
    lies in its bracket. level=None reads region.level.
    """
    lv = region.level if level is None else float(level)
    f = region.f
    if arc is None:
        arc = integrate(flow, t_end, np.asarray(x, float), backward=backward)
    key = (arc.flow.field, arc.backward)
    lie = f._kernels[key].floats
    if abs(arc._read(lie, 0.0)[0] - lv) <= DEFAULT_EVENTS.tol_level:
        raise StartOnBoundary("start point lies on the watched boundary")

    t_sep = DEFAULT_EVENTS.t_sep_rel * t_end

    def read(tau: float) -> tuple[float, float]:
        g, gdot = arc._read(lie, tau)
        return g - lv, gdot

    def rate(tau: float) -> tuple[float, float]:   # compiled at the first turn
        return arc._read(f._kernels[(*key, "rate")].floats, tau)

    ns = DEFAULT_EVENTS.ns
    ts, g, gdot, coarse = _samples(arc, f, lv, 2 * ns)
    brackets = _scan_brackets(ts[coarse], g[coarse], gdot[coarse], read, rate)
    tol = max(t_sep, 1e-9)
    roots = _scan_roots(ts, g, gdot, read, rate)
    # the ns scan is not polished: it agrees when each root of the 2*ns
    # scan lies in its bracket, widened by the separation floor
    agreed = len(roots) == len(brackets) and all(
        a - tol <= r <= b + tol for (a, b), r in zip(brackets, roots))
    ns *= 2
    while not agreed and ns < DEFAULT_EVENTS.ns_max:
        ns *= 2
        ts, g, gdot, _ = _samples(arc, f, lv, ns)
        confirm = _scan_roots(ts, g, gdot, read, rate)
        agreed = len(confirm) == len(roots) and all(
            abs(a - b) <= tol for a, b in zip(roots, confirm))
        roots = confirm
    if not agreed:
        raise DegenerateCrossing(
            f"crossing structure unresolved at {DEFAULT_EVENTS.ns_max} "
            "subsamples per step")

    # boundary-of-window and separation policy
    roots = [r for r in roots if t_sep < r < t_end - t_sep]
    for a, b in zip(roots, roots[1:]):
        if b - a <= t_sep:
            raise DegenerateCrossing(
                f"root pair separated by {b - a:.2e} <= t_sep", time=float(a))

    events = []
    for r in roots:
        g_r, slope = arc._read(lie, r)
        resid = abs(g_r - lv)
        if resid > DEFAULT_EVENTS.tol_level:
            raise DegenerateCrossing(
                f"root polish stalled at |g|={resid:.2e}", time=float(r))
        if abs(slope) <= DEFAULT_EVENTS.eps_tan:
            raise DegenerateCrossing(
                f"tangential crossing, margin {abs(slope):.2e}", time=float(r))
        events.append(CrossingEvent(float(r), arc(r), int(np.sign(slope)), abs(slope)))
    return events


# ---------------------------------------------------------------------------
# Crossing trees (stagewise recursion of crossing sets) and parities
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    point: np.ndarray
    times: tuple[float, ...]   # durations accumulated along the branch


@dataclass
class CrossingTree:
    """Stagewise expansion of boundary crossings from one root point.

    Forward trees expand stages 1..p with the forward flows; backward trees
    expand stages p-1..0 with the reversed flows. Leaves of a complete
    forward tree are exactly the switching vectors whose chain starts at the
    root; `consistent` is False when some branch died before the final stage
    (possible only when the entry hypothesis fails).
    """

    stages: list[list[TreeNode]]
    consistent: bool

    @property
    def leaves(self) -> list[TreeNode]:
        return self.stages[-1]

    @property
    def leaf_count(self) -> int:
        return len(self.stages[-1])


def _expand_tree(system: RelaySystem, levels: np.ndarray, x: np.ndarray,
                 forward: bool, window_factor: float = 1.0) -> CrossingTree:
    p = system.p
    x = np.asarray(x, float)
    start_stage = 0 if forward else p
    region0 = system.chain_region(start_stage, levels)
    g0 = float(region0.f.evaluate(x)) - region0.level
    if abs(g0) > DEFAULT_EVENTS.tol_level:
        raise ValueError(f"root point is not on boundary {start_stage}")

    stages = [[TreeNode(x, ())]]
    consistent = True
    order = range(1, p + 1) if forward else range(p - 1, -1, -1)
    for target in order:
        flow_idx = (target - 1) if forward else target
        flow = system.flows[flow_idx]
        region_t = system.chain_region(target, levels)
        next_nodes: list[TreeNode] = []
        for node in stages[-1]:
            try:
                evs = find_crossings(flow, region_t, None, node.point,
                                     window_factor * flow.horizon,
                                     backward=not forward)
            except DegenerateCrossing as exc:
                raise DegenerateCrossing(str(exc), stage=target) from exc
            if not evs:
                consistent = False
            for ev in evs:
                next_nodes.append(TreeNode(ev.point, node.times + (ev.t,)))
        stages.append(next_nodes)
    return CrossingTree(stages, consistent)


def forward_tree(system: RelaySystem, levels, x) -> CrossingTree:
    """Expand crossings stage by stage from a point on boundary 0."""
    return _expand_tree(system, system.levels(levels), x, True)


def backward_tree(system: RelaySystem, levels, x) -> CrossingTree:
    """Expand reversed-flow crossings from a point on the closing boundary p."""
    return _expand_tree(system, system.levels(levels), x, False)


def forward_leaf_parity(system: RelaySystem, levels, x) -> int:
    """Leaf count of the forward tree mod 2 (the chain-start preimage parity)."""
    return forward_tree(system, levels, x).leaf_count % 2


def backward_leaf_parity(system: RelaySystem, levels, x) -> int:
    """Leaf count of the backward tree mod 2 (the chain-end preimage parity)."""
    return backward_tree(system, levels, x).leaf_count % 2


@dataclass
class DegreeCheckResult:
    """Per-sample parities of the chain-start and chain-end maps."""

    start_parities: list[int | None]   # None marks a degenerate sample
    end_parities: list[int | None]

    @property
    def degenerate_rate(self) -> float:
        bad = sum(v is None for v in self.start_parities)
        bad += sum(v is None for v in self.end_parities)
        total = len(self.start_parities) + len(self.end_parities)
        return bad / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "start_parities": self.start_parities,
            "end_parities": self.end_parities,
            "degenerate_rate": self.degenerate_rate,
            "samples": len(self.start_parities),
        }


def degree_check(system: RelaySystem, levels=None, samples: int = 20,
                 seed: int = 0) -> DegreeCheckResult:
    """Sample both chain boundaries and tabulate leaf parities.

    Degenerate samples (tangential crossings somewhere in their tree) are
    recorded as None rather than retried; their rate is part of the result.
    """
    lv = system.levels(levels)
    parities = []
    for k, stream, parity in ((0, "start", forward_leaf_parity),
                              (system.p, "end", backward_leaf_parity)):
        bs = sample_boundary(system.chain_region(k, lv), system.box, samples,
                             seeded_rng(seed, "degree", stream))
        found: list[int | None] = []
        for pt in bs.points:
            try:
                found.append(parity(system, lv, pt))
            except DegenerateCrossing:
                found.append(None)
        parities.append(found)
    return DegreeCheckResult(*parities)
