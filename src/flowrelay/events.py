"""Boundary-crossing location, crossing trees, and parity/winding checks.

Crossings of g(t) = f(F^t(x)) - level are found on the dense interpolant of
one adaptive integration (event location as in Shampine & Thompson, "Event
location for ordinary differential equations", 2000): every accepted step is
cut into ns and 2*ns equal pieces, both scans read g and its time derivative
from one sampling pass at 2*ns (the ns grid is every other point of it), sign
changes are bracketed and polished over floats by Brent's method (_brentq, a
port of scipy's brentq), and near-tangent structure (grazing extrema, root
pairs closer than the separation floor) aborts with DegenerateCrossing so
callers can perturb the level offsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Flow, FlowArc, integrate
from .errors import DegenerateCrossing, StartOnBoundary, VanishingImage
from .expr import Expression
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
    "winding_degree",
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


def _g_scalar(arc: FlowArc, f: Expression, level: float) -> Callable[[float], float]:
    def g(tau: float) -> float:
        return f._value_at(arc._point(tau)) - level
    return g


def _gdot_at(arc: FlowArc, f: Expression, x: np.ndarray) -> float:
    """d/dtau f along the arc at its state x: grad f(x) . V(x), negated on a
    backward arc."""
    sign = -1.0 if arc.backward else 1.0
    return sign * float(f.gradient(x) @ arc.flow.field(x))


def _gdot_scalar(arc: FlowArc, f: Expression) -> Callable[[float], float]:
    def gdot(tau: float) -> float:
        return _gdot_at(arc, f, arc(tau))
    return gdot


def _fine_grid(arc: FlowArc, ns: int) -> np.ndarray:
    """Each accepted step cut into ns equal pieces, plus the final time;
    the same floats as np.linspace(ts[i], ts[i + 1], ns + 1)[:-1] per step."""
    ts = arc.ts
    step = (ts[1:] - ts[:-1]) / ns
    grid = np.arange(ns) * step[:, None] + ts[:-1, None]
    return np.unique(np.concatenate([grid.ravel(), ts[-1:]]))


_BRENT_ITER = 100


def _brentq(f: Callable[[float], float], xa, xb, xtol: float,
            rtol: float) -> float:
    """A root of f in the bracket [xa, xb] by Brent's method (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).

    A line for line port of scipy's brentq.c, so on the same f and bracket
    it returns scipy.optimize.brentq's root bit for bit: it stops once half
    the bracket is below delta = (xtol + rtol*|x|)/2. Raises ValueError when
    f has one sign at both ends or returns nan, RuntimeError when 100
    iterations do not converge.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_ITER} iterations, "
                       f"value is {xcur}")


def _samples(arc: FlowArc, f: Expression, level: float,
             ns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, g, gdot): the grid _fine_grid(arc, ns), and g and its time
    derivative there, from one sampling pass."""
    ts = _fine_grid(arc, ns)
    pts = arc.sample(ts)
    g = f.evaluate(pts) - level
    sign = -1.0 if arc.backward else 1.0
    gdot = sign * np.einsum("ij,ij->i", f.gradient(pts),
                            arc.flow.field.value_batch(pts))
    return ts, g, gdot


def _scan_roots(ts: np.ndarray, g: np.ndarray, gdot: np.ndarray,
                gfun: Callable[[float], float],
                gdfun: Callable[[float], float]) -> list[float]:
    """Root times of g on the span of the samples (ts, g, gdot), including
    pairs recovered from near-zero extrema, polished on gfun (g) and gdfun
    (its derivative); raises on grazes."""
    # signs are compared, never products, which underflow for tiny values; a
    # zero sample is left to the level-tolerance precondition / root polish
    sig = np.sign(g)
    s0, s1 = sig[:-1], sig[1:]
    crossed = np.flatnonzero((s0 != 0.0) & (s1 != 0.0) & (s0 != s1))
    brackets = [(ts[i], ts[i + 1]) for i in crossed]

    # grazing detection: extrema of g near zero that the sign scan cannot see
    g_range = float(g.max() - g.min()) if len(g) else 0.0
    band = max(DEFAULT_EVENTS.graze_band * g_range, 10.0 * DEFAULT_EVENTS.tol_level)
    d0, d1 = np.sign(gdot[:-1]), np.sign(gdot[1:])
    turns = np.flatnonzero((d0 != 0.0) & (d1 != 0.0) & (d0 != d1)
                           & (s0 != 0.0) & (s0 == s1)
                           & (np.minimum(abs(g[:-1]), abs(g[1:])) <= band))
    for i in turns:
        t_ext = _brentq(gdfun, ts[i], ts[i + 1], xtol=1e-13, rtol=1e-14)
        g_ext = gfun(t_ext)
        if abs(g_ext) <= DEFAULT_EVENTS.graze_tol:
            raise DegenerateCrossing(
                f"grazing contact with the boundary (|g|={abs(g_ext):.2e})",
                time=float(t_ext))
        if np.sign(g_ext) != sig[i]:
            # the extremum pokes through: two roots hidden in one step
            brackets.append((ts[i], t_ext))
            brackets.append((t_ext, ts[i + 1]))

    return sorted(_brentq(gfun, a, b, xtol=1e-14, rtol=1e-15)
                  for a, b in sorted(brackets))


def find_crossings(flow: Flow, region: Region, level: float | None, x,
                   t_end: float, *, backward: bool = False,
                   arc: FlowArc | None = None) -> list[CrossingEvent]:
    """All transversal crossings of {f = level} along the arc, ordered by time.

    The scan is confirmed by doubling the oversampling density until two
    consecutive densities agree on the root set (up to the separation
    floor); disagreement at the densest scan is treated as unresolved
    tangency. The arc is sampled once per confirming density: the first
    pass, at 2*ns, also serves the ns scan, whose grid is every other point
    of it.
    """
    lv = region.level if level is None else float(level)
    f = region.f
    if arc is None:
        arc = integrate(flow, t_end, np.asarray(x, float), backward=backward)
    g0 = float(f.evaluate(arc.x0)) - lv
    if abs(g0) <= DEFAULT_EVENTS.tol_level:
        raise StartOnBoundary("start point lies on the watched boundary")

    t_sep = DEFAULT_EVENTS.t_sep_rel * t_end
    gfun, gdfun = _g_scalar(arc, f, lv), _gdot_scalar(arc, f)
    ns = DEFAULT_EVENTS.ns
    ts, g, gdot = _samples(arc, f, lv, 2 * ns)
    # a step cut in ns or 2*ns pieces gives k*(h/ns) == 2k*(h/(2*ns))
    # exactly, so the ns grid is every other point of the 2*ns grid; it is
    # looked up by value, which holds also where rounding merged two points
    coarse = np.searchsorted(ts, _fine_grid(arc, ns))
    roots = _scan_roots(ts[coarse], g[coarse], gdot[coarse], gfun, gdfun)
    while True:
        ns *= 2
        confirm = _scan_roots(ts, g, gdot, gfun, gdfun)
        agreed = len(confirm) == len(roots) and all(
            abs(a - b) <= max(t_sep, 1e-9) for a, b in zip(roots, confirm))
        roots = confirm
        if agreed or ns >= DEFAULT_EVENTS.ns_max:
            break
        ts, g, gdot = _samples(arc, f, lv, 2 * ns)
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
        y = arc(r)
        resid = abs(float(f.evaluate(y)) - lv)
        if resid > DEFAULT_EVENTS.tol_level:
            raise DegenerateCrossing(
                f"root polish stalled at |g|={resid:.2e}", time=float(r))
        slope = _gdot_at(arc, f, y)
        if abs(slope) <= DEFAULT_EVENTS.eps_tan:
            raise DegenerateCrossing(
                f"tangential crossing, margin {abs(slope):.2e}", time=float(r))
        events.append(CrossingEvent(float(r), y, int(np.sign(slope)), abs(slope)))
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
                evs = find_crossings(flow, region_t, float(levels[target]),
                                     node.point, window_factor * flow.horizon,
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
    bs0 = sample_boundary(system.chain_region(0, lv), system.box, samples,
                          seeded_rng(seed, "degree", "start"))
    bsp = sample_boundary(system.chain_region(system.p, lv), system.box, samples,
                          seeded_rng(seed, "degree", "end"))
    start: list[int | None] = []
    end: list[int | None] = []
    for pt in bs0.points:
        try:
            start.append(forward_leaf_parity(system, lv, pt))
        except DegenerateCrossing:
            start.append(None)
    for pt in bsp.points:
        try:
            end.append(backward_leaf_parity(system, lv, pt))
        except DegenerateCrossing:
            end.append(None)
    return DegreeCheckResult(start, end)


# ---------------------------------------------------------------------------
# Winding number of a planar map restricted to the unit circle
# ---------------------------------------------------------------------------

def winding_degree(fx: Expression, fy: Expression, samples: int = 256,
                   tol: float = 1e-12) -> int:
    """Total winding number of t -> (fx, fy)(cos t, sin t) around the origin.

    The image is radially normalized; accumulated angle increments must each
    stay below pi, which m >= 64 guarantees for the maps this backs.
    """
    if samples < 64:
        raise ValueError("need at least 64 samples")
    if fx.n != 2 or fy.n != 2:
        raise ValueError("winding maps must be planar (n = 2)")
    theta = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u = fx.evaluate(pts)
    v = fy.evaluate(pts)
    r = np.hypot(u, v)
    if r.min() <= tol:
        raise VanishingImage(f"image radius fell to {r.min():.2e}")
    ang = np.arctan2(v, u)
    dang = np.diff(ang)
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    if np.any(np.abs(dang) >= np.pi * (1.0 - 1e-9)):
        raise VanishingImage("angle increment reached pi; sample the map more densely")
    total = dang.sum() / (2.0 * np.pi)
    deg = int(np.rint(total))
    if abs(total - deg) > 1e-6:
        raise VanishingImage(f"winding sum {total} is not close to an integer")
    return deg
