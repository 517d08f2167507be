"""Level-set regions and relay-system hypothesis validation.

A region is the superlevel set {x : f(x) >= level} of a smooth expression;
its switching boundary is the level set {f = level}. A relay system bundles
p flows with p regions (the chain closes on a copy of region 0 that may
carry its own level offset), a bounding box for all sampling, and an
optional distinguished flow index whose containment must persist for all
later times: validate reads that as containment at the flow's horizon
plus a field that points into the region all along its boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dynamics import Flow, flow_map_points
from .errors import BoundaryNotFound
from ._util import seeded_rng

__all__ = [
    "Region",
    "RelaySystem",
    "BoundarySamples",
    "ConditionResult",
    "ValidationReport",
    "sample_boundary",
    "validate_system",
]


_EPS_REG = 1e-6  # floor on |grad f| at regular boundary points


@dataclass
class Region:
    """Superlevel-set region {f >= level} with boundary {f = level};
    validate measures |grad f| on sampled boundary points against _EPS_REG."""

    f: ex.Expression
    level: float = 0.0
    index: int = 0


@dataclass
class BoundarySamples:
    """Boundary points with their gradient norms (regularity witnesses)."""

    points: np.ndarray      # (m, n)
    grad_norms: np.ndarray  # (m,)

    def __len__(self) -> int:
        return len(self.points)


_SAMPLE_TOL = 1e-10      # |f - level| at an accepted boundary sample
_SAMPLE_BATCHES = 20     # random batches drawn before BoundaryNotFound
_SAMPLE_NEWTON = 80      # Newton steps per batch
_INTERIOR_BATCHES = 200  # random batches drawn before an interior is given up


def _box_columns(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
                 count: int) -> list[np.ndarray]:
    """count uniform points of the box [lo, hi] as its n contiguous
    coordinate columns: column j is Generator.uniform(lo, hi, (count, n))[:, j]
    bit for bit, and rng is left where that call leaves it."""
    u = rng.random((count, len(lo)))
    return [a + (b - a) * u[:, j]
            for j, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))]


def sample_boundary(region: Region, box: np.ndarray, m: int,
                    rng: np.random.Generator) -> BoundarySamples:
    """Draw m >= 1 points on {f = region.level} inside the box from rng.

    Each batch draws max(4m, 32) random box points. They are projected onto
    the level set by up to 80 Newton steps along the gradient, in slices of
    m consecutive points in draw order, until m points are accepted; a
    slice ends once all its points converge. A slice is stepped as its n
    coordinate columns: each step reads f and its n partials in one call of
    one compiled kernel, and the squared gradient norm is summed in
    coordinate order. Every point that converges to within 1e-10 of the
    level inside the box is kept, whatever its gradient norm, which is
    returned for validate to measure. BoundaryNotFound after 20 batches
    without m points; ValueError when m < 1.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 boundary samples, got {m}")
    lv = region.level
    box = np.asarray(box, float)
    lo, hi = box[0], box[1]
    bounds = list(zip((lo - 1e-12).tolist(), (hi + 1e-12).tolist()))
    kernel = region.f._kernels["value and gradient"]
    points: list[np.ndarray] = []
    norms: list[np.ndarray] = []
    have = 0
    for _ in range(_SAMPLE_BATCHES):
        batch = _box_columns(rng, lo, hi, max(4 * m, 32))
        for start in range(0, len(batch[0]), m):
            xs = [c[start:start + m] for c in batch]
            # the residual checked for convergence is the next step's residual
            r, *g = ex._columns(kernel, xs)
            r -= lv
            for _ in range(_SAMPLE_NEWTON):
                gn2 = sum(v * v for v in g)   # >= 0, never NaN: g is finite
                gn2[gn2 == 0.0] = 1.0
                q = r / gn2
                for x, gj in zip(xs, g):
                    # each entry clipped to [-1, 1]: a guard against wild first steps
                    step = q * gj
                    x -= np.minimum(np.maximum(step, -1.0, out=step), 1.0, out=step)
                r, *g = ex._columns(kernel, xs)
                r -= lv
                if np.abs(r).max() <= _SAMPLE_TOL:   # r is never NaN
                    break
            gn = np.sqrt(sum(v * v for v in g))
            ok = np.abs(r) <= _SAMPLE_TOL
            for x, (a, b) in zip(xs, bounds):
                ok &= (x >= a) & (x <= b)
            take = np.flatnonzero(ok)[:m - have]
            points.append(np.stack([x[take] for x in xs], axis=1))
            norms.append(gn[take])
            have += len(take)
            if have == m:
                return BoundarySamples(np.concatenate(points), np.concatenate(norms))
    raise BoundaryNotFound(
        f"no boundary of region {region.index} at level {lv} found in the box "
        f"after {_SAMPLE_BATCHES} batches")


@dataclass
class RelaySystem:
    """A cyclic relay: p flows, p regions, a bounding box.

    Regions are indexed 0..p-1; index p denotes the closing copy of region 0
    at its own level offset level_p. Flow k (0-based) carries boundary k to
    boundary k+1.
    """

    n: int
    p: int
    flows: tuple[Flow, ...]
    regions: tuple[Region, ...]
    box: np.ndarray
    level_p: float | None = None
    beta: int | None = None  # 1-based flow index with persistent containment

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("the relay needs p > 1 modes")
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        self.flows = tuple(self.flows)
        self.regions = tuple(self.regions)
        if len(self.flows) != self.p or len(self.regions) != self.p:
            raise ValueError("flows and regions must both have length p")
        for k, fl in enumerate(self.flows):
            if fl.field.n != self.n:
                raise ValueError(f"flow {k} has dimension {fl.field.n}, expected {self.n}")
        for r in self.regions:
            if r.f.n != self.n:
                raise ValueError(f"region {r.index} has dimension {r.f.n}, expected {self.n}")
        self.box = np.asarray(self.box, float)
        if self.box.shape != (2, self.n):
            raise ValueError(f"bounding box must be 2x{self.n}")
        if not (np.isfinite(self.box).all() and np.all(self.box[0] < self.box[1])):
            raise ValueError("bounding box needs finite corners with the "
                             f"lower below the upper, got {self.box.tolist()}")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.diameter):
                raise ValueError("bounding box needs a finite width and "
                                 f"diameter, got {self.box.tolist()}")
        if self.level_p is None:
            self.level_p = self.regions[0].level
        stored = self.levels()
        if not np.isfinite(stored).all():
            raise ValueError(f"level offsets must be finite, got {stored.tolist()}")
        if self.beta is not None and not 1 <= self.beta <= self.p:
            raise ValueError("beta must lie in 1..p")

    def levels(self, levels=None) -> np.ndarray:
        """Level offsets (level_0, ..., level_p): the stored ones, or levels
        checked to be p+1 finite values (ValueError otherwise)."""
        if levels is None:
            return np.array([r.level for r in self.regions] + [self.level_p])
        lv = np.asarray(levels, float)
        if lv.shape != (self.p + 1,) or not np.isfinite(lv).all():
            raise ValueError(f"levels must have length p+1 = {self.p + 1} and "
                             f"be finite, got {lv.tolist()}")
        return lv

    def chain_region(self, j: int, levels=None) -> Region:
        """Region for chain index j in 0..p (j = p reuses f_0 at level_p)."""
        if not 0 <= j <= self.p:
            raise ValueError(f"chain index {j} outside 0..{self.p}")
        lv = self.levels(levels)
        base = self.regions[j] if j < self.p else self.regions[0]
        return Region(base.f, float(lv[j]), index=j)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.box[1] - self.box[0]))


@dataclass
class ConditionResult:
    """One validated hypothesis with its robustness margin (positive = pass)."""

    name: str          # "disjoint" | "entry" | "absorb" | "regular"
    index: int         # k for disjoint/entry (1..p), region index for regular
    passed: bool
    margin: float
    note: str = ""


@dataclass
class ValidationReport:
    conditions: list[ConditionResult]
    levels: np.ndarray
    samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> list[tuple[str, int]]:
        return [(c.name, c.index) for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "levels": [float(v) for v in self.levels],
            "samples": self.samples,
            "conditions": [
                {"name": c.name, "index": c.index, "passed": c.passed,
                 "margin": float(c.margin), "note": c.note}
                for c in self.conditions
            ],
        }


def _interior_samples(region: Region, box: np.ndarray, m: int,
                      rng: np.random.Generator) -> np.ndarray:
    """The first m points, in draw order, of batches of max(4m, 64) random
    box points (drawn and evaluated as coordinate columns) that lie in the
    region, as an (m, n) array. BoundaryNotFound after 200 batches without
    m points."""
    kernel = region.f._kernels["value"]
    keep: list[list[np.ndarray]] = []
    have = 0
    for _ in range(_INTERIOR_BATCHES):
        cols = _box_columns(rng, box[0], box[1], max(4 * m, 64))
        inside = ex._columns(kernel, cols)[0] - region.level >= 0.0
        keep.append([c[inside] for c in cols])
        have += len(keep[-1][0])
        if have >= m:
            return np.stack([np.concatenate(c)[:m] for c in zip(*keep)], axis=1)
    raise BoundaryNotFound(f"region {region.index} has no interior in the box")


def validate_system(system: RelaySystem, levels=None, m: int = 256,
                    seed: int = 0) -> ValidationReport:
    """Check the switching hypotheses by sampling, reporting worst margins.

    - disjoint (k=1..p): boundary k-1 stays strictly outside region k;
    - entry   (k=1..p): flow k carries boundary k-1 into the interior of
      region k at its horizon;
    - absorb (if beta set): flow beta keeps all of region beta-1 inside
      region beta for all times past its horizon. Its margin is the smaller
      of two parts: containment, the worst region-beta margin over region
      beta-1 at the horizon, and invariance, the least cosine between
      flow beta's field and grad f_beta over boundary beta's samples (0
      where either vanishes). A positive cosine everywhere on the boundary
      makes region beta forward-invariant (Nagumo 1942; Blanchini 1999),
      so the containment at the horizon persists. This is sufficient, not
      necessary: a relay whose field points out somewhere on boundary beta
      fails, even where region beta-1's image never reaches that part;
    - regular (j=0..p): the smallest gradient norm over boundary j's
      samples is at least the regularity floor.

    Each flow k is solved once, on boundary k-1's samples up to its
    horizon; for beta the interior samples of region beta-1 go in front,
    and entry[beta] reads the boundary rows. Both samplers work on the
    box's coordinate columns, the layout the stacked stepper steps, and the
    cosine is read over boundary beta's columns.

    Margins are oriented so that positive means the condition holds with
    room; these are open conditions, so sampling + margins is the check. A
    condition whose boundary or interior samples cannot be drawn fails with
    margin -inf and the sampler's message as its note.
    """
    lv = system.levels(levels)
    conditions: list[ConditionResult] = []

    boundary: dict[int, BoundarySamples] = {}
    for j in range(system.p + 1):
        region_j = system.chain_region(j, lv)
        try:
            bs = sample_boundary(region_j, system.box, m,
                                 seeded_rng(seed, "validate", str(j)))
            boundary[j] = bs
            conditions.append(ConditionResult(
                "regular", j, bool(bs.grad_norms.min() >= _EPS_REG),
                float(bs.grad_norms.min())))
        except BoundaryNotFound as exc:
            conditions.append(ConditionResult("regular", j, False,
                                              float("-inf"), note=str(exc)))

    b, absorb = system.beta, None
    for k in range(1, system.p + 1):
        region_k, flow_k = system.chain_region(k, lv), system.flows[k - 1]
        src = boundary.get(k - 1)
        batch = [] if src is None else [src.points]
        if k == b:
            try:
                batch.insert(0, _interior_samples(system.chain_region(k - 1, lv), system.box,
                                                  m, seeded_rng(seed, "validate-absorb")))
            except BoundaryNotFound as exc:
                absorb = ConditionResult("absorb", b, False, float("-inf"), note=str(exc))
        if batch:
            # the region-k margin of each batch row at the horizon
            margins = region_k.f.evaluate(
                flow_map_points(flow_k, flow_k.horizon, np.vstack(batch))) - lv[k]
        if src is None:
            conditions += [ConditionResult(name, k, False, float("-inf"),
                                           note="no source boundary samples")
                           for name in ("disjoint", "entry")]
        else:
            vals = region_k.f.evaluate(src.points) - lv[k]
            entry = margins[-len(src):].min()
            conditions += [
                ConditionResult("disjoint", k, bool(vals.max() < 0.0), float(-vals.max())),
                ConditionResult("entry", k, bool(entry > 0.0), float(entry))]
        if k == b and absorb is None:
            absorb = _absorb(b, float(margins.min()), boundary.get(b), region_k, flow_k)

    if b is not None:
        conditions.append(absorb)
    return ValidationReport(conditions, lv, m)


def _absorb(b: int, contained: float, bs: BoundarySamples | None, region: Region,
            flow: Flow) -> ConditionResult:
    """absorb[b] from its containment margin and the least cosine between
    the field and grad f over boundary b's samples, L_V f / (|grad f| |V|)
    read over their coordinate columns and 0 where the product vanishes."""
    if bs is None:
        return ConditionResult("absorb", b, False, float("-inf"),
                               note="no boundary samples")
    lie = region.f._kernels.call((flow.field, False), bs.points)[1]
    speed = np.sqrt(sum(v * v for v in flow.field._kernels.call("value", bs.points)))
    scale = bs.grad_norms * speed
    cosine = float(np.divide(lie, scale, out=np.zeros_like(lie), where=scale > 0.0).min())
    if contained <= cosine:
        return ConditionResult("absorb", b, contained > 0.0, contained)
    way = "enters" if cosine > 0.0 else "leaves"
    return ConditionResult("absorb", b, cosine > 0.0, cosine,
                           note=f"flow {b} {way} region {b} across boundary {b}: "
                                "the margin is its least cosine to the inward normal")
