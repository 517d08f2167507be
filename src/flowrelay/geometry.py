"""Level-set regions and relay-system hypothesis validation.

A region is the superlevel set {x : f(x) >= level} of a smooth expression;
its switching boundary is the level set {f = level}. A relay system bundles
p flows with p regions (the chain closes on a copy of region 0 that may
carry its own level offset), a bounding box for all sampling, and an
optional distinguished flow index whose containment must persist for all
later times.
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
    "saturate_level",
    "validate_system",
]


_EPS_REG = 1e-6  # floor on |grad f| at regular boundary points


@dataclass
class Region:
    """Superlevel-set region {f >= level} with boundary {f = level}; a
    boundary point is regular where |grad f| >= _EPS_REG (1e-6)."""

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


_SAMPLE_TOL = 1e-10    # |f - level| at an accepted boundary sample
_SAMPLE_BATCHES = 20   # random batches drawn before BoundaryNotFound
_SAMPLE_NEWTON = 80    # Newton steps per batch


def sample_boundary(region: Region, box: np.ndarray, m: int,
                    rng: np.random.Generator) -> BoundarySamples:
    """Draw m >= 1 points on {f = region.level} inside the box from rng.

    Random box points are projected onto the level set by up to 80 Newton
    steps along the gradient; points that leave the box, miss the level by
    more than 1e-10, or land where the gradient is below the regularity
    floor are discarded. BoundaryNotFound after 20 batches without m points;
    ValueError when m < 1.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 boundary samples, got {m}")
    lv = region.level
    box = np.asarray(box, float)
    lo, hi = box[0], box[1]
    n = len(lo)
    points: list[np.ndarray] = []
    norms: list[np.ndarray] = []
    have = 0
    for _ in range(_SAMPLE_BATCHES):
        x = rng.uniform(lo, hi, size=(max(4 * m, 32), n))
        # the residual checked for convergence is the next step's residual
        r = region.f.evaluate(x) - lv
        for _ in range(_SAMPLE_NEWTON):
            g = region.f.gradient(x)
            gn2 = np.einsum("ij,ij->i", g, g)
            gn2 = np.where(gn2 > 0, gn2, 1.0)
            step = (r / gn2)[:, None] * g
            np.clip(step, -1.0, 1.0, out=step)  # guard wild first steps
            x = x - step
            r = region.f.evaluate(x) - lv
            if np.all(np.abs(r) <= _SAMPLE_TOL):
                break
        g = region.f.gradient(x)
        gn = np.sqrt(np.einsum("ij,ij->i", g, g))
        ok = (np.abs(r) <= _SAMPLE_TOL) & (gn >= _EPS_REG)
        ok &= np.all((x >= lo - 1e-12) & (x <= hi + 1e-12), axis=1)
        take = np.flatnonzero(ok)[:m - have]
        points.append(x[take])
        norms.append(gn[take])
        have += len(take)
        if have == m:
            return BoundarySamples(np.concatenate(points), np.concatenate(norms))
    raise BoundaryNotFound(
        f"no boundary of region {region.index} at level {lv} found in the box "
        f"after {_SAMPLE_BATCHES} batches")


def saturate_level(e: ex.Expression, eps: float) -> ex.Expression:
    """Compose a smooth odd saturation with e: (eps/3)*tanh(3*e/eps).

    The result has the same zero set as e, unit slope there, and magnitude
    bounded by eps/3 everywhere, so every level near zero stays close to
    the original boundary.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    root = ex.Mul(ex.Num(eps / 3.0),
                  ex.Fun("tanh", ex.Mul(ex.Num(3.0 / eps), e.root)))
    return ex.Expression(root, e.n)


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
        if self.level_p is None:
            self.level_p = self.regions[0].level
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
    lo, hi = box[0], box[1]
    keep: list[np.ndarray] = []
    have = 0
    for _ in range(200):
        batch = rng.uniform(lo, hi, size=(max(4 * m, 64), len(lo)))
        vals = region.f.evaluate(batch) - region.level
        keep.append(batch[vals >= 0.0])
        have += len(keep[-1])
        if have >= m:
            return np.concatenate(keep)[:m]
    raise BoundaryNotFound(f"region {region.index} has no interior in the box")


def validate_system(system: RelaySystem, levels=None, m: int = 256,
                    grid: int = 16, seed: int = 0) -> ValidationReport:
    """Check the switching hypotheses by sampling, reporting worst margins.

    - disjoint (k=1..p): boundary k-1 stays strictly outside region k;
    - entry   (k=1..p): flow k carries boundary k-1 into the interior of
      region k at its horizon;
    - absorb (if beta set): flow beta keeps all of region beta-1 inside
      region beta at grid times spread evenly over [horizon, 2 * horizon];
    - regular (j=0..p): gradient norms on sampled boundaries stay above
      the regularity floor.

    Margins are oriented so that positive means the condition holds with
    room; these are open conditions, so sampling + margins is the check. A
    condition whose boundary or interior samples cannot be drawn fails with
    margin -inf and the sampler's message as its note. Raises ValueError
    when grid is below 1.
    """
    if grid < 1:
        raise ValueError(f"grid={grid} must be at least 1")
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

    for k in range(1, system.p + 1):
        region_k = system.chain_region(k, lv)
        src = boundary.get(k - 1)
        if src is None:
            conditions.append(ConditionResult("disjoint", k, False, float("-inf"),
                                              note="no source boundary samples"))
            conditions.append(ConditionResult("entry", k, False, float("-inf"),
                                              note="no source boundary samples"))
            continue
        vals = region_k.f.evaluate(src.points) - lv[k]
        conditions.append(ConditionResult(
            "disjoint", k, bool(vals.max() < 0.0), float(-vals.max())))

        flow_k = system.flows[k - 1]
        mapped = flow_map_points(flow_k, flow_k.horizon, src.points)
        vals_T = region_k.f.evaluate(mapped) - lv[k]
        conditions.append(ConditionResult(
            "entry", k, bool(vals_T.min() > 0.0), float(vals_T.min())))

    if system.beta is not None:
        b = system.beta
        flow_b = system.flows[b - 1]
        region_b = system.chain_region(b, lv)
        src_region = system.chain_region(b - 1, lv)
        rng = seeded_rng(seed, "validate-absorb")
        try:
            pts = _interior_samples(src_region, system.box, m, rng)
        except BoundaryNotFound as exc:
            conditions.append(ConditionResult("absorb", b, False, float("-inf"),
                                              note=str(exc)))
        else:
            if b - 1 in boundary:
                pts = np.vstack([pts, boundary[b - 1].points])
            tm = 2.0 * flow_b.horizon
            t_eval = np.linspace(flow_b.horizon, tm, grid)
            states = flow_map_points(flow_b, tm, pts, t_eval=t_eval)
            vals = region_b.f.evaluate(states.reshape(-1, system.n)) - lv[b]
            conditions.append(ConditionResult(
                "absorb", b, bool(vals.min() > 0.0), float(vals.min())))

    return ValidationReport(conditions, lv, m)
