"""Region queries, boundary sampling, saturation, hypothesis validation."""
from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from flowrelay import _dop853, dynamics, events, expr, geometry, periodic, relay
from flowrelay.dynamics import Flow, VectorField, integrate
from flowrelay._util import seeded_rng
from flowrelay.errors import BoundaryNotFound, EvalError
from flowrelay.geometry import (Region, RelaySystem, sample_boundary,
                                validate_system)

from conftest import make_rotor, make_systemb, rotation_field
from test_events import _lifted_systemb
from test_three_mode import make_triangle

BOX = np.array([[-3.0, -3.0], [3.0, 3.0]])


def rotor_region0() -> Region:
    return Region(expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2), index=0)


def test_sample_boundary_rotor_circle():
    bs = sample_boundary(rotor_region0(), BOX, 4, np.random.default_rng(0))
    assert len(bs) == 4
    radii = np.linalg.norm(bs.points - np.array([1.0, 0.0]), axis=1)
    assert np.abs(radii - 0.3).max() < 1e-9
    res = np.abs(rotor_region0().f.evaluate(bs.points))
    assert res.max() <= 1e-10
    assert bs.grad_norms.min() >= 1e-6


def test_sample_boundary_sphere_unit_vector():
    r = Region(expr.parse("1 - (x1^2 + x2^2 + x3^2)", 3))
    box = np.array([[-2.0] * 3, [2.0] * 3])
    bs = sample_boundary(r, box, 1, np.random.default_rng(1))
    assert np.linalg.norm(bs.points[0]) == pytest.approx(1.0, abs=1e-10)


def test_sample_boundary_empty_region():
    r = Region(expr.parse("-1 - (x1^2 + x2^2)", 2))
    with pytest.raises(BoundaryNotFound):
        sample_boundary(r, BOX, 2, np.random.default_rng(0))


@pytest.mark.parametrize("m", [0, -1])
def test_sample_boundary_rejects_empty_request(m):
    with pytest.raises(ValueError, match="m >= 1"):
        sample_boundary(rotor_region0(), BOX, m, np.random.default_rng(0))


def _square_norms_by_loop(g):
    """The squared norms of the rows of g, summed in coordinate order."""
    out = g[:, 0] * g[:, 0]
    for j in range(1, g.shape[1]):
        out = out + g[:, j] * g[:, j]
    return out


def _sample_boundary_by_loops(region, box, m, rng):
    """sample_boundary with the level evaluated twice per Newton step and
    the accepted points taken one by one, each slice of m candidates
    projected on its own: the reference for its array form. Also returns
    the number of batches drawn."""
    lv, lo, hi = region.level, box[0], box[1]
    points, norms = [], []
    for batches in range(1, geometry._SAMPLE_BATCHES + 1):
        batch = rng.uniform(lo, hi, size=(max(4 * m, 32), len(lo)))
        for start in range(0, len(batch), m):
            x = batch[start:start + m]
            for _ in range(geometry._SAMPLE_NEWTON):
                r = region.f.evaluate(x) - lv
                g = region.f.gradient(x)
                gn2 = _square_norms_by_loop(g)
                gn2 = np.where(gn2 > 0, gn2, 1.0)
                step = (r / gn2)[:, None] * g
                np.clip(step, -1.0, 1.0, out=step)
                x = x - step
                if np.all(np.abs(region.f.evaluate(x) - lv) <= geometry._SAMPLE_TOL):
                    break
            r = np.abs(region.f.evaluate(x) - lv)
            g = region.f.gradient(x)
            gn = np.sqrt(_square_norms_by_loop(g))
            for i in range(len(x)):
                if (r[i] <= geometry._SAMPLE_TOL
                        and np.all((x[i] >= lo - 1e-12) & (x[i] <= hi + 1e-12))):
                    points.append(x[i])
                    norms.append(float(gn[i]))
                    if len(points) == m:
                        return np.array(points), np.array(norms), batches
    raise BoundaryNotFound("reference loop found too few points")


def _interior_samples_by_loops(region, box, m, rng):
    """_interior_samples taking the inside points one by one, and the
    number of batches drawn."""
    keep = []
    for batches in range(1, geometry._INTERIOR_BATCHES + 1):
        batch = rng.uniform(box[0], box[1], size=(max(4 * m, 64), len(box[0])))
        vals = region.f.evaluate(batch) - region.level
        for x, v in zip(batch, vals):
            if v >= 0.0:
                keep.append(x)
        if len(keep) >= m:
            return np.array(keep[:m]), batches
    raise BoundaryNotFound("reference loop found too few points")


def test_samplers_match_the_loops():
    systems = (make_systemb(), make_rotor(), make_triangle())
    cases = [(s, s.chain_region(j)) for s in systems for j in range(s.p + 1)]
    # rotor's box keeps only the piece of this line with |x1 - x2| <= 0.6,
    # where about a fifth of the projected points land: several batches
    cases.append((systems[1], Region(expr.parse("x1 + x2 - 5.4", 2), index=0)))
    # partials that are the columns x2 and x1, which each Newton step updates
    # in place
    cases.append((systems[0], Region(expr.parse("x1*x2 - 1", 2), index=0)))
    # a region that is one point, c, with no interior: a sample within
    # 1e-10 of the level lies within 1e-5 of c, where |grad f| = 2|x - c|,
    # and one below the regularity floor is kept all the same
    point = systems[0].chain_region(1, [0.0, 0.25, 0.0])
    cases.append((systems[0], point))
    # in R^3, where an einsum may sum the three squares in another order; a
    # box that leaves the balls room for 1024 interior samples
    lifted = dataclasses.replace(_lifted_systemb(), box=[[-2.0] * 3, [2.0] * 3])
    cases += [(lifted, lifted.chain_region(j)) for j in range(lifted.p + 1)]
    most_batches = [0, 0]
    for system, region in cases:
        for m in (1, 7, 1024):
            rngs = [np.random.default_rng(31) for _ in range(4)]
            got = sample_boundary(region, system.box, m, rngs[0])
            points, norms, batches = _sample_boundary_by_loops(region, system.box,
                                                               m, rngs[1])
            assert np.array_equal(got.points, points)
            assert np.array_equal(got.grad_norms, norms)
            assert rngs[0].random() == rngs[1].random()
            most_batches[0] = max(most_batches[0], batches)
            if region is point:
                assert got.grad_norms.max() <= 2e-5
                assert m < 1024 or got.grad_norms.min() < geometry._EPS_REG
                continue
            inside = geometry._interior_samples(region, system.box, m, rngs[2])
            want, inside_batches = _interior_samples_by_loops(region, system.box,
                                                              m, rngs[3])
            assert np.array_equal(inside, want)
            assert rngs[2].random() == rngs[3].random()
            most_batches[1] = max(most_batches[1], inside_batches)
    assert most_batches[0] > 1 and most_batches[1] > 1


@pytest.mark.parametrize("box", [[[-3.0, 0.5], [1.0, 250.0]],
                                 [[-1e-3, 2.0, -7.5], [4e-3, 2.25, 1e4]]],
                         ids=["n2", "n3"])
@pytest.mark.parametrize("count", [1, 33, 4096])
def test_box_columns_are_uniforms_columns(box, count):
    # the same bits as rng.uniform with array bounds, and the generator
    # left at the same position
    lo, hi = np.array(box)
    for seed in range(5):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        cols = geometry._box_columns(rngs[0], lo, hi, count)
        want = rngs[1].uniform(lo, hi, size=(count, len(lo)))
        assert len(cols) == len(lo)
        for j, col in enumerate(cols):
            assert col.flags.c_contiguous
            assert np.array_equal(col, want[:, j])
        assert rngs[0].random() == rngs[1].random()


def test_sample_boundary_names_a_non_finite_level_value():
    # sqrt of the negative half of the box: the value, read before any
    # partial, is the entry named
    r = Region(expr.parse("sqrt(x1) - 1", 2))
    box = np.array([[-1.0, -1.0], [3.0, 3.0]])
    with pytest.raises(EvalError, match=re.escape("non-finite value in batched evaluation")):
        sample_boundary(r, box, 16, np.random.default_rng(0))


def _saturated(f: str, eps: float, n: int) -> expr.Expression:
    # a level function saturated in the config grammar: the zero set of f,
    # unit slope there, magnitude at most eps/3
    return expr.parse(f"({eps}/3)*tanh(3*({f})/{eps})", n)


def test_saturate_level_bounds_and_slope():
    s = _saturated("x1", 0.3, 1)
    xs = np.linspace(-5, 5, 201)[:, None]
    vals = s.evaluate(xs)
    assert np.abs(vals).max() <= 0.1 + 1e-12
    assert s.evaluate([0.0]) == 0.0
    assert s.gradient([0.0])[0] == pytest.approx(1.0)


def test_saturate_level_preserves_zero_set():
    e = expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2)
    s = _saturated(str(e), 0.3, 2)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 81),
                                np.linspace(-2, 2, 81)), axis=-1).reshape(-1, 2)
    ve = e.evaluate(grid)
    vs = s.evaluate(grid)
    assert np.array_equal(np.sign(ve), np.sign(vs))


def test_validate_systemb_passes(systemb):
    report = validate_system(systemb, m=128, seed=0)
    assert report.passed
    for cond in report.conditions:
        if cond.name in ("disjoint", "entry", "absorb"):
            assert cond.margin > 0.0
    # closed-form entry margin: 0.25 - (e^{-2} * 2.5)^2
    entry = [c for c in report.conditions if c.name == "entry"]
    bound = 0.25 - (math.exp(-2.0) * 2.5) ** 2
    for c in entry:
        assert c.margin > bound - 0.01


def test_validate_rotor_fails_only_entry_2(rotor):
    report = validate_system(rotor, m=128, seed=0)
    assert not report.passed
    assert report.failures == [("entry", 2)]


def test_validate_overlapping_disks_fails_disjoint():
    # two overlapping disks: boundary 0 meets region 1
    f = rotation_field()
    system = RelaySystem(
        n=2, p=2,
        flows=(Flow(rotation_field(), horizon=1.0),
               Flow(rotation_field(), horizon=1.0)),
        regions=(Region(expr.parse("1 - ((x1-0.5)^2 + x2^2)", 2), index=0),
                 Region(expr.parse("1 - ((x1+0.5)^2 + x2^2)", 2), index=1)),
        box=BOX)
    report = validate_system(system, m=64, seed=0)
    assert ("disjoint", 1) in report.failures


def test_validate_monotone_in_level():
    # raising level k shrinks region k, so the disjointness margin never drops
    system = make_systemb()
    base = validate_system(system, m=64, seed=0)
    raised = validate_system(system, levels=[0.0, 0.05, 0.0], m=64, seed=0)
    m0 = [c.margin for c in base.conditions if c.name == "disjoint" and c.index == 1][0]
    m1 = [c.margin for c in raised.conditions if c.name == "disjoint" and c.index == 1][0]
    assert m1 >= m0


def test_validate_without_interior_fails_absorb():
    # disks of radius 0.1 in the 8 x 8 box: the interior sampler's 200
    # batches hold too few interior points, so absorb fails with its note
    system = make_systemb()
    system.regions = tuple(
        Region(expr.parse(text, 2), index=i) for i, text in
        enumerate(("0.01 - ((x1-1)^2 + x2^2)", "0.01 - ((x1+1)^2 + x2^2)")))
    report = validate_system(system, seed=0)
    absorb = [c for c in report.conditions if c.name == "absorb"]
    assert len(absorb) == 1 and not absorb[0].passed
    assert absorb[0].margin == -math.inf
    assert absorb[0].note == "region 0 has no interior in the box"
    assert all(c.passed for c in report.conditions if c.name == "regular")


@pytest.mark.parametrize("seed", range(8))
def test_validate_point_region_fails_regular(seed):
    # at level offset 0.25 region 1 of systemb is the one point (-1, 0),
    # where grad f vanishes: regular[1] reads the smallest gradient norm
    # over the samples, which lies below the floor
    report = validate_system(make_systemb(), levels=[0.0, 0.25, 0.0], seed=seed)
    regular = {c.index: c for c in report.conditions if c.name == "regular"}
    assert not regular[1].passed and 0.0 < regular[1].margin < geometry._EPS_REG
    assert regular[0].passed and regular[2].passed


@pytest.mark.parametrize("make", [make_systemb, make_triangle])
def test_validate_absorb_margin_is_at_most_entry(make):
    # absorb[beta] is at most its containment part, a minimum over a
    # superset of entry[beta]'s values: interior and boundary points alike
    # at the horizon
    system = make()
    for seed in range(4):
        got = {(c.name, c.index): c.margin
               for c in validate_system(system, seed=seed).conditions}
        assert got["absorb", system.beta] <= got["entry", system.beta]


@pytest.mark.parametrize("make", [make_systemb, make_triangle, make_rotor])
def test_validate_flows_each_batch_once(make, monkeypatch):
    # one stacked solve per flow: flow beta's entry check reads its batch
    # from the absorb solve
    solve, stacked = _dop853.solve, []

    def counted(fun, t_end, y0, solout, **kw):
        if isinstance(y0[0], np.ndarray):
            stacked.append(t_end)
        return solve(fun, t_end, y0, solout, **kw)

    monkeypatch.setattr(_dop853, "solve", counted)
    system = make()
    validate_system(system, m=64, seed=0)
    assert len(stacked) == system.p


def _systemb_with(flow1: tuple[str, str], horizons: tuple[float, float],
                  region0: str | None = None) -> RelaySystem:
    """systemb with flow 1's field and both horizons replaced, and region 0's
    function if given."""
    system = make_systemb()
    field = VectorField([expr.parse(c, 2) for c in flow1])
    flows = (Flow(field, horizons[0]), Flow(system.flows[1].field, horizons[1]))
    regions = system.regions
    if region0 is not None:
        regions = (Region(expr.parse(region0, 2), index=0), regions[1])
    return dataclasses.replace(system, flows=flows, regions=regions)


@pytest.mark.parametrize("seed", range(3))
def test_validate_saddle_relay_fails_absorb(seed):
    # flow 1 is the saddle x1' = -(x1 + 1), x2' = 0.1 x2 about the center of
    # region 1: region 0, the disk of radius 0.2 about (1, 0), lies inside
    # region 1 at T = 4, but its image leaves it along x2 at t = 10 ln 2.5,
    # past the 2T that a grid over [T, 2T] reads. On boundary 1 the field's
    # cosine to the inward normal falls to -1 at (-1, +-0.5)
    system = _systemb_with(("-(x1+1)", "0.1*x2"), (4.0, 8.0),
                           "0.04 - ((x1-1)^2 + x2^2)")
    report = validate_system(system, seed=seed)
    assert report.failures == [("absorb", 1)]
    absorb, = [c for c in report.conditions if c.name == "absorb"]
    assert -1.0 <= absorb.margin < -0.99
    assert absorb.note.startswith("flow 1 leaves region 1 across boundary 1")


@pytest.mark.parametrize("seed", range(3))
def test_validate_outward_relay_fails_absorb_at_the_closed_form_cosine(seed):
    # flow 1 spirals into (-1.3, 0), inside region 1, so region 1 does trap
    # region 0; but on the arc of boundary 1 farthest from the focus the
    # field points out, and forward invariance, a sufficient condition, does
    # not hold. Its cosine to the inward normal -(x - o)/|x - o| is read in
    # closed form at validate's own boundary samples; over the whole circle
    # its minimum is -0.4/sqrt(5)
    system = _systemb_with(("-0.5*(x1+1.3) - x2", "(x1+1.3) - 0.5*x2"), (8.0, 4.0))
    report = validate_system(system, seed=seed)
    assert report.failures == [("absorb", 1)]
    absorb, = [c for c in report.conditions if c.name == "absorb"]
    pts = sample_boundary(system.chain_region(1), system.box, 256,
                          seeded_rng(seed, "validate", "1")).points
    d, e = pts - [-1.3, 0.0], pts - [-1.0, 0.0]
    field = np.stack([-0.5 * d[:, 0] - d[:, 1], d[:, 0] - 0.5 * d[:, 1]], axis=1)
    cosine = -(field * e).sum(axis=1) / (np.linalg.norm(field, axis=1)
                                        * np.linalg.norm(e, axis=1))
    assert abs(absorb.margin - cosine.min()) < 1e-12
    assert absorb.margin >= -0.4 / math.sqrt(5.0) - 1e-12


_SV = periodic.SwitchingVector.of([1.5, 0.0], (2.0, 2.0))
_X = np.array([1.5, 0.0])

# every public call that takes level offsets, as call(system, levels)
_TAKERS_OF_LEVELS = {
    "RelaySystem.levels": lambda s, lv: s.levels(lv),
    "RelaySystem.chain_region": lambda s, lv: s.chain_region(0, lv),
    "validate_system": lambda s, lv: validate_system(s, lv),
    "shooting_residual": lambda s, lv: periodic.shooting_residual(s, lv, _SV),
    "residual_jacobian": lambda s, lv: periodic.residual_jacobian(s, lv, _SV),
    "find_periodic": lambda s, lv: periodic.find_periodic(s, lv),
    "continue_levels from": lambda s, lv: periodic.continue_levels(
        s, _SV, lv, s.levels()),
    "continue_levels to": lambda s, lv: periodic.continue_levels(
        s, _SV, s.levels(), lv),
    "forward_tree": lambda s, lv: events.forward_tree(s, lv, _X),
    "backward_tree": lambda s, lv: events.backward_tree(s, lv, _X),
    "forward_leaf_parity": lambda s, lv: events.forward_leaf_parity(s, lv, _X),
    "backward_leaf_parity": lambda s, lv: events.backward_leaf_parity(s, lv, _X),
    "degree_check": lambda s, lv: events.degree_check(s, lv),
    "simulate": lambda s, lv: relay.simulate(s, _X, 0, lv, max_switches=2),
    "accessible_set": lambda s, lv: relay.accessible_set(s, _X, 0, lv, depth=1),
}


def test_validate_rejects_bad_levels_length(systemb, monkeypatch):
    # a short, long or NaN offset vector fails at the door, before any
    # integration, with the message RelaySystem.levels gives
    def unreachable(*args):
        raise AssertionError("integrated before checking the levels")

    monkeypatch.setattr(dynamics, "_run", unreachable)
    bad_vectors = [([0.0, 0.0], "length p\\+1 = 3"),
                   ([0.0, 0.0, 0.0, 0.0], "length p\\+1 = 3"),
                   ([0.0, float("nan"), 0.0], "finite")]
    for call in _TAKERS_OF_LEVELS.values():
        for bad, message in bad_vectors:
            with pytest.raises(ValueError, match=message):
                call(systemb, bad)


def test_signed_level_continuous_along_flow(systemb):
    # no jumps beyond a Lipschitz bound along a sampled arc
    flow = systemb.flows[0]
    arc = integrate(flow, 4.0, np.array([1.5, 0.0]))
    taus = np.linspace(0.0, 4.0, 400)
    states = arc.sample(taus)
    vals = systemb.regions[1].f.evaluate(states)
    speeds = np.linalg.norm(flow.field.value_batch(states), axis=1)
    grads = np.linalg.norm(systemb.regions[1].f.gradient(states), axis=1)
    lip = (speeds * grads).max()
    dt = taus[1] - taus[0]
    assert np.abs(np.diff(vals)).max() <= 1.1 * lip * dt


def test_relay_system_validation():
    with pytest.raises(ValueError):
        RelaySystem(n=2, p=1, flows=(Flow(rotation_field(), 1.0),),
                    regions=(rotor_region0(),), box=BOX)
    with pytest.raises(ValueError):
        make_bad = RelaySystem(n=1, p=2,
                               flows=(Flow(rotation_field(), 1.0),) * 2,
                               regions=(rotor_region0(),) * 2, box=BOX)


def test_chain_region_closing_copy(rotor):
    r2 = rotor.chain_region(2)
    assert r2.f == rotor.regions[0].f
    assert r2.index == 2
    lv = rotor.levels()
    assert lv.shape == (3,)
