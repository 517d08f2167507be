"""Region queries, boundary sampling, saturation, hypothesis validation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flowrelay import dynamics, events, expr, geometry, periodic, relay
from flowrelay.dynamics import Flow, VectorField, integrate
from flowrelay.errors import BoundaryNotFound
from flowrelay.geometry import (Region, RelaySystem, sample_boundary,
                                saturate_level, validate_system)

from conftest import make_rotor, make_systemb, rotation_field
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


def _sample_boundary_by_loops(region, box, m, rng):
    """sample_boundary with the level evaluated twice per Newton step and
    the accepted points taken one by one: the reference for its array form.
    Also returns the number of batches drawn."""
    lv, lo, hi = region.level, box[0], box[1]
    points, norms = [], []
    for batches in range(1, geometry._SAMPLE_BATCHES + 1):
        x = rng.uniform(lo, hi, size=(max(4 * m, 32), len(lo)))
        for _ in range(geometry._SAMPLE_NEWTON):
            r = region.f.evaluate(x) - lv
            g = region.f.gradient(x)
            gn2 = np.einsum("ij,ij->i", g, g)
            gn2 = np.where(gn2 > 0, gn2, 1.0)
            step = (r / gn2)[:, None] * g
            np.clip(step, -1.0, 1.0, out=step)
            x = x - step
            if np.all(np.abs(region.f.evaluate(x) - lv) <= geometry._SAMPLE_TOL):
                break
        r = np.abs(region.f.evaluate(x) - lv)
        g = region.f.gradient(x)
        gn = np.sqrt(np.einsum("ij,ij->i", g, g))
        for i in range(len(x)):
            if (r[i] <= geometry._SAMPLE_TOL and gn[i] >= geometry._EPS_REG
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
    for batches in range(1, 201):
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
    most_batches = [0, 0]
    for system, region in cases:
        for m in (1, 7, 1024):
            rngs = [np.random.default_rng(31) for _ in range(4)]
            got = sample_boundary(region, system.box, m, rngs[0])
            points, norms, batches = _sample_boundary_by_loops(region, system.box,
                                                               m, rngs[1])
            assert np.array_equal(got.points, points)
            assert np.array_equal(got.grad_norms, norms)
            inside = geometry._interior_samples(region, system.box, m, rngs[2])
            want, inside_batches = _interior_samples_by_loops(region, system.box,
                                                              m, rngs[3])
            assert np.array_equal(inside, want)
            assert rngs[0].random() == rngs[1].random()
            assert rngs[2].random() == rngs[3].random()
            most_batches = [max(most_batches[0], batches),
                            max(most_batches[1], inside_batches)]
    assert most_batches[0] > 1 and most_batches[1] > 1


def test_saturate_level_bounds_and_slope():
    e = expr.parse("x1", 1)
    s = saturate_level(e, 0.3)
    xs = np.linspace(-5, 5, 201)[:, None]
    vals = s.evaluate(xs)
    assert np.abs(vals).max() <= 0.1 + 1e-12
    assert s.evaluate([0.0]) == 0.0
    assert s.gradient([0.0])[0] == pytest.approx(1.0)


def test_saturate_level_preserves_zero_set():
    e = expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2)
    s = saturate_level(e, 0.3)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 81),
                                np.linspace(-2, 2, 81)), axis=-1).reshape(-1, 2)
    ve = e.evaluate(grid)
    vs = s.evaluate(grid)
    assert np.array_equal(np.sign(ve), np.sign(vs))


def test_saturate_level_stays_in_grammar():
    s = saturate_level(expr.parse("x1 - x2", 2), 0.5)
    assert expr.parse(str(s), 2) == s


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


@pytest.mark.parametrize("grid", [0, -1])
def test_validate_rejects_empty_absorb_grid(systemb, monkeypatch, grid):
    # an empty time grid would leave the absorb check nothing to reduce
    def unreachable(*args):
        raise AssertionError("sampled before checking the grid")

    monkeypatch.setattr(geometry, "sample_boundary", unreachable)
    with pytest.raises(ValueError, match="grid=.* must be at least 1"):
        validate_system(systemb, grid=grid)


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
    "omega_limit_estimate": lambda s, lv: relay.omega_limit_estimate(
        s, _X, 0, lv, m_discard=1, depth=1),
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
