"""Region queries, boundary sampling, saturation, hypothesis validation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flowrelay import expr
from flowrelay.dynamics import Flow, VectorField, integrate
from flowrelay.errors import BoundaryNotFound
from flowrelay.geometry import (Region, RelaySystem, sample_boundary,
                                saturate_level, signed_level, validate_system)

from conftest import make_rotor, make_systemb, rotation_field

BOX = np.array([[-3.0, -3.0], [3.0, 3.0]])


def rotor_region0() -> Region:
    return Region(expr.parse("0.09 - ((x1-1)^2 + x2^2)", 2), index=0)


def test_signed_level_examples():
    r = rotor_region0()
    assert signed_level(r, [1.0, 0.0]) == pytest.approx(0.09)
    assert abs(signed_level(r, [1.3, 0.0])) < 1e-15
    assert signed_level(r, [-1.0, 0.0]) == pytest.approx(-3.91)


def test_signed_level_level_override():
    r = rotor_region0()
    assert signed_level(r, [1.0, 0.0], level=0.05) == pytest.approx(0.04)


def test_sample_boundary_rotor_circle():
    bs = sample_boundary(rotor_region0(), BOX, 4, seed=0)
    assert len(bs) == 4
    radii = np.linalg.norm(bs.points - np.array([1.0, 0.0]), axis=1)
    assert np.abs(radii - 0.3).max() < 1e-9
    res = np.abs(rotor_region0().f.evaluate(bs.points))
    assert res.max() <= 1e-10
    assert bs.grad_norms.min() >= 1e-6


def test_sample_boundary_sphere_unit_vector():
    r = Region(expr.parse("1 - (x1^2 + x2^2 + x3^2)", 3))
    box = np.array([[-2.0] * 3, [2.0] * 3])
    bs = sample_boundary(r, box, 1, seed=1)
    assert np.linalg.norm(bs.points[0]) == pytest.approx(1.0, abs=1e-10)


def test_sample_boundary_empty_region():
    r = Region(expr.parse("-1 - (x1^2 + x2^2)", 2))
    with pytest.raises(BoundaryNotFound):
        sample_boundary(r, BOX, 2, seed=0)


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


def test_validate_rejects_bad_levels_length(systemb):
    with pytest.raises(ValueError):
        validate_system(systemb, levels=[0.0, 0.0])


def test_validate_rejects_t_max_below_absorb_horizon(systemb):
    # the absorb check samples [horizon, t_max], which is empty below the
    # horizon; reading the interpolant there gave a margin of -8.25e9
    with pytest.raises(ValueError, match="horizon"):
        validate_system(systemb, m=16, t_max=1.0)
    report = validate_system(systemb, m=16, t_max=4.0)
    absorb = [c for c in report.conditions if c.name == "absorb"]
    assert len(absorb) == 1 and absorb[0].passed


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
