"""Crossing detection against closed forms and a brute-force scan oracle;
crossing trees, parities, winding numbers."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from flowrelay import expr
from flowrelay.dynamics import integrate
from flowrelay.errors import DegenerateCrossing, VanishingImage
from flowrelay.events import (_fine_grid, backward_leaf_parity, backward_tree,
                              degree_check, find_crossings,
                              forward_leaf_parity, forward_tree,
                              winding_degree)
from flowrelay.geometry import Region, sample_boundary

from conftest import ROTOR_CROSS_T, make_rotor, make_systemb, rotor_periodic_start


@pytest.fixture(scope="module")
def rotor_m():
    return make_rotor()


@pytest.fixture(scope="module")
def systemb_m():
    return make_systemb()


def test_rotor_crossings_closed_form(rotor_m):
    evs = find_crossings(rotor_m.flows[0], rotor_m.regions[1], 0.0,
                         [1.3, 0.0], 2 * math.pi)
    assert len(evs) == 2
    assert abs(evs[0].t - ROTOR_CROSS_T) < 1e-6
    assert abs(evs[1].t - (2 * math.pi - ROTOR_CROSS_T)) < 1e-6
    # closed-form margin: |d/dt f_1| = |2 x2| on the unit-speed circle
    for e in evs:
        assert abs(e.margin - abs(2 * e.point[1])) < 1e-6
    assert [e.direction for e in evs] == [1, -1]


def test_rotor_single_crossing_in_half_window(rotor_m):
    evs = find_crossings(rotor_m.flows[0], rotor_m.regions[1], 0.0,
                         [1.3, 0.0], math.pi)
    assert len(evs) == 1  # odd count: outside at 0, inside at the horizon


def test_no_crossings_constant_sign(rotor_m):
    big = Region(expr.parse("9 - (x1^2 + x2^2)", 2))
    assert find_crossings(rotor_m.flows[0], big, 0.0, [1.3, 0.0], 2 * math.pi) == []


def test_crossing_points_on_level(rotor_m):
    evs = find_crossings(rotor_m.flows[0], rotor_m.regions[1], 0.0,
                         [1.3, 0.0], 2 * math.pi)
    for e in evs:
        assert abs(rotor_m.regions[1].f.evaluate(e.point)) <= 1e-10


def test_start_on_boundary_rejected(rotor_m):
    with pytest.raises(ValueError):
        find_crossings(rotor_m.flows[0], rotor_m.regions[0], 0.0,
                       [1.3, 0.0], math.pi)


def test_tangential_crossing_degenerate(rotor_m):
    # the radius-1.3 circle is tangent to boundary 0 at (1.3, 0)
    with pytest.raises(DegenerateCrossing):
        find_crossings(rotor_m.flows[0], rotor_m.regions[0], 0.0,
                       [0.0, 1.3], 2 * math.pi)


def test_direction_signs_alternate(systemb_m):
    # backward flow from a boundary-0 point pierces region 1: enter then exit
    x = rotor_periodic_start(1.0)
    evs = find_crossings(make_rotor().flows[0], make_rotor().regions[1], 0.0,
                         x, 2 * math.pi)
    signs = [e.direction for e in evs]
    assert all(a != b for a, b in zip(signs, signs[1:]))


def _brute_force_times(arc, f, level, step=1e-5):
    taus = np.arange(0.0, arc.duration + step, step)
    taus[-1] = arc.duration
    g = f.evaluate(arc.sample(taus)) - level
    roots = []
    for i in np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0):
        gf = lambda t: float(f.evaluate(arc(t))) - level
        roots.append(brentq(gf, taus[i], taus[i + 1], xtol=1e-12))
    return roots


def test_oracle_equivalence_100_instances(rotor_m, systemb_m):
    """find_crossings agrees with a fixed-step scan + bisection oracle."""
    rng = np.random.default_rng(11)
    systems = [(rotor_m, 2 * math.pi), (systemb_m, 4.0)]
    checked = 0
    degenerate = 0
    while checked + degenerate < 100:
        system, window = systems[rng.integers(0, 2)]
        flow = system.flows[int(rng.integers(0, system.p))]
        region = system.regions[int(rng.integers(0, system.p))]
        x = rng.uniform(system.box[0], system.box[1])
        if abs(float(region.f.evaluate(x))) < 1e-6:
            continue
        try:
            evs = find_crossings(flow, region, 0.0, x, window)
        except DegenerateCrossing:
            degenerate += 1
            continue
        arc = integrate(flow, window, x)
        ref = _brute_force_times(arc, region.f, 0.0)
        assert len(evs) == len(ref), f"count mismatch at x={x}"
        for e, t_ref in zip(evs, ref):
            assert abs(e.t - t_ref) < 1e-6
        checked += 1
    assert checked >= 90  # tangencies are rare on these systems


def test_fine_grid_matches_per_step_linspace(rotor_m, systemb_m):
    # the vectorized grid is pinned bit for bit to the per-step linspace one
    rng = np.random.default_rng(12)
    for system in (rotor_m, systemb_m):
        for backward in (False, True):
            for _ in range(5):
                x0 = rng.uniform(-1.5, 1.5, 2)
                arc = integrate(system.flows[0], 2 * system.flows[0].horizon,
                                x0, backward=backward)
                for ns in (8, 16, 32, 64):
                    pieces = [np.linspace(arc.ts[i], arc.ts[i + 1], ns + 1)[:-1]
                              for i in range(len(arc.ts) - 1)]
                    old = np.unique(np.concatenate(pieces + [arc.ts[-1:]]))
                    new = _fine_grid(arc, ns)
                    assert new.shape == old.shape
                    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def test_forward_tree_rotor_stage_counts(rotor_m):
    tree = forward_tree(rotor_m, None, [1.3, 0.0])
    assert [len(s) for s in tree.stages] == [1, 1, 0]
    assert not tree.consistent  # rotor violates the entry hypothesis


def test_forward_tree_requires_boundary_root(rotor_m):
    with pytest.raises(ValueError):
        forward_tree(rotor_m, None, [2.0, 2.0])


def test_systemb_tree_parities(systemb_m):
    res = degree_check(systemb_m, samples=8, seed=3)
    assert all(v == 1 for v in res.start_parities if v is not None)
    assert all(v == 0 for v in res.end_parities if v is not None)
    assert res.degenerate_rate < 0.2


def test_forward_tree_leaves_on_closing_boundary(systemb_m):
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 3, seed=5)
    lv = systemb_m.levels()
    for pt in bs.points:
        tree = forward_tree(systemb_m, lv, pt)
        assert tree.consistent
        for leaf in tree.leaves:
            val = systemb_m.chain_region(2).f.evaluate(leaf.point)
            assert abs(val - lv[2]) <= 1e-10
            assert all(0 < t < 4.0 for t in leaf.times)


def test_backward_tree_even_leaves(systemb_m):
    bs = sample_boundary(systemb_m.chain_region(2), systemb_m.box, 6, seed=6)
    for pt in bs.points:
        try:
            tree = backward_tree(systemb_m, None, pt)
        except DegenerateCrossing:
            continue
        assert tree.leaf_count % 2 == 0
        for leaf in tree.leaves:
            val = systemb_m.chain_region(0).f.evaluate(leaf.point)
            assert abs(val) <= 1e-10


def test_parity_stable_under_level_perturbation(systemb_m):
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 4, seed=9)
    for pt in bs.points:
        base = forward_leaf_parity(systemb_m, None, pt)
        # margins on this system are ~0.25; perturb far below half of that
        shifted = np.array([0.0, 1e-3, 0.0])
        assert forward_leaf_parity(systemb_m, shifted, pt) == base


def test_parity_constant_across_samples(systemb_m):
    res = degree_check(systemb_m, samples=10, seed=12)
    vals = {v for v in res.start_parities if v is not None}
    assert vals == {1}


def test_winding_degrees():
    assert winding_degree(expr.parse("x1", 2), expr.parse("x2", 2)) == 1
    assert winding_degree(expr.parse("1", 2), expr.parse("0", 2)) == 0
    assert winding_degree(expr.parse("x1^2 - x2^2", 2), expr.parse("2*x1*x2", 2)) == 2
    assert winding_degree(expr.parse("x1", 2), expr.parse("0 - x2", 2)) == -1


def test_winding_vanishing_image():
    with pytest.raises(VanishingImage):
        winding_degree(expr.parse("x1 - x1", 2), expr.parse("x2 - x2", 2))


def test_winding_minimum_samples():
    with pytest.raises(ValueError):
        winding_degree(expr.parse("x1", 2), expr.parse("x2", 2), samples=32)


def test_tree_degenerate_carries_stage():
    # stretch the second horizon so the stage-2 window reaches the grazing
    # contact of the radius-1.3 circle with boundary 0
    import math as _math
    from flowrelay.dynamics import Flow
    from flowrelay.geometry import RelaySystem
    from conftest import rotation_field
    base = make_rotor()
    system = RelaySystem(
        n=2, p=2,
        flows=(base.flows[0], Flow(rotation_field(), horizon=2 * _math.pi)),
        regions=base.regions, box=base.box)
    with pytest.raises(DegenerateCrossing) as exc:
        forward_tree(system, None, [1.3, 0.0])
    assert exc.value.stage == 2
