"""Switching simulation semantics, reach clouds, connectivity."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flowrelay.dynamics import flow_map
from flowrelay.errors import NoCrossingWithinHorizon
from flowrelay.relay import (FirstHit, NthHit, PointCloud,
                             RandomHit, accessible_set, check_connected,
                             omega_limit_estimate, simulate)

from conftest import make_rotor, make_systemb, rotor_periodic_start


@pytest.fixture(scope="module")
def rotor_m():
    return make_rotor()


@pytest.fixture(scope="module")
def systemb_m():
    return make_systemb()


def test_rotor_first_hit_cycles_sum_to_2pi(rotor_m):
    x0 = rotor_periodic_start(1.0)
    traj = simulate(rotor_m, x0, 0, max_switches=6)
    assert len(traj.switches) == 6
    for i in range(len(traj.switches) - 2):
        cycle = traj.switches[i + 2].time - traj.switches[i].time
        assert abs(cycle - 2 * math.pi) < 1e-6
    # boundaries alternate
    for i, sw in enumerate(traj.switches):
        assert sw.mode_after == (sw.mode_before + 1) % 2


def test_switch_points_on_watched_boundary(rotor_m):
    x0 = rotor_periodic_start(1.0)
    traj = simulate(rotor_m, x0, 0, max_switches=4)
    lv = rotor_m.levels()
    for sw in traj.switches:
        watch = sw.mode_after  # boundary index of the surface just hit
        val = rotor_m.chain_region(watch, lv).f.evaluate(sw.point)
        assert abs(val - lv[watch]) <= 1e-10


def test_segments_chain_bit_equal(rotor_m):
    traj = simulate(rotor_m, rotor_periodic_start(1.0), 0, max_switches=4)
    for a, b in zip(traj.segments, traj.segments[1:]):
        assert b.x0 is a.x1


def test_t_max_before_first_crossing_single_segment(rotor_m):
    traj = simulate(rotor_m, rotor_periodic_start(1.0), 0, t_max=0.5)
    assert len(traj.segments) == 1
    assert traj.switches == []
    assert traj.final_time == pytest.approx(0.5)


def test_replay_reproduces_segment_endpoints(systemb_m):
    traj = simulate(systemb_m, [1.5, 0.0], 0, max_switches=6)
    for seg in traj.segments:
        replay = flow_map(systemb_m.flows[seg.mode], seg.duration, seg.x0)
        assert np.abs(replay - seg.x1).max() < 10 * 1e-8


def test_systemb_ten_switches_complete(systemb_m):
    traj = simulate(systemb_m, [1.5, 0.0], 0, max_switches=10)
    assert len(traj.switches) == 10


def test_first_hit_deterministic(systemb_m):
    t1 = simulate(systemb_m, [1.5, 0.0], 0, max_switches=5)
    t2 = simulate(systemb_m, [1.5, 0.0], 0, max_switches=5)
    assert [s.time for s in t1.switches] == [s.time for s in t2.switches]


def test_random_hit_seeded_deterministic(rotor_m):
    x0 = rotor_periodic_start(1.0)
    a = simulate(rotor_m, x0, 0, policy=RandomHit(5), max_switches=4)
    b = simulate(rotor_m, x0, 0, policy=RandomHit(5), max_switches=4)
    assert [s.crossing_index for s in a.switches] == [s.crossing_index for s in b.switches]


def test_nth_hit_picks_later_crossing(rotor_m):
    x0 = rotor_periodic_start(1.0)
    first = simulate(rotor_m, x0, 0, policy=FirstHit(), max_switches=1)
    second = simulate(rotor_m, x0, 0, policy=NthHit(2), max_switches=1)
    assert second.switches[0].time > first.switches[0].time
    assert second.switches[0].crossing_index == 1


def test_simulate_requires_stop_rule(rotor_m):
    with pytest.raises(ValueError):
        simulate(rotor_m, rotor_periodic_start(1.0), 0)


@pytest.mark.parametrize("stop", [{"max_switches": 0}, {"t_max": 0.0},
                                  {"t_max": -1.0}, {"t_max": math.nan}])
def test_simulate_rejects_empty_stop_rule(rotor_m, stop):
    with pytest.raises(ValueError, match="must be"):
        simulate(rotor_m, rotor_periodic_start(1.0), 0, **stop)


@pytest.mark.parametrize("cloud", [accessible_set, omega_limit_estimate])
@pytest.mark.parametrize("k0", [-1, 2])
def test_clouds_reject_mode_outside_range(rotor_m, cloud, k0):
    with pytest.raises(ValueError, match="k0"):
        cloud(rotor_m, rotor_periodic_start(1.0), k0)


def test_no_crossing_within_horizon():
    # start far outside both disks on a huge circle: never meets boundary 1
    rotor = make_rotor()
    with pytest.raises(NoCrossingWithinHorizon):
        simulate(rotor, [2.5, 0.0], 0, max_switches=1)


def test_accessible_depth0_single_arc(rotor_m):
    cloud = accessible_set(rotor_m, rotor_periodic_start(1.0), 0, depth=0)
    assert len(cloud) > 10
    assert set(cloud.depths.tolist()) == {0}
    ok, ncomp = check_connected(cloud, 2 * rotor_m.diameter / 512)
    assert ok and ncomp == 1


def test_accessible_rotor_radius_conserved(rotor_m):
    cloud = accessible_set(rotor_m, rotor_periodic_start(1.0), 0, depth=2)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-8


def test_accessible_monotone_in_depth(systemb_m):
    c1 = accessible_set(systemb_m, [1.5, 0.0], 0, depth=1)
    c2 = accessible_set(systemb_m, [1.5, 0.0], 0, depth=2)
    assert len(c2) > len(c1)
    # the depth-1 cloud is an exact prefix of the depth-2 expansion
    assert np.array_equal(c2.points[: len(c1)], c1.points)


def test_accessible_points_inside_box(systemb_m):
    cloud = accessible_set(systemb_m, [1.5, 0.0], 0, depth=3)
    lo, hi = systemb_m.box
    assert np.all(cloud.points >= lo - 1e-9)
    assert np.all(cloud.points <= hi + 1e-9)


def test_omega_equals_accessible_at_zero_discard(systemb_m):
    a = accessible_set(systemb_m, [1.5, 0.0], 0, depth=2)
    o = omega_limit_estimate(systemb_m, [1.5, 0.0], 0, m_discard=0, depth=2)
    assert np.array_equal(a.points, o.points)


def test_omega_rotor_concentrates_on_invariant_radius(rotor_m):
    x0 = rotor_periodic_start(1.0)
    cloud = omega_limit_estimate(rotor_m, x0, 0, m_discard=2, depth=1)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-8


def test_omega_nested_within_fattened_predecessor(systemb_m):
    delta_s = systemb_m.diameter / 512
    c1 = omega_limit_estimate(systemb_m, [1.5, 0.0], 0, m_discard=1, depth=2)
    c2 = omega_limit_estimate(systemb_m, [1.5, 0.0], 0, m_discard=2, depth=2)
    from scipy.spatial import cKDTree
    d = cKDTree(c1.points).query(c2.points)[0]
    assert d.max() <= 2 * delta_s


def test_check_connected_two_far_clouds():
    pts = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0)])
    pts[:5] += np.linspace(0, 0.01, 5)[:, None]
    pts[5:] += np.linspace(0, 0.01, 5)[:, None]
    cloud = PointCloud(pts, [], np.zeros(10, dtype=int))
    ok, ncomp = check_connected(cloud, 0.1)
    assert not ok and ncomp == 2


def test_systemb_accessible_connected(systemb_m):
    cloud = accessible_set(systemb_m, [1.5, 0.0], 0, depth=3, breadth=64)
    ok, ncomp = check_connected(cloud, 2 * systemb_m.diameter / 512)
    assert ok and ncomp == 1


def test_strict_mode_check_first_vs_second_hit(rotor_m):
    x0 = rotor_periodic_start(1.0)
    from flowrelay.relay import strict_mode_check
    first = simulate(rotor_m, x0, 0, policy=FirstHit(), max_switches=2)
    ok, excess = strict_mode_check(rotor_m, first)
    assert ok and excess <= 1e-9
    second = simulate(rotor_m, x0, 0, policy=NthHit(2), max_switches=1)
    ok2, excess2 = strict_mode_check(rotor_m, second)
    assert not ok2 and excess2 > 1e-3  # sailing through the watched disk
