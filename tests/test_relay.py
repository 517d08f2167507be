"""Switching simulation semantics, reach clouds, connectivity."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from flowrelay import relay
from flowrelay.dynamics import FlowArc, flow_map, integrate
from flowrelay.errors import NoCrossingWithinHorizon
from flowrelay.relay import (FirstHit, NthHit, PointCloud,
                             RandomHit, _pairs_within, accessible_set,
                             check_connected, simulate)

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


def test_t_max_parks_a_run_that_meets_no_boundary(rotor_m):
    # the radius-2.5 circle never meets boundary 1: the run ends at t_max on
    # the rotated start point instead of failing, on the end of one arc
    x0 = np.array([2.5, 0.0])
    traj = simulate(rotor_m, x0, 0, t_max=5.0)
    assert len(traj.segments) == 1
    assert traj.switches == []
    assert traj.final_time == 5.0
    assert np.allclose(traj.final_state, [2.5 * math.cos(5.0), 2.5 * math.sin(5.0)],
                       atol=1e-8)
    assert np.array_equal(traj.final_state, integrate(rotor_m.flows[0], 5.0, x0).end)
    # past the largest crossing window the run parks at that window's end
    traj = simulate(rotor_m, x0, 0, t_max=100.0)
    cap = relay._WINDOW_GROWTH[-1] * rotor_m.flows[0].horizon
    assert cap == 31.41592653589793
    assert traj.switches == []
    assert traj.final_time == cap


def test_t_max_on_a_switch_time_keeps_that_switch(systemb_m):
    free = simulate(systemb_m, [1.5, 0.0], 0, max_switches=6)
    t3 = free.switches[2].time
    traj = simulate(systemb_m, [1.5, 0.0], 0, t_max=t3)
    assert [s.time for s in traj.switches] == [s.time for s in free.switches[:3]]
    assert len(traj.segments) == 3
    assert traj.final_time == t3


def test_t_max_cuts_the_last_arc(systemb_m):
    traj = simulate(systemb_m, [1.5, 0.0], 0, t_max=20.0)
    last = traj.segments[-1]
    assert len(traj.segments) == len(traj.switches) + 1
    assert last.t0 < 20.0 < last.t0 + traj.segments[-1].arc.duration
    assert np.array_equal(traj.final_state, traj.segments[-1].arc(20.0 - last.t0))


def test_simulate_samples_no_arc(systemb_m, rotor_m, monkeypatch):
    # the benchmark's switching runs stay free of per-segment tables: only
    # the callers that read Segment.samples pay for them
    def refuse(self, taus):
        raise AssertionError("simulate sampled an arc")

    monkeypatch.setattr(FlowArc, "sample", refuse)
    ten = simulate(systemb_m, [1.5, 0.0], 0, max_switches=10)
    assert len(ten.segments) == 10
    cut = simulate(systemb_m, [1.5, 0.0], 0, t_max=20.0)
    assert len(cut.segments) == len(cut.switches) + 1
    assert cut.final_time == 20.0
    nth = simulate(rotor_m, [1.0, 0.0], 0, policy=NthHit(2), max_switches=4)
    assert [s.crossing_index for s in nth.switches] == [1, 1, 1, 1]
    parked = simulate(rotor_m, [2.5, 0.0], 0, t_max=5.0)
    assert parked.switches == [] and parked.final_time == 5.0


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
                                  {"t_max": -1.0}, {"t_max": math.nan},
                                  {"t_max": math.inf}])
def test_simulate_rejects_empty_stop_rule(rotor_m, stop):
    with pytest.raises(ValueError, match="must be"):
        simulate(rotor_m, rotor_periodic_start(1.0), 0, **stop)


@pytest.mark.parametrize("cloud", [accessible_set])
@pytest.mark.parametrize("k0", [-1, 2])
def test_clouds_reject_mode_outside_range(rotor_m, cloud, k0):
    with pytest.raises(ValueError, match="k0"):
        cloud(rotor_m, rotor_periodic_start(1.0), k0)


@pytest.mark.parametrize("bad", [{"depth": -1}, {"breadth": 0},
                                 {"breadth": -3}])
def test_accessible_rejects_empty_expansion(systemb_m, monkeypatch, bad):
    # an expansion with no level or no branch would return an empty cloud
    def unreachable(*args, **kwargs):
        raise AssertionError("integrated before checking depth and breadth")

    monkeypatch.setattr(relay, "integrate", unreachable)
    monkeypatch.setattr(relay, "find_crossings", unreachable)
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        accessible_set(systemb_m, [1.5, 0.0], 0, **bad)


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


def test_accessible_stuck_branch_keeps_one_horizon(rotor_m):
    # no crossing from the radius-2.5 circle: the branch keeps the half turn
    # of one horizon and spawns nothing
    cloud = accessible_set(rotor_m, [2.5, 0.0], 0, depth=1)
    assert set(cloud.depths.tolist()) == {0}
    assert np.abs(np.linalg.norm(cloud.points, axis=1) - 2.5).max() < 1e-8
    assert np.allclose(cloud.points[[0, -1]], [[2.5, 0.0], [-2.5, 0.0]], atol=1e-8)


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


def _omega_points(system, x0, m, d):
    # the omega-limit estimate past m switches, d levels deep
    cloud = accessible_set(system, x0, 0, depth=m + d)
    return cloud.points[cloud.depths >= m]


def test_omega_rotor_concentrates_on_invariant_radius(rotor_m):
    x0 = rotor_periodic_start(1.0)
    points = _omega_points(rotor_m, x0, 2, 1)
    assert len(points) > 10
    radii = np.linalg.norm(points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-8


def test_omega_nested_within_fattened_predecessor(systemb_m):
    delta_s = systemb_m.diameter / 512
    c1 = _omega_points(systemb_m, [1.5, 0.0], 1, 2)
    c2 = _omega_points(systemb_m, [1.5, 0.0], 2, 2)
    d = cKDTree(c1).query(c2)[0]
    assert d.max() <= 2 * delta_s


def test_check_connected_two_far_clouds():
    pts = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0)])
    pts[:5] += np.linspace(0, 0.01, 5)[:, None]
    pts[5:] += np.linspace(0, 0.01, 5)[:, None]
    cloud = PointCloud(pts, [], np.zeros(10, dtype=int))
    ok, ncomp = check_connected(cloud, 0.1)
    assert not ok and ncomp == 2


def _kdtree_connected(cloud: PointCloud, delta: float) -> tuple[bool, int]:
    """check_connected with cKDTree.query_pairs as the neighbour search."""
    parent = list(range(len(cloud)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in list(cloud.edges) + list(cKDTree(cloud.points).query_pairs(delta)):
        parent[find(a)] = find(b)
    roots = {find(i) for i in range(len(cloud))}
    return len(roots) == 1, len(roots)


def _same_pairs_as_kdtree(points: np.ndarray, delta: float) -> None:
    got = _pairs_within(points, delta)
    assert len(set(map(frozenset, got.T.tolist()))) == got.shape[1]
    assert {tuple(sorted(p)) for p in got.T.tolist()} == \
        cKDTree(points).query_pairs(delta)


def test_neighbour_search_matches_query_pairs_on_random_clouds():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, dim = int(rng.integers(1, 200)), int(rng.integers(1, 4))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        pts = rng.uniform(-1.0, 1.0, (n, dim)) * scale
        for rel in (1e-9, 0.02, 0.2, 1.0):
            delta = rel * scale
            _same_pairs_as_kdtree(pts, delta)
            cloud = PointCloud(pts, [], np.zeros(n, dtype=int))
            assert check_connected(cloud, delta) == _kdtree_connected(cloud, delta)


@pytest.mark.parametrize("delta", [0.1, 1.0 / 3.0, 0.7, 1e-3, 2.0**-4])
def test_points_exactly_delta_apart_are_joined(delta):
    # lattice points i*delta: most neighbours lie exactly delta apart, some
    # a rounding error nearer or farther, as query_pairs sees them
    i = np.arange(40) * delta
    line = np.stack([i, np.zeros_like(i)], axis=1)
    grid = np.stack(np.meshgrid(i[:25], i[:25]), axis=-1).reshape(-1, 2)
    for pts in (line, grid, grid + 1e6 * delta):
        _same_pairs_as_kdtree(pts, delta)
        cloud = PointCloud(pts, [], np.zeros(len(pts), dtype=int))
        assert check_connected(cloud, delta) == _kdtree_connected(cloud, delta)
    # a pair at distance exactly delta is joined
    for pair in ([[0.0, 0.0], [delta, 0.0]], [[0.0, -delta], [0.0, 0.0]]):
        cloud = PointCloud(np.array(pair), [], np.zeros(2, dtype=int))
        assert check_connected(cloud, delta) == (True, 1)


def test_check_connected_rejects_nonpositive_delta():
    cloud = PointCloud(np.zeros((2, 2)), [], np.zeros(2, dtype=int))
    for delta in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            check_connected(cloud, delta)


def test_depth5_cloud_connectivity_matches_query_pairs(systemb_m):
    cloud = accessible_set(systemb_m, [1.5, 0.0], 0, depth=5, breadth=64)
    for factor in (0.5, 1.0, 2.0):
        delta = factor * systemb_m.diameter / 512
        _same_pairs_as_kdtree(cloud.points, delta)
        bare = PointCloud(cloud.points, [], cloud.depths)
        for c in (cloud, bare):
            assert check_connected(c, delta) == _kdtree_connected(c, delta)


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
