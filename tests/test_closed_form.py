"""find_periodic against the exact orbits of systemb and the p = 3 triangle.

Both relays are linear spiral sinks with circular boundaries about the foci,
so their return maps are explicit (tests/spiral_relay.py) and the exact
orbit comes from no integrator."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from flowrelay.cli import load_config
from flowrelay.periodic import SolveOptions, continue_levels, find_periodic

from conftest import REPO_ROOT, make_systemb
from spiral_relay import SpiralRelay

SYSTEMB_PERIOD = 6.434876493228312
TRIANGLE_PERIOD = 11.425467788177968
TOL = 1e-9


def _triangle_foci() -> list[tuple[float, float]]:
    # flow i sinks into the center of disk i + 1 (mod 3)
    centers = [(2.0 * math.cos(a), 2.0 * math.sin(a))
               for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                         math.pi / 2 + 4 * math.pi / 3)]
    return [centers[(i + 1) % 3] for i in range(3)]


CASES = {
    "systemb": (make_systemb, [(-1.0, 0.0), (1.0, 0.0)], SYSTEMB_PERIOD),
    "triangle": (lambda: load_config(REPO_ROOT / "perfbench" / "triangle.json"),
                 _triangle_foci(), TRIANGLE_PERIOD),
}


@functools.cache
def _relay(name: str):
    make, foci, period = CASES[name]
    system = make()
    return system, SpiralRelay(foci, system.levels()), period


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_describes_the_system(name):
    # each flow rests at its focus, and boundary i + 1 is the circle of
    # radius rho_{i+1} about focus i
    system, exact, _ = _relay(name)
    for i, c in enumerate(exact.foci):
        assert np.abs(system.flows[i].field(c)).max() < 1e-15
        region = system.chain_region(i + 1)
        assert abs(float(region.f.evaluate(c)) - region.level
                   - exact.rho[i + 1] ** 2) < 1e-15


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_form_orbit_is_the_one_fixed_point(name):
    system, exact, period = _relay(name)
    (start, durations), = exact.fixed_points()
    assert abs(sum(durations) - period) < 1e-12
    for i, t in enumerate(durations):
        assert 0.0 < t < SolveOptions.window_factor * system.flows[i].horizon
    theta = math.atan2(start[1] - exact.foci[-1][1], start[0] - exact.foci[-1][0])
    x0, _, end = exact.chain(theta)
    assert np.abs(end - x0).max() < 1e-12


# the seed settings of the other find_periodic tests, and the reference run's
@pytest.mark.parametrize("name, max_seeds, seed", [
    ("systemb", 4, 1), ("systemb", 6, 2), ("systemb", 4, 3), ("systemb", 32, 7),
    ("triangle", 4, 2), ("triangle", 32, 7)])
def test_find_periodic_finds_the_exact_orbit(name, max_seeds, seed):
    system, exact, _ = _relay(name)
    (start, durations), = exact.fixed_points()
    orbits = find_periodic(system, opts=SolveOptions(max_seeds=max_seeds, seed=seed))
    assert len(orbits) == 1
    orbit = orbits[0]
    assert np.abs(orbit.sv.x - start).max() < TOL
    assert np.abs(orbit.sv.t - durations).max() < TOL
    assert np.abs(np.array(orbit.verification.margins)
                  - exact.margins()).max() < TOL


# continuation correctors stop at |r| <= 1e-9, so their points are looser
# than a full solve
PATH_TOL = 5e-8


@pytest.mark.parametrize("offset_from, offset_to", [(0.02, 0.0), (0.0, 0.2),
                                                    (0.0, 0.24)])
def test_continuation_path_follows_the_exact_orbits(offset_from, offset_to):
    system, exact, _ = _relay("systemb")
    lv_from = np.full(3, offset_from)
    start = find_periodic(system, lv_from, opts=SolveOptions(max_seeds=4, seed=1))
    path = continue_levels(system, start[0].sv, lv_from, np.full(3, offset_to))
    assert len(path.steps) >= 2
    for levels, sv in path.steps:
        (x0, durations), = SpiralRelay(exact.foci, levels).fixed_points()
        assert np.abs(sv.x - x0).max() < PATH_TOL
        assert np.abs(sv.t - durations).max() < PATH_TOL
