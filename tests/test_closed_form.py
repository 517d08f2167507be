"""find_periodic and validate_system against the exact flows of systemb, the
p = 3 triangle and slow spirals.

All three relays are linear spiral sinks with circular boundaries about the
foci, so their flows and return maps are explicit (tests/spiral_relay.py),
and the exact orbits and margins come from no integrator. Slow spirals is
systemb at spiral rate 1/4 with both horizons 8, whose return map has three
fixed points."""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from flowrelay._util import seeded_rng
from flowrelay.cli import load_config
from flowrelay.dynamics import Flow, VectorField
from flowrelay.expr import Expression, Neg
from flowrelay.geometry import (_absorb, _interior_samples, sample_boundary,
                                validate_system)
from flowrelay.periodic import SolveOptions, continue_levels, find_periodic

from conftest import REPO_ROOT, make_systemb
from spiral_relay import SpiralRelay

SYSTEMB_PERIOD = 6.434876493228312
TRIANGLE_PERIOD = 11.425467788177968
TOL = 1e-9
STEP_END_TOL = 3e-11   # validate's margins read at the stepper's last step end


def _triangle_foci() -> list[tuple[float, float]]:
    # flow i sinks into the center of disk i + 1 (mod 3)
    centers = [(2.0 * math.cos(a), 2.0 * math.sin(a))
               for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                         math.pi / 2 + 4 * math.pi / 3)]
    return [centers[(i + 1) % 3] for i in range(3)]


# the relays with one orbit
CASES = {
    "systemb": (make_systemb, [(-1.0, 0.0), (1.0, 0.0)], SYSTEMB_PERIOD),
    "triangle": (lambda: load_config(REPO_ROOT / "perfbench" / "triangle.json"),
                 _triangle_foci(), TRIANGLE_PERIOD),
}
SLOW_SPIRALS = (lambda: load_config(REPO_ROOT / "configs" / "slow_spirals.json"),
                [(-1.0, 0.0), (1.0, 0.0)], None)
RATES = {"slow_spirals": 0.25}   # the spiral rate, where it is not 1/2


@functools.cache
def _relay(name: str):
    make, foci, period = {**CASES, "slow_spirals": SLOW_SPIRALS}[name]
    system = make()
    return system, SpiralRelay(foci, system.levels(), RATES.get(name, 0.5)), period


@pytest.mark.parametrize("name", [*sorted(CASES), "slow_spirals"])
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


# the copies with beta = 2 take their absorb batch from region 1 and
# boundary 1, which a mix-up of the beta - 1 and beta indices would miss
@pytest.mark.parametrize("name, beta", [("systemb", 1), ("triangle", 1),
                                        ("triangle", 2), ("slow_spirals", 1),
                                        ("slow_spirals", 2)])
def test_validate_margins_match_the_closed_form(name, beta):
    # validate_system's samples redrawn from its own streams, flowed by the
    # closed form: entry[k] is region k's worst margin over boundary k - 1
    # at horizon k. absorb[beta] is the smaller of the worst over the
    # interior of region beta - 1 and boundary beta - 1 at horizon beta and
    # the cosine of the field to the inward normal of boundary beta, which
    # is a/sqrt(1 + a^2) all along a circle about the focus of a spiral of
    # rate a. Flow beta's states there are step ends, not interpolated, so
    # absorb[beta] and entry[beta] hold the tighter STEP_END_TOL
    system, exact, _ = _relay(name)
    system = dataclasses.replace(system, beta=beta)
    lv, m = system.levels(), 256

    def worst(k: int, pts: np.ndarray, t: float) -> float:
        states = exact.flow(k - 1, pts, t)
        return float((system.chain_region(k, lv).f.evaluate(states) - lv[k]).min())

    for seed in range(4):
        report = validate_system(system, m=m, seed=seed)
        assert report.passed
        got = {(c.name, c.index): c.margin for c in report.conditions}
        boundary = [sample_boundary(system.chain_region(j, lv), system.box, m,
                                    seeded_rng(seed, "validate", str(j))).points
                    for j in range(system.p + 1)]
        for k in range(1, system.p + 1):
            want = worst(k, boundary[k - 1], system.flows[k - 1].horizon)
            assert abs(got["entry", k] - want) < (STEP_END_TOL if k == beta else TOL)
        interior = _interior_samples(system.chain_region(beta - 1, lv), system.box,
                                     m, seeded_rng(seed, "validate-absorb"))
        pts = np.vstack([interior, boundary[beta - 1]])
        want = min(worst(beta, pts, system.flows[beta - 1].horizon),
                   exact.a / math.sqrt(1.0 + exact.a ** 2))
        assert abs(got["absorb", beta] - want) < STEP_END_TOL


# the cosine a/sqrt(1 + a^2) of each spiral of rate a to the inward normal of
# a circle about its focus
INWARD_COSINES = {"systemb": 0.4472135955, "triangle": 0.4472135955,
                  "slow_spirals": 0.2425356250}


@pytest.mark.parametrize("name", sorted(INWARD_COSINES))
def test_inward_cosines_match_the_closed_form(name):
    # absorb's invariance part alone, from unbounded containment: the least
    # cosine over boundary beta's samples, and, with the field reversed, the
    # negated greatest, both a/sqrt(1 + a^2), so every sample's is
    system, exact, _ = _relay(name)
    b, region = system.beta, system.chain_region(system.beta)
    flow = system.flows[b - 1]
    reverse = Flow(VectorField([Expression(Neg(c.root), c.n)
                                for c in flow.field.components]), flow.horizon)
    want = exact.a / math.sqrt(1.0 + exact.a ** 2)
    assert abs(want - INWARD_COSINES[name]) < 1e-10
    for seed in range(2):
        bs = sample_boundary(region, system.box, 256, seeded_rng(seed, "validate", str(b)))
        least = _absorb(b, math.inf, bs, region, flow)
        greatest = _absorb(b, math.inf, bs, region, reverse)
        assert least.passed and abs(least.margin - want) < 1e-12
        assert not greatest.passed and abs(greatest.margin + want) < 1e-12


# dP/dtheta at each fixed point: systemb, the triangle, and slow spirals'
# outer pair and middle orbit, in the order of their angles about c_{p-1}
SLOPES = {"systemb": [0.0286413195], "triangle": [-0.0315803466],
          "slow_spirals": [0.4784690633, 1.3377090785, 0.4784690633]}


@pytest.mark.parametrize("name", sorted(SLOPES))
def test_slope_matches_a_central_difference(name):
    _, exact, _ = _relay(name)
    fixed = exact.fixed_points()
    assert len(fixed) == len(SLOPES[name])
    h = 1e-6
    for (start, _), want in zip(fixed, SLOPES[name]):
        d = start - exact.foci[-1]
        theta = math.atan2(d[1], d[0])
        slope = exact.slope(theta)
        central = (exact.displacement(theta + h)
                   - exact.displacement(theta - h)) / (2.0 * h) + 1.0
        assert abs(slope - central) < 1e-8
        assert abs(slope - want) < 1e-9


def test_find_periodic_finds_the_three_slow_spiral_orbits():
    system, exact, _ = _relay("slow_spirals")
    orbits = find_periodic(system, opts=SolveOptions(max_seeds=32, seed=7))
    fixed = exact.fixed_points()
    assert len(orbits) == len(fixed) == 3
    nearest = [min(fixed, key=lambda f: np.abs(orbit.sv.x - f[0]).max())
               for orbit in orbits]
    assert len({tuple(start) for start, _ in nearest}) == 3
    for orbit, (start, durations) in zip(orbits, nearest):
        assert np.abs(orbit.sv.x - start).max() < 1e-8
        assert np.abs(orbit.sv.t - durations).max() < 1e-8
        assert abs(orbit.period - sum(durations)) < 1e-8
