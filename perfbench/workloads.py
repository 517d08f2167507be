"""The three benchmark workloads: inputs made from a seed, ops, and oracles.

Each op calls the library through the public functions of its modules
(looked up on the module at call time, so the tracer's wrappers see them)
and comes with an oracle that checks its output. ``SETUPS[name](seed)``
loads the configs and makes the op list from the seed; every pass of a run
repeats that list.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from flowrelay import cli, errors, events, geometry, periodic, relay

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One closed-loop call into the library plus the oracle for its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]     # oracle violations; empty means correct
    documented: tuple[type, ...] = ()      # exception types that are documented outcomes
    crossing: bool = False                 # counts toward resolved_frac


@dataclass
class Workload:
    warmup: list[Op]
    ops: list[Op]


def load_systems(*names: str) -> dict:
    paths = {"systemb": ROOT / "configs" / "systemb.json",
             "rotor": ROOT / "configs" / "rotor.json",
             "triangle": HERE / "triangle.json"}
    return {n: cli.load_config(paths[n]) for n in names}


def circle_point(center, radius: float, theta: float) -> np.ndarray:
    return np.array([center[0] + radius * math.cos(theta),
                     center[1] + radius * math.sin(theta)])


def disk(system, j: int):
    """(center, radius) of region j, a disk 'r^2 - |x - c|^2' at level 0."""
    f = system.regions[j].f
    center = f.gradient(np.zeros(2)) / 2.0
    return center, math.sqrt(float(f.evaluate(center)))


# ---------------------------------------------------------------------------
# shoot: multi-seed find_periodic and level continuation
# ---------------------------------------------------------------------------

# systemb's unique periodic orbit, solved at the seed commit (residual 1.4e-15)
SB_REF_START = (1.4977553977614624, 0.04732403194286328)
SB_REF_DURATIONS = (3.217438246582684, 3.2174382465826805)
SB_PERIOD = 6.434876493165365
RESIDUAL_TOL = 1e-8
CLOSURE_TOL = 1e-6
PERIOD_TOL = 1e-6
HAUSDORFF_TOL = 1e-6

SHOOT_DOCUMENTED = (errors.NoConvergence, errors.DegenerateJacobian)
# Newton seeds sit on a fixed grid of boundary-0 angles, neighbours paired
# into one op. The cost of a seed in the hard arc of systemb (angles 2.4..3.3)
# swings between 0.8 s and a 5 s stall with the angle, so seed-drawn angles
# would make the pass time a lottery; the grid keeps one stalling seed
# (angle pi) in every run. The seed draws the continuation offsets.
SB_ANGLES = tuple(2.0 * math.pi * j / 8 for j in range(8))
SB_OP_SEEDS = 2
# rotor: one op per point, its four chain leaves as seeds; one leaf of the
# point at 5*pi/12 stagnates near |r| = 1e-8
ROTOR_ANGLES = (5.0 * math.pi / 12, 3.0 * math.pi / 4)
# continuation: solve at seed-drawn offset levels from one seed, continue
# back to the config levels
CONTINUE_ANGLES = (math.pi / 2,)
CONTINUE_OPS = 12
CONTINUE_OFFSET = 0.02


def chain_seeds(system, point: np.ndarray):
    """Switching vectors completing the chain from a boundary-0 point: one per
    leaf of the crossing tree, searched over find_periodic's default window
    (what its auto seeding does)."""
    lv = system.levels()
    window_factor = periodic.SolveOptions().window_factor
    branches = [(point, ())]
    for k in range(1, system.p + 1):
        flow = system.flows[k - 1]
        nxt = []
        for x, times in branches:
            evs = events.find_crossings(flow, system.chain_region(k, lv),
                                        float(lv[k]), x,
                                        window_factor * flow.horizon)
            nxt.extend((e.point, times + (e.t,)) for e in evs)
        branches = nxt
    return [periodic.SwitchingVector.of(point, t) for _, t in branches]


def _orbit_errors(orbits, period: float) -> list[str]:
    bad = [] if orbits else ["no orbit returned"]
    for o in orbits:
        if not o.residual_norm < RESIDUAL_TOL:
            bad.append(f"residual {o.residual_norm:.2e}")
        if o.verification is None or not o.verification.closure < CLOSURE_TOL:
            bad.append("closure not verified below tolerance")
        if not abs(o.period - period) < PERIOD_TOL:
            bad.append(f"period {o.period!r}, expected {period!r}")
    return bad


def _find_op(system, seeds, period: float, kind: str) -> Op:
    return Op(kind, lambda: periodic.find_periodic(system, seeds=seeds),
              lambda orbits: _orbit_errors(orbits, period), SHOOT_DOCUMENTED)


def _continue_op(system, seeds, levels_from, ref) -> Op:
    levels_to = system.levels()

    def run():
        found = periodic.find_periodic(system, levels_from, seeds=seeds)
        return periodic.continue_levels(system, found[0].sv, levels_from, levels_to)

    def check(path):
        bad = _orbit_errors([path.orbit], SB_PERIOD)
        d = periodic.orbit_hausdorff(system, path.orbit, ref)
        if not d < HAUSDORFF_TOL:
            bad.append(f"continued orbit lies {d:.2e} from the direct orbit")
        return bad
    return Op("shoot.continue", run, check, SHOOT_DOCUMENTED)


def setup_shoot(seed: int) -> Workload:
    systems = load_systems("systemb", "rotor")
    sb, rot = systems["systemb"], systems["rotor"]

    def seeds_at(system, angles):
        return [chain_seeds(system, circle_point(*disk(system, 0), a)) for a in angles]

    sb_seeds = [leaves[0] for leaves in seeds_at(sb, SB_ANGLES)]
    rot_seeds = seeds_at(rot, ROTOR_ANGLES)
    cont_seeds = [leaves[0] for leaves in seeds_at(sb, CONTINUE_ANGLES)]
    ref = periodic.SwitchingVector.of(SB_REF_START, SB_REF_DURATIONS)

    ops = [_find_op(sb, sb_seeds[k:k + SB_OP_SEEDS], SB_PERIOD, "shoot.systemb")
           for k in range(0, len(sb_seeds), SB_OP_SEEDS)]
    ops += [_find_op(rot, leaves, 2.0 * math.pi, "shoot.rotor") for leaves in rot_seeds]
    rng = np.random.default_rng(seed)
    for _ in range(CONTINUE_OPS):
        a, b = rng.uniform(-CONTINUE_OFFSET, CONTINUE_OFFSET, 2)
        # equal first and closing offsets, so the orbit is truly periodic
        ops.append(_continue_op(sb, cont_seeds, sb.levels() + np.array([a, b, a]), ref))
    warmup = [_find_op(sb, cont_seeds[:1], SB_PERIOD, "warmup"),
              _find_op(rot, rot_seeds[-1][:1], 2.0 * math.pi, "warmup")]
    return Workload(warmup, ops)


# ---------------------------------------------------------------------------
# scan: crossing-tree parities, switching simulation, reach clouds
# ---------------------------------------------------------------------------

SCAN_DOCUMENTED = (errors.DegenerateCrossing,)
# Op counts are chosen so that the median op lies inside the cluster of
# systemb forward parities and the tail op inside the triangle simulations;
# an order statistic on the edge between two clusters of unlike ops jumps.
PARITY_FORWARD = 24
PARITY_BACKWARD = 38
SIMULATE_PER_SYSTEM = 15      # policies first, nth:1 and random in turn
ACCESSIBLE_PER_SYSTEM = 2
ACCESSIBLE_DEPTH = {"systemb": 4, "triangle": 3}
# the sink fields cross each boundary once, so nth:2 needs the rotor
ROTOR_NTH_OPS = 2


def _parity_op(system, x, forward: bool) -> Op:
    fn = "forward_leaf_parity" if forward else "backward_leaf_parity"
    expected = 1 if forward else 0

    def check(parity):
        return [] if parity == expected else [f"{fn} {parity}, expected {expected}"]
    return Op("scan.parity", lambda: getattr(events, fn)(system, None, x),
              check, SCAN_DOCUMENTED, crossing=True)


def _simulate_op(system, x0, k0: int, policy, switches: int) -> Op:
    eps_tan = events.DEFAULT_EVENTS.eps_tan
    lv = system.levels()

    def check(traj):
        bad = []
        if len(traj.switches) != switches:
            bad.append(f"{len(traj.switches)} switches, expected {switches}")
        for i, sw in enumerate(traj.switches):
            mode = (k0 + i) % system.p
            if (sw.mode_before, sw.mode_after) != (mode, (mode + 1) % system.p):
                bad.append(f"switch {i}: modes {sw.mode_before}->{sw.mode_after}")
            if not sw.margin > eps_tan:
                bad.append(f"switch {i}: margin {sw.margin:.2e}")
            watch = system.chain_region(sw.mode_after, lv)
            g = abs(float(watch.f.evaluate(sw.point)) - watch.level)
            if not g <= 1e-9:
                bad.append(f"switch {i}: |f - level| = {g:.2e}")
        return bad
    return Op("scan.simulate",
              lambda: relay.simulate(system, x0, k0, policy=policy,
                                     max_switches=switches),
              check, SCAN_DOCUMENTED, crossing=True)


def _accessible_op(system, x0, k0: int, depth: int) -> Op:
    delta = system.diameter / 512.0     # accessible_set's default spacing

    def check(cloud):
        if len(cloud) == 0:
            return ["empty cloud"]
        ok, parts = relay.check_connected(cloud, 2.0 * delta)
        return [] if ok else [f"cloud splits into {parts} parts at 2*delta"]
    return Op("scan.accessible",
              lambda: relay.accessible_set(system, x0, k0, depth=depth),
              check, SCAN_DOCUMENTED, crossing=True)


def _start_outside(rng, system, k0: int) -> np.ndarray:
    """A start point in mode k0, 1.5 to 2.5 from the center of the disk it
    watches (the distance sets how long the first arc spirals in)."""
    center, _ = disk(system, (k0 + 1) % system.p)
    return circle_point(center, rng.uniform(1.5, 2.5), rng.uniform(0.0, 2.0 * math.pi))


def setup_scan(seed: int) -> Workload:
    systems = load_systems("systemb", "triangle", "rotor")
    rng = np.random.default_rng(seed)
    ops = []
    for name in ("systemb", "triangle"):
        system = systems[name]
        center, radius = disk(system, 0)   # boundary 0, and boundary p at level 0
        # an evenly spaced grid at a random phase: the cost of a parity op
        # depends on where on the boundary it starts
        for forward, count in ((True, PARITY_FORWARD), (False, PARITY_BACKWARD)):
            phase = rng.uniform()
            for j in range(count):
                theta = 2.0 * math.pi * (j + phase) / count
                ops.append(_parity_op(system, circle_point(center, radius, theta), forward))
        for j in range(SIMULATE_PER_SYSTEM):
            policy = (relay.FirstHit(), relay.NthHit(1),
                      relay.RandomHit(int(rng.integers(1 << 30))))[j % 3]
            k0 = int(rng.integers(system.p))
            ops.append(_simulate_op(system, _start_outside(rng, system, k0), k0,
                                    policy, 5 * system.p))
        for _ in range(ACCESSIBLE_PER_SYSTEM):
            k0 = int(rng.integers(system.p))
            ops.append(_accessible_op(system, _start_outside(rng, system, k0), k0,
                                      ACCESSIBLE_DEPTH[name]))
    rot = systems["rotor"]
    for _ in range(ROTOR_NTH_OPS):
        # orbit radius inside (0.7, 1.3), where both disks are crossed transversally
        r, phi = rng.uniform(0.8, 1.2), rng.uniform(-math.pi / 3, math.pi / 3)
        ops.append(_simulate_op(rot, circle_point((0.0, 0.0), r, phi), 0,
                                relay.NthHit(2), 3 * rot.p))
    warmup = [_parity_op(systems[name], circle_point(*disk(systems[name], 0), 0.5), True)
              for name in ("systemb", "triangle")]
    warmup.append(_simulate_op(rot, np.array([1.0, 0.0]), 0, relay.NthHit(2), 2))
    return Workload(warmup, ops)


# ---------------------------------------------------------------------------
# sweep: hypothesis validation by batch sampling
# ---------------------------------------------------------------------------

REFERENCE = HERE / "sweep_reference.json"
SWEEP_SYSTEMS = ("systemb", "rotor", "triangle")
# level vectors per system; first and closing offsets equal
SWEEP_LEVELS = {
    "systemb": ((0.0, 0.0, 0.0), (0.02, 0.02, 0.02), (-0.02, 0.01, -0.02)),
    "rotor": ((0.0, 0.0, 0.0), (0.01, 0.01, 0.01), (-0.01, 0.005, -0.01)),
    "triangle": ((0.0, 0.0, 0.0, 0.0), (0.02, 0.02, 0.02, 0.02),
                 (-0.02, 0.01, 0.01, -0.02)),
}
SWEEP_SEEDS = tuple(range(8))
SWEEP_SIZES = (1024, 2048)
# ops per system in one pass, by sample count
SWEEP_MIX = {1024: 8, 2048: 2}
EXPECTED_FAILURES = {"systemb": [], "rotor": [["entry", 2]], "triangle": []}
MARGIN_RTOL = 1e-6
MARGIN_ATOL = 1e-9


def sweep_key(name: str, level_index: int, m: int, vseed: int) -> str:
    return f"{name}/{level_index}/{m}/{vseed}"


def margins_of(report) -> dict[str, float]:
    return {f"{c.name}{c.index}": float(c.margin) for c in report.conditions}


def _validate_op(system, name: str, li: int, m: int, vseed: int, ref: dict) -> Op:
    levels = np.array(SWEEP_LEVELS[name][li])
    want = ref[sweep_key(name, li, m, vseed)]

    def check(report):
        bad = []
        failures = [list(f) for f in report.failures]
        if failures != EXPECTED_FAILURES[name] or failures != want["failures"]:
            bad.append(f"failures {failures}, expected {want['failures']}")
        got = margins_of(report)
        if set(got) != set(want["margins"]):
            bad.append(f"conditions {sorted(got)}, expected {sorted(want['margins'])}")
        for key, value in want["margins"].items():
            if key in got and not abs(got[key] - value) <= MARGIN_ATOL + MARGIN_RTOL * abs(value):
                bad.append(f"{key} margin {got[key]!r}, seed commit {value!r}")
        return bad
    return Op("sweep.validate",
              lambda: geometry.validate_system(system, levels, m=m, seed=vseed),
              check)


def setup_sweep(seed: int) -> Workload:
    systems = load_systems(*SWEEP_SYSTEMS)
    ref = json.loads(REFERENCE.read_text())
    rng = np.random.default_rng(seed)
    ops = []
    for name in SWEEP_SYSTEMS:
        for m, count in SWEEP_MIX.items():
            for _ in range(count):
                li = int(rng.integers(len(SWEEP_LEVELS[name])))
                vseed = int(rng.choice(SWEEP_SEEDS))
                ops.append(_validate_op(systems[name], name, li, m, vseed, ref))
    warmup = [Op("warmup", lambda s=s: geometry.validate_system(s, m=64),
                 lambda report: []) for s in systems.values()]
    return Workload(warmup, ops)


SETUPS = {"shoot": setup_shoot, "scan": setup_scan, "sweep": setup_sweep}
