"""Shooting residual, exact Jacobian, orbit search, continuation, replay."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial import cKDTree

from flowrelay import _dop853, expr, periodic
from flowrelay.cli import load_config
from flowrelay.dynamics import Flow, VectorField, flow_map
from flowrelay._util import seeded_rng
from flowrelay.errors import (ContinuationStalled, DegenerateCrossing,
                              DegenerateJacobian, IntegrationError,
                              NoConvergence, NotInWindow, ReplayMismatch)
from flowrelay.events import _expand_tree, backward_tree, find_crossings, forward_tree
from flowrelay.geometry import Region, RelaySystem, sample_boundary, validate_system
from flowrelay.periodic import (PeriodicOrbit, SolveOptions, SwitchingVector,
                                chain_points, continue_levels, find_periodic,
                                orbit_hausdorff, residual_jacobian, shooting_residual,
                                verify_periodic)
from flowrelay.relay import accessible_set, simulate

from conftest import REPO_ROOT, make_rotor, make_systemb, rotor_periodic_start
from spiral_relay import SpiralRelay
from test_events import _lifted_systemb, _partly_degenerate_rotor


@pytest.fixture(scope="module")
def rotor_m():
    return make_rotor()


@pytest.fixture(scope="module")
def systemb_m():
    return make_systemb()


@pytest.fixture(scope="module")
def systemb_orbit(systemb_m):
    return find_periodic(systemb_m, opts=SolveOptions(max_seeds=4, seed=1))[0]


def rotor_closed_form_sv(radius: float = 1.0) -> SwitchingVector:
    """Exact rotor orbit at the given radius: angles where the radius circle
    meets the two boundaries, durations summing to one full turn."""
    alpha = math.acos((radius * radius + 0.91) / (2 * radius))
    psi = math.acos(-(radius * radius + 0.84) / (2 * radius))
    t1 = psi - alpha
    return SwitchingVector.of(radius * np.array([math.cos(alpha), math.sin(alpha)]),
                              (t1, 2 * math.pi - t1))


def f_along_chain(system, sv: SwitchingVector) -> np.ndarray:
    """(f_0(x_0), ..., f_p(x_p)) along the chain."""
    xs = chain_points(system, sv)
    return np.array([float(system.chain_region(j).f.evaluate(x))
                     for j, x in enumerate(xs)])


def test_level_values_on_boundary_start(systemb_m):
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 1,
                         np.random.default_rng(0))
    sv = SwitchingVector.of(bs.points[0], (1.0, 1.0))
    vals = f_along_chain(systemb_m, sv)
    assert abs(vals[0]) <= 1e-10


def test_level_values_rotor_closed_form(rotor_m):
    vals = f_along_chain(rotor_m, rotor_closed_form_sv())
    assert np.abs(vals).max() < 1e-8


def test_level_values_recomputation_oracle(systemb_m):
    rng = np.random.default_rng(8)
    for _ in range(5):
        sv = SwitchingVector.of(rng.uniform(-1, 1, 2), rng.uniform(0.5, 3.5, 2))
        vals = f_along_chain(systemb_m, sv)
        x1 = flow_map(systemb_m.flows[0], sv.durations[0], sv.x)
        x2 = flow_map(systemb_m.flows[1], sv.durations[1], x1)
        assert vals[0] == pytest.approx(float(systemb_m.regions[0].f.evaluate(sv.x)))
        assert vals[1] == pytest.approx(float(systemb_m.regions[1].f.evaluate(x1)), abs=1e-9)
        assert vals[2] == pytest.approx(float(systemb_m.regions[0].f.evaluate(x2)), abs=1e-9)


def test_chain_rejects_nonpositive_duration(systemb_m):
    with pytest.raises(NotInWindow):
        chain_points(systemb_m, SwitchingVector.of([1.5, 0.0], (0.0, 1.0)))
    with pytest.raises(NotInWindow):
        chain_points(systemb_m, SwitchingVector.of([1.5, 0.0], (1.0, 100.0)))


def test_residual_shape_and_closed_form(rotor_m):
    sv = rotor_closed_form_sv()
    r = shooting_residual(rotor_m, None, sv)
    assert r.shape == (4,)
    assert np.linalg.norm(r) < 1e-8


def test_residual_detects_perturbation(rotor_m):
    sv = rotor_closed_form_sv()
    bad = SwitchingVector.of(sv.start, (sv.durations[0] + 1e-3, sv.durations[1]))
    assert np.linalg.norm(shooting_residual(rotor_m, None, bad)) > 1e-4


def test_residual_jacobian_time_column_is_margin(systemb_m, systemb_orbit):
    orbit = systemb_orbit
    jac = residual_jacobian(systemb_m, None, orbit.sv)
    xs = chain_points(systemb_m, orbit.sv)
    grad = systemb_m.regions[1].f.gradient(xs[1])
    vel = systemb_m.flows[0].field(xs[1])
    assert jac[1, 2] == pytest.approx(float(grad @ vel), rel=1e-9)
    assert jac[0, 2] == 0.0 and jac[0, 3] == 0.0  # row 0 sees no durations


def test_residual_jacobian_linear_flow_analytic(systemb_m):
    av = np.array([[-0.5, -1.0], [1.0, -0.5]])
    c0, c1 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    sv = SwitchingVector.of([1.4, 0.3], (2.0, 2.5))
    t1, t2 = sv.durations
    x0 = sv.x
    e1, e2 = expm(t1 * av), expm(t2 * av)
    x1 = c1 + e1 @ (x0 - c1)
    x2 = c0 + e2 @ (x1 - c0)
    v1 = av @ (x1 - c1)
    v2 = av @ (x2 - c0)
    g0 = -2 * (x0 - c0)
    g1 = -2 * (x1 - c1)
    expected = np.zeros((4, 4))
    expected[0, :2] = g0
    expected[1, :2] = g1 @ e1
    expected[1, 2] = g1 @ v1
    expected[2:, :2] = e2 @ e1 - np.eye(2)
    expected[2:, 2] = e2 @ v1
    expected[2:, 3] = v2
    jac = residual_jacobian(systemb_m, None, sv)
    assert np.abs(jac - expected).max() < 1e-7


def test_residual_jacobian_vs_finite_differences(systemb_m):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(3):
        sv = SwitchingVector.of(rng.uniform(-0.5, 1.5, 2), rng.uniform(1.0, 3.0, 2))
        jac = residual_jacobian(systemb_m, None, sv)
        z = sv.as_vector()
        fd = np.zeros_like(jac)
        for j in range(4):
            zp = z.copy(); zp[j] += h
            zm = z.copy(); zm[j] -= h
            rp = shooting_residual(systemb_m, None, SwitchingVector.of(zp[:2], zp[2:]))
            rm = shooting_residual(systemb_m, None, SwitchingVector.of(zm[:2], zm[2:]))
            fd[:, j] = (rp - rm) / (2 * h)
        assert np.abs(jac - fd).max() / np.abs(jac).max() < 1e-5


def test_find_periodic_rotor_explicit_seeds(rotor_m):
    sv = rotor_closed_form_sv()
    rough = SwitchingVector.of(sv.x + np.array([0.0, 1e-3]),
                               (sv.durations[0] + 0.05, sv.durations[1] - 0.02))
    orbits = find_periodic(rotor_m, seeds=[rough], opts=SolveOptions(seed=0))
    assert len(orbits) == 1
    orb = orbits[0]
    assert abs(orb.period - 2 * math.pi) < 1e-6
    assert orb.verification.closure < 1e-6
    assert min(orb.verification.margins) > 0.1
    # monodromy of a rigid full turn is the identity
    assert np.abs(orb.monodromy - np.eye(2)).max() < 1e-7


def test_find_periodic_empty_explicit_seeds(rotor_m):
    with pytest.raises(NoConvergence):
        find_periodic(rotor_m, seeds=[])


def test_find_periodic_lets_programming_errors_through(rotor_m, monkeypatch):
    # only solver failures may retire a seed; a bug must not read as
    # "no convergence"
    def broken(*args):
        raise TypeError("bug in the linearization")

    monkeypatch.setattr(periodic, "_linearize", broken)
    with pytest.raises(TypeError):
        find_periodic(rotor_m, seeds=[rotor_closed_form_sv()])


def test_find_periodic_skips_a_seed_whose_solve_fails(rotor_m, monkeypatch):
    # the first seed's Newton run raises a solver error: that seed is given
    # up, and the second still gives the orbit
    newton, calls = periodic._newton, []

    def failing_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise IntegrationError("injected seed failure")
        return newton(*args)

    monkeypatch.setattr(periodic, "_newton", failing_first)
    sv = rotor_closed_form_sv()
    orbits = find_periodic(rotor_m, seeds=[sv, sv])
    assert len(calls) == 2 and len(orbits) == 1
    assert abs(orbits[0].period - 2 * math.pi) < 1e-6


def test_find_periodic_fails_when_every_replay_fails(rotor_m, monkeypatch):
    # Newton converges, but no candidate survives its replay
    def mismatch(system, orbit):
        raise ReplayMismatch("injected replay failure")

    monkeypatch.setattr(periodic, "verify_periodic", mismatch)
    with pytest.raises(NoConvergence, match="failed replay verification"):
        find_periodic(rotor_m, seeds=[rotor_closed_form_sv()])


def test_find_periodic_converges_systemb_seed_at_angle_pi(systemb_m):
    # the boundary-0 point at angle pi, on the far side of the disk from the
    # orbit's start: the seed's first chain leaf must still reach the root
    pt = np.array([0.5, 0.0])
    leaf = forward_tree(systemb_m, None, pt).leaves[0]
    orbits = find_periodic(systemb_m, seeds=[SwitchingVector.of(pt, leaf.times)])
    assert orbits[0].residual_norm < 1e-8


def test_far_iterates_take_a_fraction_of_the_fixed_pair_steps(systemb_m,
                                                              monkeypatch):
    # the angle-pi seed starts far from the orbit: against one run with the
    # coarse pair set to the fixed one, it takes at most 70 % of the
    # variational steps and the same Jacobians, and lands on the same orbit;
    # each switching vector is linearized once, at one pair
    pt = np.array([0.5, 0.0])
    seed = SwitchingVector.of(pt, forward_tree(systemb_m, None, pt).leaves[0].times)
    steps = _variational_steps(monkeypatch)
    calls = _count_jacobians(monkeypatch)
    linearize, linearized = periodic._linearize, []

    def recorded(system, levels, sv, *coarse):
        linearized.append(sv.as_vector().tobytes())
        return linearize(system, levels, sv, *coarse)

    monkeypatch.setattr(periodic, "_linearize", recorded)
    runs = []
    for coarse in (_dop853.COARSE, (_dop853.RTOL, _dop853.ATOL)):
        monkeypatch.setattr(_dop853, "COARSE", coarse)
        steps.clear()
        calls["jacobian"] = 0
        linearized.clear()
        orbit, = find_periodic(systemb_m, seeds=[seed])
        assert len(set(linearized)) == len(linearized) <= 2 * periodic._MAX_ITER + 5
        runs.append((orbit.sv.as_vector(), dict(steps), calls["jacobian"]))
    (z, two, jacobians), (z_base, base, jacobians_base) = runs
    assert len(two) == 2 and len(base) == 1
    assert sum(two.values()) <= 0.7 * sum(base.values())
    assert jacobians == jacobians_base
    assert np.abs(z - z_base).max() <= 1e-10


def test_hopeless_seed_work_is_bounded(rotor_m, monkeypatch):
    # linearized chains (the start and each trial) and Jacobian factorizations
    calls = {"linearize": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(periodic, "_linearize",
                        counted("linearize", periodic._linearize))
    monkeypatch.setattr(periodic, "_jacobian",
                        counted("jacobian", periodic._jacobian))
    with pytest.raises(NoConvergence):
        find_periodic(rotor_m, seeds=[SwitchingVector.of([0, 0.05], (0.01, 6.2))])
    assert 0 < calls["jacobian"] <= periodic._MAX_ITER
    assert 0 < calls["linearize"] <= 2 * periodic._MAX_ITER + 5


@pytest.mark.parametrize("make", [
    make_systemb, make_rotor,
    lambda: load_config(REPO_ROOT / "configs" / "slow_spirals.json")],
    ids=["systemb", "rotor", "slow spirals"])
def test_residual_norm_is_the_public_residual_of_each_orbit(make):
    # Newton reads its residuals from the linearized chains; the reported
    # norm is the plain chain's at the solved vector, bit for bit
    system = make()
    orbits = find_periodic(system, opts=SolveOptions(max_seeds=32, seed=7))
    assert orbits
    for orbit in orbits:
        r = shooting_residual(system, orbit.levels, orbit.sv)
        assert orbit.residual_norm == float(np.linalg.norm(r)) <= 1e-9


def _bits(arrays) -> list[bytes]:
    return [np.asarray(a, float).tobytes() for a in arrays]


@pytest.mark.parametrize("make", [
    make_systemb, make_rotor,
    lambda: load_config(REPO_ROOT / "perfbench" / "triangle.json"),
    lambda: load_config(REPO_ROOT / "configs" / "slow_spirals.json"),
    _lifted_systemb],
    ids=["systemb", "rotor", "triangle", "slow spirals", "lifted systemb"])
def test_linearized_chain_is_the_plain_chain_bit_for_bit(make):
    # a variational leg controls its error on the n state entries alone, so
    # it takes the plain leg's steps: Newton's chain points and residual are
    # chain_points and shooting_residual, bit for bit, at random in-window
    # switching vectors and at the orbits found
    system = make()
    lv = system.levels()
    rng = np.random.default_rng(41)
    box = np.asarray(system.box, float)
    window = SolveOptions.window_factor * np.array([f.horizon for f in system.flows])
    svs = [SwitchingVector.of(rng.uniform(box[0], box[1]),
                              window * rng.uniform(0.01, 1.0, system.p))
           for _ in range(40)]
    svs += [o.sv for o in find_periodic(system, opts=SolveOptions(max_seeds=8, seed=7))]
    for sv in svs:
        lin = periodic._linearize(system, lv, sv)
        assert _bits(lin.xs) == _bits(chain_points(system, sv))
        assert _bits([lin.r]) == _bits([shooting_residual(system, lv, sv)])


def _variational_steps(monkeypatch) -> Counter:
    """Accepted variational steps (the legs with controlled entries) per
    tolerance pair, counted by wrapping _dop853.solve."""
    steps, solve = Counter(), _dop853.solve

    def counted(fun, t_end, y0, solout, *, controlled=None,
                tols=(_dop853.RTOL, _dop853.ATOL)):
        if controlled is not None:
            def solout(t, t_new, y, row):
                steps[tols] += 1
        return solve(fun, t_end, y0, solout, controlled=controlled, tols=tols)

    monkeypatch.setattr(_dop853, "solve", counted)
    return steps


@pytest.mark.parametrize("make", [
    make_systemb, make_rotor,
    lambda: load_config(REPO_ROOT / "perfbench" / "triangle.json"),
    lambda: load_config(REPO_ROOT / "configs" / "slow_spirals.json")],
    ids=["systemb", "rotor", "triangle", "slow spirals"])
def test_no_coarse_number_reaches_a_report(make, monkeypatch):
    # far iterates steer on coarse chains, but an orbit is packaged from a
    # fixed-pair linearization at its switching vector: its monodromy is
    # that linearization's leg product and its residual_norm the public
    # residual, bit for bit
    system = make()
    lv = system.levels()
    steps = _variational_steps(monkeypatch)
    orbits = find_periodic(system, opts=SolveOptions(max_seeds=8, seed=7))
    assert orbits and steps[_dop853.COARSE] > 0
    for orbit in orbits:
        monodromy = np.eye(system.n)
        for a in periodic._linearize(system, lv, orbit.sv).mats:
            monodromy = a @ monodromy
        assert _bits([orbit.monodromy]) == _bits([monodromy])
        r = shooting_residual(system, lv, orbit.sv)
        assert orbit.residual_norm == float(np.linalg.norm(r)) <= 1e-9


def test_lifted_relay_monodromy_is_the_exact_transverse_contraction():
    # x3' = -x3 under both flows and the orbit lies in x3 = 0: the monodromy
    # splits off the x3 direction, whose modulus is e^-period exactly, so
    # the matrix entries riding on the state's steps keep their accuracy
    system = _lifted_systemb()
    orbit, = find_periodic(system, opts=SolveOptions(max_seeds=8, seed=7))
    assert abs(orbit.sv.start[2]) <= 1e-12
    m = orbit.monodromy
    assert not m[2, :2].any() and not m[:2, 2].any()
    assert abs(m[2, 2] / math.exp(-orbit.period) - 1) <= 1e-9


def test_newton_counts_a_failed_trial_as_a_rejection(rotor_m, monkeypatch):
    # the first trial's integration fails: Newton raises the damping and
    # tries again instead of giving the seed up
    calls = []
    linearize = periodic._linearize

    def failing_once(*args):
        calls.append(1)
        if len(calls) == 2:
            raise IntegrationError("injected trial failure")
        return linearize(*args)

    monkeypatch.setattr(periodic, "_linearize", failing_once)
    sv = rotor_closed_form_sv()
    rough = SwitchingVector.of(sv.x + np.array([0.0, 1e-3]),
                               (sv.durations[0] + 0.05, sv.durations[1] - 0.02))
    res = periodic._newton(rotor_m, rotor_m.levels(), rough, periodic._MAX_ITER)
    assert res.converged
    assert len(calls) > 2


def _stacked_step(jac: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """The damped step as the least-squares solve [J; sqrt(mu*s) I] dz = [-r; 0],
    s = trace(J^T J)/(n+p): minimum norm at mu = 0."""
    m = len(r)
    scale = float(np.trace(jac.T @ jac)) / m
    aug = np.vstack([jac, math.sqrt(mu * scale) * np.eye(m)])
    return np.linalg.lstsq(aug, np.concatenate([-r, np.zeros(m)]), rcond=None)[0]


def _rejected_trials(monkeypatch, system, seed, jac=None, r0=None):
    """Run _newton from seed with every trial worse than the start, and
    return the Jacobians it computed (jac, when given, replaces each), the
    start residual (r0, when given, replaces it), the steps it tried and
    its result."""
    linearize, jacobian = periodic._linearize, periodic._jacobian
    points, jacs = [], []

    def worse(system, levels, sv):
        points.append(sv.as_vector())
        if len(points) == 1:
            worse.lin0 = linearize(system, levels, sv)
            if r0 is not None:
                worse.lin0 = replace(worse.lin0, r=r0)
            return worse.lin0
        return replace(worse.lin0, sv=sv, r=2.0 * worse.lin0.r)

    def recorded(*args):
        jacs.append(jacobian(*args) if jac is None else jac)
        return jacs[-1]

    monkeypatch.setattr(periodic, "_linearize", worse)
    monkeypatch.setattr(periodic, "_jacobian", recorded)
    res = periodic._newton(system, system.levels(), seed, periodic._MAX_ITER)
    z0, *tried = points
    return jacs, worse.lin0.r, [z - z0 for z in tried], res


def _rough_systemb_seed(orbit) -> SwitchingVector:
    sv = orbit.sv
    return SwitchingVector.of(sv.x + np.array([0.0, 1e-3]),
                              (sv.durations[0] + 0.05, sv.durations[1] - 0.02))


LADDER = (0.0, 1e-2, 1e-1, 1.0)


def test_each_newton_iterate_is_integrated_once(systemb_m, systemb_orbit,
                                                monkeypatch):
    # one seed: the start and every trial flow their chain once, with the
    # variational equations, and the plain chain is flowed once per orbit
    # packaged, for its public residual
    counts = {"flow_map": 0, "flow_map_with_jacobian": 0}
    linearized = []
    linearize = periodic._linearize

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def recorded(system, levels, sv):
        linearized.append(sv.as_vector().tobytes())
        return linearize(system, levels, sv)

    for name in counts:
        monkeypatch.setattr(periodic, name, counted(name, getattr(periodic, name)))
    monkeypatch.setattr(periodic, "_linearize", recorded)
    orbits = find_periodic(systemb_m, seeds=[_rough_systemb_seed(systemb_orbit)])
    trials = len(linearized) - 1
    assert len(orbits) == 1 and trials > 0
    assert len(set(linearized)) == len(linearized)
    assert counts["flow_map_with_jacobian"] == systemb_m.p * (1 + trials)
    assert counts["flow_map"] == systemb_m.p * len(orbits)


def test_newton_gives_a_seed_up_after_four_rejected_rungs(systemb_m, systemb_orbit,
                                                          monkeypatch):
    # every trial is worse than the start: one Jacobian, then one trial on
    # each rung mu = 0, 1e-2, 1e-1, 1 of the ladder, and the seed is given up
    seed = _rough_systemb_seed(systemb_orbit)
    jacs, r0, steps, res = _rejected_trials(monkeypatch, systemb_m, seed)
    assert not res.converged and res.sv == seed
    assert len(jacs) == 1
    assert len(steps) == len(LADDER)
    for mu, step in zip(LADDER, steps):
        want = _stacked_step(jacs[0], r0, mu)
        assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want)


def _translation_relay() -> RelaySystem:
    """Two equal unit translations: x_2 - x_0 = (t_1 + t_2, 0) never
    vanishes, and with identity leg Jacobians the x2 closure row of the
    shooting Jacobian is zero at every iterate."""
    drift = VectorField([expr.parse("1", 2), expr.parse("0", 2)])
    return RelaySystem(
        n=2, p=2, flows=(Flow(drift, horizon=1.0), Flow(drift, horizon=1.0)),
        regions=(Region(expr.parse("-x1", 2), index=0),
                 Region(expr.parse("x1 - 1", 2), index=1)),
        box=[[-2.0, -2.0], [2.0, 2.0]])


def _test_jacobians() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(5)
    full = rng.standard_normal((4, 4))
    rank_two = full.copy()
    rank_two[:, 2:] = full[:, :2]  # two equal column pairs
    return {
        "full rank": full,
        "rank deficient": rank_two,
        "zero row": residual_jacobian(_translation_relay(), None,
                                      SwitchingVector.of([0.0, 0.0], (1.0, 1.0))),
    }


@pytest.mark.parametrize("kind", ["full rank", "rank deficient", "zero row"])
def test_svd_steps_match_the_stacked_least_squares_solve(systemb_m, systemb_orbit,
                                                         monkeypatch, kind):
    # the trials from one SVD of J are the stacked lstsq solutions on every
    # rung, and the degeneracy flag is the condition-number test
    jac = _test_jacobians()[kind]
    r0 = 1e-3 * np.random.default_rng(6).standard_normal(4)
    seed = _rough_systemb_seed(systemb_orbit)
    _, _, steps, res = _rejected_trials(monkeypatch, systemb_m, seed, jac, r0)
    assert len(steps) == len(LADDER)
    for mu, step in zip(LADDER, steps):
        want = _stacked_step(jac, r0, mu)
        assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want), mu
    assert res.degenerate == (np.linalg.cond(jac) > periodic._COND_LIMIT)


@pytest.mark.parametrize("small", [1e-3, 1e-11, 1e-13, 0.0])
def test_degeneracy_flag_is_the_condition_number_test(systemb_m, systemb_orbit,
                                                      monkeypatch, small):
    rng = np.random.default_rng(7)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    jac = q1 @ np.diag([2.0, 1.0, 0.5, small]) @ q2
    seed = _rough_systemb_seed(systemb_orbit)
    _, _, _, res = _rejected_trials(monkeypatch, systemb_m, seed, jac,
                                    np.full(4, 1e-3))
    assert res.degenerate == (np.linalg.cond(jac) > periodic._COND_LIMIT)


def test_singular_relay_raises_degenerate_jacobian():
    relay = _translation_relay()
    sv = SwitchingVector.of([0.0, 0.0], (1.0, 1.0))
    assert np.abs(residual_jacobian(relay, None, sv)[3]).max() == 0.0
    with pytest.raises(DegenerateJacobian):
        find_periodic(relay, seeds=[sv])


@pytest.mark.parametrize("levels", [[0.0, 0.0, 0.01], [0.01, 0.0, 0.0]])
def test_unequal_closing_level_rejected_before_solving(rotor_m, monkeypatch,
                                                       levels):
    def unreachable(*args):
        raise AssertionError("Newton ran")

    monkeypatch.setattr(periodic, "_newton", unreachable)
    sv = rotor_closed_form_sv()
    with pytest.raises(ValueError, match="closing level"):
        find_periodic(rotor_m, levels, seeds=[sv])
    with pytest.raises(ValueError, match="closing level"):
        continue_levels(rotor_m, sv, rotor_m.levels(), levels)
    # no orbit exists at the start of a path from such offsets either
    with pytest.raises(ValueError, match="closing level"):
        continue_levels(rotor_m, sv, levels, rotor_m.levels())


def test_find_periodic_systemb_small(systemb_m):
    orbits = find_periodic(systemb_m, opts=SolveOptions(max_seeds=6, seed=2))
    assert len(orbits) >= 1
    orb = orbits[0]
    assert orb.residual_norm < 1e-8
    assert orb.verification.closure < 1e-6
    assert min(orb.verification.margins) > 1e-6
    # the symmetric relay has equal legs
    assert abs(orb.sv.durations[0] - orb.sv.durations[1]) < 1e-6
    # chain end returns to the start
    assert np.abs(chain_points(systemb_m, orb.sv)[-1] - orb.sv.x).max() < 1e-8


def test_find_periodic_deterministic(systemb_m):
    a = find_periodic(systemb_m, opts=SolveOptions(max_seeds=4, seed=3))
    b = find_periodic(systemb_m, opts=SolveOptions(max_seeds=4, seed=3))
    assert len(a) == len(b)
    for oa, ob in zip(a, b):
        assert oa.sv == ob.sv
        assert orbit_hausdorff(systemb_m, oa, ob) < 1e-6


def _kdtree_hausdorff(system, a: SwitchingVector, b: SwitchingVector) -> float:
    pa, pb = periodic.orbit_points(system, a), periodic.orbit_points(system, b)
    return float(max(cKDTree(pb).query(pa)[0].max(),
                     cKDTree(pa).query(pb)[0].max()))


def test_orbit_hausdorff_matches_kdtree(systemb_m, systemb_orbit, rotor_m):
    sv = systemb_orbit.sv
    pairs = [(systemb_m, sv, SwitchingVector.of(sv.x + shift, sv.durations))
             for shift in ([1e-9, 0.0], [0.0, -1e-6], [2e-3, 1e-3])]
    pairs += [(systemb_m, sv, sv),
              (rotor_m, rotor_closed_form_sv(1.0), rotor_closed_form_sv(0.9)),
              (rotor_m, rotor_closed_form_sv(1.0), rotor_closed_form_sv(1.0 + 1e-7))]
    for system, a, b in pairs:
        want = _kdtree_hausdorff(system, a, b)
        assert orbit_hausdorff(system, a, b) == want
        assert orbit_hausdorff(system, b, a) == want
    assert orbit_hausdorff(systemb_m, sv, sv) == 0.0


def _result(start, durations) -> periodic._NewtonResult:
    return periodic._NewtonResult(SwitchingVector.of(start, durations), lin=None,
                                  converged=True, on_clamp=False,
                                  degenerate=False)


def test_dedup_merges_switching_vectors_within_tolerance():
    a = _result([1.0, 0.0], (2.0, 3.0))
    near = _result([1.0, 1e-7], (2.0, 3.0))
    far = _result([1.0, 0.0], (2.0, 3.0 + 1e-3))
    b = _result([0.5, 0.5], (1.0, 1.0))
    assert periodic._dedup([a, near, far, b]) == [a, far, b]
    assert periodic._dedup([far, a, near]) == [far, a]
    assert periodic._dedup([]) == []


def test_rotor_circle_switched_at_either_end_is_two_orbits(rotor_m):
    # one curve, the radius-1 circle, switched at its upper and at its lower
    # boundary intersections: two switching vectors, so two orbits (the
    # sampled curves differ by 7.5e-3 in Hausdorff distance too)
    seeds = [SwitchingVector.of([0.955, 0.29661], (2.4379, 3.8453)),
             SwitchingVector.of([0.955, -0.29661], (3.8453, 2.4379))]
    orbits = find_periodic(rotor_m, seeds=seeds)
    assert len(orbits) == 2
    for orb in orbits:
        assert abs(orb.period - 2 * math.pi) < 1e-6
        assert abs(np.linalg.norm(orb.sv.x) - 1.0) < 1e-3
    assert {np.sign(orb.sv.x[1]) for orb in orbits} == {-1.0, 1.0}


def test_find_periodic_samples_no_orbit_curves(rotor_m, monkeypatch):
    calls = []
    orbit_points = periodic.orbit_points

    def counted(*args):
        calls.append(args)
        return orbit_points(*args)

    monkeypatch.setattr(periodic, "orbit_points", counted)
    orbits = find_periodic(rotor_m, opts=SolveOptions(max_seeds=32, seed=7))
    assert len(orbits) == 30
    assert len(calls) == 0


def test_auto_seeds_skip_a_degenerate_sample_and_go_on():
    system = _partly_degenerate_rotor()
    lv, opts = system.levels(), SolveOptions(max_seeds=12, seed=0)
    drawn = sample_boundary(system.chain_region(0, lv), system.box, 12,
                            seeded_rng(0, "find-periodic"))
    degenerate = []
    for i, pt in enumerate(drawn.points):
        try:
            _expand_tree(system, lv, pt, True, SolveOptions.window_factor)
        except DegenerateCrossing:
            degenerate.append(i)
    assert 0 < len(degenerate) < len(drawn)
    seeds = periodic._auto_seeds(system, lv, opts)
    starts = [sv.x.tolist() for sv in seeds]
    assert len(seeds) == 12
    assert not any(drawn.points[i].tolist() in starts for i in degenerate)
    # seeds from a sample drawn after the first degenerate one: the loop
    # went on past it
    assert any(pt in starts for pt in drawn.points[degenerate[0] + 1:].tolist())


def test_tree_leaves_are_consistent_switching_vectors(systemb_m):
    lv = systemb_m.levels()
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 2,
                         np.random.default_rng(4))
    for pt in bs.points:
        tree = forward_tree(systemb_m, lv, pt)
        for leaf in tree.leaves:
            sv = SwitchingVector.of(pt, leaf.times)
            assert np.abs(f_along_chain(systemb_m, sv) - lv).max() <= 1e-8
    bsp = sample_boundary(systemb_m.chain_region(2), systemb_m.box, 2,
                          np.random.default_rng(4))
    for pt in bsp.points:
        tree = backward_tree(systemb_m, lv, pt)
        for leaf in tree.leaves:
            sv = SwitchingVector.of(leaf.point, tuple(reversed(leaf.times)))
            assert np.abs(chain_points(systemb_m, sv)[-1] - pt).max() <= 1e-7


def test_verify_rejects_corrupted_orbit(systemb_m, systemb_orbit):
    orb = systemb_orbit
    bad_sv = SwitchingVector.of(orb.sv.start,
                                (orb.sv.durations[0] + 0.01, orb.sv.durations[1]))
    corrupted = PeriodicOrbit(bad_sv, orb.levels, orb.residual_norm,
                              orb.monodromy)
    with pytest.raises(ReplayMismatch):
        verify_periodic(systemb_m, corrupted)


def test_verify_rejects_a_leg_without_crossings(rotor_m):
    # rotor's radius-2.5 circle never meets boundary 1
    orbit = PeriodicOrbit(SwitchingVector.of([2.5, 0.0], (1.0, 1.0)),
                          rotor_m.levels(), 0.0, np.eye(2))
    with pytest.raises(ReplayMismatch, match="no crossings on leg 1"):
        verify_periodic(rotor_m, orbit)


def test_verify_replays_a_rotor_member_near_the_tangent_circle(rotor_m):
    # a member of rotor's neutral family 1e-6 from the radius-0.7 circle,
    # which touches boundary 0: g is nearly flat where leg 2 ends, and
    # Newton steps that stay inside the bracket converge there only with
    # the polish's bisection of steps that do not halve
    sv = SwitchingVector.of((0.7000009295772026, 0.0007467708861603353),
                            (2.822963891515505, 3.4602214157617723))
    orbit = PeriodicOrbit(sv, rotor_m.levels(), 0.0, np.eye(2))
    report = verify_periodic(rotor_m, orbit)
    assert report.matched_indices == (0, 1)
    assert report.margins == pytest.approx((0.43715, 0.0014936), rel=1e-4)
    assert report.closure < 1e-7


def test_verify_rejects_unequal_closing_level(systemb_m, systemb_orbit):
    shifted = replace(systemb_orbit, levels=np.array([0.0, 0.0, 0.01]))
    with pytest.raises(ValueError, match="closing level"):
        verify_periodic(systemb_m, shifted)


def test_continuation_trivial_path(systemb_m, systemb_orbit):
    orb = systemb_orbit
    lv = systemb_m.levels()
    path = continue_levels(systemb_m, orb.sv, lv, lv)
    assert len(path.steps) == 1
    assert path.steps[0][1] == orb.sv


def test_continuation_small_shift_and_back(systemb_m, systemb_orbit):
    orb = systemb_orbit
    lv0 = systemb_m.levels()
    lv1 = lv0 + 0.01
    out = continue_levels(systemb_m, orb.sv, lv0, lv1)
    assert np.abs(out.orbit.levels - lv1).max() == 0.0
    back = continue_levels(systemb_m, out.orbit.sv, lv1, lv0)
    assert orbit_hausdorff(systemb_m, back.orbit, orb) < 1e-6


def test_continuation_ends_exactly_on_the_target_levels(systemb_m):
    # the last step lands on levels_to itself, not on lv_a + 1.0*(lv_b - lv_a),
    # and the orbit returned is that step's corrector solution
    lv0, lv1 = np.full(3, 0.02), np.full(3, -0.01)
    start = find_periodic(systemb_m, lv0, opts=SolveOptions(max_seeds=4, seed=1))
    path = continue_levels(systemb_m, start[0].sv, lv0, lv1)
    assert path.steps[-1][0].tolist() == [-0.01, -0.01, -0.01]
    assert path.steps[-1][1] == path.orbit.sv
    assert path.orbit.levels.tolist() == [-0.01, -0.01, -0.01]
    rnorm = float(np.linalg.norm(shooting_residual(systemb_m, lv1, path.orbit.sv)))
    assert path.orbit.residual_norm == rnorm <= 1e-9


def _closed_form_legs(offset: float) -> list[float]:
    """Leg durations of systemb's one orbit with every level offset equal."""
    (_, durations), = SpiralRelay([(-1.0, 0.0), (1.0, 0.0)],
                                  np.full(3, offset)).fixed_points()
    return durations


def test_continuation_stalls_at_the_duration_window(systemb_m, systemb_orbit):
    # on 0 -> 0.26 the disks vanish only at s = 0.25 / 0.26 = 0.9615; the
    # stall comes first, where the orbit's longer leg reaches the duration
    # window, found here by bisecting the closed form
    orb = systemb_orbit
    lv0 = systemb_m.levels()
    with pytest.raises(ContinuationStalled, match=r"s=0\.9561") as exc:
        continue_levels(systemb_m, orb.sv, lv0, np.full(3, 0.26))
    assert len(exc.value.path) >= 1
    window = SolveOptions.window_factor * systemb_m.flows[0].horizon
    assert window == 8.0
    lo, hi = 0.0, 0.25 / 0.26
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if max(_closed_form_legs(0.26 * mid)) < window:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 0.956352) < 1e-6
    levels, sv = exc.value.path[-1]
    s = levels[0] / 0.26
    assert lo - 1.0 / 1024.0 < s < lo
    assert all(7.9 < d < window for d in sv.durations)


def _count_jacobians(monkeypatch) -> dict:
    calls = {"jacobian": 0}
    jacobian = periodic._jacobian

    def counted(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    monkeypatch.setattr(periodic, "_jacobian", counted)
    return calls


def test_continuation_grows_its_step_on_an_easy_path(systemb_m, systemb_orbit,
                                                     monkeypatch):
    # the corrector over the whole of 0.02 -> 0 or 0.1 -> 0 converges, so
    # the first step is the last: the path is its start and the direct orbit
    calls = _count_jacobians(monkeypatch)
    for offset, jacobians in ((0.02, 3), (0.1, 5)):
        lv0 = np.full(3, offset)
        start = find_periodic(systemb_m, lv0,
                              opts=SolveOptions(max_seeds=4, seed=1))
        calls["jacobian"] = 0
        path = continue_levels(systemb_m, start[0].sv, lv0, systemb_m.levels())
        assert len(path.steps) == 2
        assert calls["jacobian"] <= jacobians
        gap = path.orbit.sv.as_vector() - systemb_orbit.sv.as_vector()
        assert np.abs(gap).max() < 1e-9


def test_continuation_stall_work_is_bounded(systemb_m, systemb_orbit,
                                            monkeypatch):
    # a corrector that needs more than a few Jacobians halves the step
    calls = _count_jacobians(monkeypatch)
    with pytest.raises(ContinuationStalled):
        continue_levels(systemb_m, systemb_orbit.sv, systemb_m.levels(),
                        np.full(3, 0.26))
    assert calls["jacobian"] <= 150


def test_continuation_refused_steps_reuse_the_predictor_jacobian(
        systemb_m, systemb_orbit, monkeypatch):
    # a refused step retries from the same point, where the tangent is
    # linear in the level step: no Jacobian of the stall is computed twice
    # at one (levels, switching vector). After a refusal the step never
    # grows back to the refused size (105 Jacobians without that cap)
    jacobian = periodic._jacobian
    keys = []

    def keyed(system, levels, lin):
        keys.append((np.asarray(levels).tobytes(), lin.sv.as_vector().tobytes()))
        return jacobian(system, levels, lin)

    monkeypatch.setattr(periodic, "_jacobian", keyed)
    with pytest.raises(ContinuationStalled, match=r"s=0\.9561") as exc:
        continue_levels(systemb_m, systemb_orbit.sv, systemb_m.levels(),
                        np.full(3, 0.26))
    assert len(exc.value.path) == 8
    assert len(keys) == len(set(keys)) == 90


def test_continuation_refuses_a_corrector_far_from_its_predictor(
        systemb_m, systemb_orbit, monkeypatch):
    # the first corrector converges to a point 0.1 from its predictor, much
    # farther than the predictor moved: the step is halved and retried
    newton = periodic._newton
    far = []

    def jumping(system, levels, sv, max_iter):
        res = newton(system, levels, sv, max_iter)
        if not far:
            far.append(SwitchingVector.of(res.sv.x + 0.1, res.sv.durations))
            return replace(res, sv=far[0])
        return res

    monkeypatch.setattr(periodic, "_newton", jumping)
    lv0 = systemb_m.levels()
    path = continue_levels(systemb_m, systemb_orbit.sv, lv0, lv0 + 0.01)
    assert all(sv != far[0] for _, sv in path.steps)
    assert path.steps[1][0].tolist() == (lv0 + 0.01 / 2).tolist()


def test_continuation_halves_the_step_when_a_corrector_raises(
        systemb_m, systemb_orbit, monkeypatch):
    # the first corrector fails with a solver error: the step is halved and
    # retried, not the whole continuation given up
    newton, calls = periodic._newton, []

    def failing_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise IntegrationError("injected corrector failure")
        return newton(*args)

    monkeypatch.setattr(periodic, "_newton", failing_first)
    lv0 = systemb_m.levels()
    path = continue_levels(systemb_m, systemb_orbit.sv, lv0, lv0 + 0.01)
    assert path.steps[1][0].tolist() == (lv0 + 0.01 / 2).tolist()
    assert path.steps[-1][0].tolist() == (lv0 + 0.01).tolist()


# every call that takes a switching vector, as call(system, sv)
_TAKERS_OF_SWITCHING_VECTORS = {
    "chain_points": lambda s, sv: chain_points(s, sv),
    "shooting_residual": lambda s, sv: shooting_residual(s, None, sv),
    "residual_jacobian": lambda s, sv: residual_jacobian(s, None, sv),
    "find_periodic": lambda s, sv: find_periodic(s, seeds=[sv]),
    "continue_levels": lambda s, sv: continue_levels(
        s, sv, s.levels(), s.levels() + 0.01),
    "verify_periodic": lambda s, sv: verify_periodic(
        s, PeriodicOrbit(sv, s.levels(), 0.0, np.eye(2))),
    "orbit_points": lambda s, sv: periodic.orbit_points(s, sv),
    "orbit_hausdorff": lambda s, sv: orbit_hausdorff(s, sv, sv),
}


@pytest.mark.parametrize("name", sorted(_TAKERS_OF_SWITCHING_VECTORS))
def test_switching_vector_shape_checked_before_integrating(systemb_m,
                                                           monkeypatch, name):
    # systemb has n = 2 and p = 2: one or three durations, or a 3-D start,
    # fail at the door with ValueError instead of being sliced or broadcast
    def unreachable(*args, **kwargs):
        raise AssertionError("integrated before checking the switching vector")

    for fn in ("flow_map", "flow_map_with_jacobian", "integrate",
               "find_crossings"):
        monkeypatch.setattr(periodic, fn, unreachable)
    call = _TAKERS_OF_SWITCHING_VECTORS[name]
    for bad in (SwitchingVector.of([1.5, 0.0], (2.0,)),
                SwitchingVector.of([1.5, 0.0], (2.0, 2.0, 2.0)),
                SwitchingVector.of([1.5, 0.0, 0.0], (2.0, 2.0))):
        with pytest.raises(ValueError, match="2 start coordinates and 2 durations"):
            call(systemb_m, bad)


def test_only_shooting_compiles_the_variational_kernel():
    # validation, simulation, reach clouds and crossing location step the
    # field's value alone; shooting flows every leg with its Jacobian, so
    # each flow's cache compiles the variational right-hand side then
    system = make_systemb()
    x0 = np.array([1.5, 0.0])
    validate_system(system, m=64)
    simulate(system, x0, max_switches=2 * system.p)
    accessible_set(system, x0, depth=2)
    for fl in system.flows:
        find_crossings(fl, system.chain_region(1), None, x0, fl.horizon)
    assert ["variational" in fl.field._kernels for fl in system.flows] == [False] * system.p
    find_periodic(system, opts=SolveOptions(max_seeds=4, seed=1))
    assert ["variational" in fl.field._kernels for fl in system.flows] == [True] * system.p
