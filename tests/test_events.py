"""Crossing detection against closed forms and a brute-force scan oracle;
crossing trees, parities."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from flowrelay import dynamics, events, expr
from flowrelay.dynamics import Flow, FlowArc, VectorField, _cut_steps, integrate
from flowrelay.errors import DegenerateCrossing, EvalError, OutOfSpan
from flowrelay.events import (DEFAULT_EVENTS, _polish, _samples, _scan_roots,
                              backward_leaf_parity, backward_tree,
                              degree_check, find_crossings,
                              forward_leaf_parity, forward_tree)
from flowrelay.geometry import Region, RelaySystem, sample_boundary

from conftest import ROTOR_CROSS_T, make_rotor, make_systemb, rotor_periodic_start
from test_three_mode import make_triangle


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


# level functions on the rotor flow from (1.3, 0), window 3, that reach each
# DegenerateCrossing of find_crossings past the scan's grazing test, as
# (f, message, time of the failure or None)
_DEGENERATE_RELAYS = {
    # roots 0.0024 apart in time or more, closer than 64 pieces of a 0.33 step:
    # each density finds another set
    "unresolved": ("cos(1000*x2)", "unresolved at 64 subsamples", None),
    # a band 2e-7 wide in x2 at x2 = 0.5, crossed in 1.7e-7 <= t_sep = 3e-7;
    # its peak 1e-8 stays above the graze floor 1e-9
    "root pair": ("1e6*(1e-14 - (x2 - 0.5)^2)", "root pair separated",
                  math.asin(0.5 / 1.3)),
    # the rotor's boundary-1 crossing with |ġ| scaled below eps_tan = 1e-8
    "tangential": ("1e-9*(0.16 - ((x1+1)^2 + x2^2))", "tangential crossing",
                   ROTOR_CROSS_T),
    # and scaled so that the root's rounding leaves |g| above tol_level
    "polish stalled": ("1e10*(0.16 - ((x1+1)^2 + x2^2))",
                       "root polish stalled", ROTOR_CROSS_T),
}


@pytest.mark.parametrize("case", list(_DEGENERATE_RELAYS))
def test_degenerate_crossing_is_raised_for_each_cause(rotor_m, case):
    text, message, time = _DEGENERATE_RELAYS[case]
    region = Region(expr.parse(text, 2))
    with pytest.raises(DegenerateCrossing, match=message) as exc:
        find_crossings(rotor_m.flows[0], region, None, [1.3, 0.0], 3.0)
    if time is None:
        assert exc.value.time is None
    else:
        assert exc.value.time == pytest.approx(time, abs=1e-6)


def test_folded_non_finite_lie_derivative_is_an_eval_error():
    # d/dx1 (1e200*x1) times the constant field entry 1e200 folds to the
    # constant inf in the Lie kernel, which still runs and is refused
    flow = Flow(VectorField([expr.parse("1e200", 2), expr.parse("0", 2)]), 1.0)
    region = Region(expr.parse("1e200*x1", 2), 1.0)
    with pytest.raises(EvalError, match="non-finite evaluation"):
        find_crossings(flow, region, None, [0.0, 0.0], 0.5)


def test_backward_lie_kernel_is_the_exact_negation(rotor_m, systemb_m):
    # and the backward rate kernel's (ġ, g̈) is (-ġ, g̈) of the forward one
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, (64, 2))
    for system in (rotor_m, systemb_m):
        for region in system.regions:
            for fl in system.flows:
                fwd, bwd = (region.f._kernels[fl.field, b] for b in (False, True))
                rate, rate_b = (region.f._kernels[fl.field, b, "rate"]
                                for b in (False, True))
                for kernel in (lambda k: k.columns(*pts.T),
                               lambda k: np.array([k.floats(*p) for p in pts.tolist()]).T):
                    (g, gdot), (g_b, gdot_b) = kernel(fwd), kernel(bwd)
                    assert _same_bits(g_b, g) and _same_bits(gdot_b, -gdot)
                    (gdot, gddot), (gdot_b, gddot_b) = kernel(rate), kernel(rate_b)
                    assert _same_bits(gdot_b, -gdot) and _same_bits(gddot_b, gddot)


def _partly_degenerate_rotor() -> RelaySystem:
    """The rotor with boundary 1's level function scaled by exp(40*(|x|^2 -
    1)): the same zero set, but the scale runs from 1e-9 at radius 0.7 to
    1e12 at radius 1.3, so crossings near either radius are degenerate
    (tangential or stalled) and the ones between are not."""
    base = make_rotor()
    f = expr.parse("(0.16 - ((x1+1)^2 + x2^2))*exp(40*(x1^2 + x2^2 - 1))", 2)
    return RelaySystem(n=2, p=2, flows=base.flows,
                       regions=(base.regions[0], Region(f, index=1)), box=base.box)


def test_degree_check_records_a_degenerate_sample_as_none():
    res = degree_check(_partly_degenerate_rotor(), samples=12, seed=3)
    for parities in (res.start_parities, res.end_parities):
        assert None in parities
        assert any(v is not None for v in parities)
    nones = (res.start_parities + res.end_parities).count(None)
    assert res.degenerate_rate == nones / 24


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
    # the vectorized grid, which drops repeats instead of sorting, is pinned
    # bit for bit to np.unique of the per-step linspace one, also where a
    # last step clipped to a few ulps of the end merges points
    rng = np.random.default_rng(12)
    end = 3.0
    merged = SimpleNamespace(ts=np.array([0.0, 1.0, end - 8 * math.ulp(end), end]))
    arcs = [merged]
    for system in (rotor_m, systemb_m, make_triangle()):
        for backward in (False, True):
            for _ in range(5):
                x0 = rng.uniform(-1.5, 1.5, 2)
                arcs.append(integrate(system.flows[0], 2 * system.flows[0].horizon,
                                      x0, backward=backward))
    for arc in arcs:
        for ns in (8, 16, 32, 64):
            pieces = [np.linspace(arc.ts[i], arc.ts[i + 1], ns + 1)[:-1]
                      for i in range(len(arc.ts) - 1)]
            old = np.unique(np.concatenate(pieces + [arc.ts[-1:]]))
            new = _kept_cut(arc.ts, ns)
            assert new.shape == old.shape
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert len(_kept_cut(merged.ts, 64)) < 3 * 64 + 1


def _kept_cut(ts: np.ndarray, ns: int) -> np.ndarray:
    """The times of a sampling pass (FlowArc._grid) over the steps ts."""
    grid, keep, _ = _cut_steps(ts, ns)
    return grid[keep]


def _scalars(arc, f, level: float):
    """The pair reads find_crossings polishes on, read(t) = (g, ġ) and
    rate(t) = (ġ, g̈), on the arc's single-point reads of the forward float
    kernels, ġ negated for a backward arc (g̈ is the same in either time)."""
    lie = f._kernels[arc.flow.field, False].floats
    lie2 = f._kernels[arc.flow.field, False, "rate"].floats
    sign = -1.0 if arc.backward else 1.0

    def read(tau: float) -> tuple[float, float]:
        g, gdot = arc._read(lie, tau)
        return g - level, sign * gdot

    def rate(tau: float) -> tuple[float, float]:
        gdot, gddot = arc._read(lie2, tau)
        return sign * gdot, gddot
    return read, rate


def _scan_roots_by_loops(arc, f, level: float, ns: int) -> list[float]:
    """The element-by-element scan that _scan_roots replaced: the reference
    for its numpy masks, polished by _polish on the same reads. Each root
    also lies within 1e-14 of scipy's brentq on g alone."""
    ts = arc._grid(ns)[0]
    pts = arc.sample(ts)
    g = f.evaluate(pts) - level
    gdot = (-1.0 if arc.backward else 1.0) * np.einsum(
        "ij,ij->i", f.gradient(pts), arc.flow.field.value_batch(pts))
    read, rate = _scalars(arc, f, level)
    sig = np.sign(g)
    brackets = [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                if sig[i] != 0.0 and sig[i + 1] != 0.0 and sig[i] != sig[i + 1]]
    band = max(DEFAULT_EVENTS.graze_band * float(g.max() - g.min()),
               10.0 * DEFAULT_EVENTS.tol_level)
    for i in range(len(ts) - 1):
        if gdot[i] == 0.0 or gdot[i + 1] == 0.0 or np.sign(gdot[i]) == np.sign(gdot[i + 1]):
            continue
        if sig[i] != 0.0 and sig[i] == sig[i + 1] and min(abs(g[i]), abs(g[i + 1])) <= band:
            t_ext = _polish(rate, ts[i], ts[i + 1], xtol=1e-13, rtol=1e-14)
            g_ext = read(t_ext)[0]
            if abs(g_ext) <= DEFAULT_EVENTS.graze_tol:
                raise DegenerateCrossing("graze", time=float(t_ext))
            if np.sign(g_ext) != sig[i]:
                brackets += [(ts[i], t_ext), (t_ext, ts[i + 1])]
    roots = []
    for a, b in sorted(brackets):
        roots.append(_polish(read, a, b, xtol=1e-14, rtol=1e-15))
        assert abs(roots[-1] - brentq(lambda t: read(t)[0], a, b, xtol=1e-14,
                                      rtol=1e-15)) <= 1e-14
    return sorted(roots)


def test_scan_masks_match_the_loops(rotor_m, systemb_m):
    rng = np.random.default_rng(9)
    cases = [(rotor_m, 0, 1.2999 * np.array([math.cos(-0.5), math.sin(-0.5)]), 1.0)]
    for system in (rotor_m, systemb_m):
        for _ in range(6):
            cases.append((system, int(rng.integers(2)), rng.uniform(-2.0, 2.0, 2),
                          float(rng.uniform(1.0, 6.0))))
    for system, k, x, t in cases:
        fl = system.flows[k]
        for backward in (False, True):
            arc = integrate(fl, t, x, backward=backward)
            for region in system.regions:
                scalars = _scalars(arc, region.f, region.level)
                for ns in (8, 16, 64):
                    args = (arc, region.f, region.level, ns)
                    samples = _samples(*args)[:3]
                    try:
                        want = _scan_roots_by_loops(*args)
                    except DegenerateCrossing:
                        with pytest.raises(DegenerateCrossing):
                            _scan_roots(*samples, *scalars)
                        continue
                    assert _scan_roots(*samples, *scalars) == want


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_coarse_scan_reads_every_other_fine_sample(rotor_m, systemb_m):
    # find_crossings takes its ns scan from the samples of its 2*ns pass:
    # every other fine point is the ns grid, the pass returns its indices,
    # and g and its derivative there are the bits a pass of its own at ns
    # gives
    rng = np.random.default_rng(13)
    for system in (rotor_m, systemb_m, make_triangle()):
        for backward in (False, True):
            for _ in range(3):
                k = int(rng.integers(system.p))
                arc = integrate(system.flows[k], 2 * system.flows[k].horizon,
                                rng.uniform(-2.0, 2.0, 2), backward=backward)
                region = system.regions[(k + 1) % system.p]
                for ns in (8, 16, 32):
                    ts, g, gdot, coarse = _samples(arc, region.f, region.level,
                                                   2 * ns)
                    want = _samples(arc, region.f, region.level, ns)
                    assert _same_bits(ts[::2], want[0])
                    assert np.array_equal(coarse, np.searchsorted(ts, want[0]))
                    assert _same_bits(arc.sample(ts)[coarse], arc.sample(want[0]))
                    assert _same_bits(g[coarse], want[1])
                    assert _same_bits(gdot[coarse], want[2])


def _samples_by_composition(arc, f, level: float, ns: int):
    """The sampling pass as the batch reads the fused kernel replaced: the
    reference for _samples. f.evaluate, then the einsum of f.gradient with
    VectorField.value_batch, negated on a backward arc."""
    ts, pts, half = arc._grid(ns)
    g = f.evaluate(pts) - level
    gdot = (-1.0 if arc.backward else 1.0) * np.einsum(
        "ij,ij->i", f.gradient(pts), arc.flow.field.value_batch(pts))
    return ts, g, gdot, half


def test_fused_pass_matches_the_composition_bit_for_bit(rotor_m, systemb_m):
    # at n = 2 the Lie derivative sums the same two products in the same
    # order as the einsum
    rng = np.random.default_rng(16)
    for system in (rotor_m, systemb_m, make_triangle()):
        for backward in (False, True):
            for k in range(system.p):
                fl = system.flows[k]
                arc = integrate(fl, 2 * fl.horizon, rng.uniform(-2.0, 2.0, 2),
                                backward=backward)
                for region in system.regions:
                    for ns in (8, 16, 32, 64):
                        got = _samples(arc, region.f, region.level, ns)
                        want = _samples_by_composition(arc, region.f,
                                                       region.level, ns)
                        for a, b in zip(got, want):
                            assert _same_bits(a, b)
    # a constant value or derivative comes out of the kernel as one float
    drift = Flow(VectorField([expr.parse("1", 2), expr.parse("0", 2)]), 2.0)
    for backward in (False, True):
        arc = integrate(drift, 1.5, [0.2, 0.1], backward=backward)
        for text in ("0.5", "x1", "x2"):
            f = expr.parse(text, 2)
            got = _samples(arc, f, 0.25, 8)
            for a, b in zip(got, _samples_by_composition(arc, f, 0.25, 8)):
                assert _same_bits(a, b)


def _lifted_systemb() -> RelaySystem:
    """systemb in R^3: both flows gain x3' = -x3, both disks become balls."""
    def sink(c: str) -> VectorField:
        return VectorField([expr.parse(f"-0.5*(x1{c}) - x2", 3),
                            expr.parse(f"(x1{c}) - 0.5*x2", 3),
                            expr.parse("-x3", 3)])

    def ball(c: str, i: int) -> Region:
        return Region(expr.parse(f"0.25 - ((x1{c})^2 + x2^2 + x3^2)", 3), index=i)

    return RelaySystem(n=3, p=2, flows=(Flow(sink("+1"), 4.0), Flow(sink("-1"), 4.0)),
                       regions=(ball("-1", 0), ball("+1", 1)),
                       box=[[-4.0] * 3, [4.0] * 3], beta=1)


def test_fused_pass_in_three_dimensions_matches_the_composition():
    # at n = 3 the einsum may sum its three products in another order, so
    # the derivative is compared to the rounding of that sum
    system = _lifted_systemb()
    rng = np.random.default_rng(17)
    for backward in (False, True):
        for k in range(system.p):
            fl = system.flows[k]
            arc = integrate(fl, 2 * fl.horizon, rng.uniform(-2.0, 2.0, 3),
                            backward=backward)
            for region in system.regions:
                for ns in (8, 16, 32, 64):
                    ts, g, gdot, half = _samples(arc, region.f, region.level, ns)
                    want = _samples_by_composition(arc, region.f, region.level, ns)
                    assert _same_bits(ts, want[0]) and _same_bits(g, want[1])
                    assert np.array_equal(half, want[3])
                    _, pts, _ = arc._grid(ns)
                    scale = np.einsum("ij,ij->i", np.abs(region.f.gradient(pts)),
                                      np.abs(fl.field.value_batch(pts)))
                    assert (np.abs(gdot - want[2]) <= 1e-15 * scale).all()


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_margin_is_the_column_kernels_rate_bit_for_bit(rotor_m, systemb_m,
                                                       backward):
    # the scan, the polish and the reported crossing read one tree for the
    # derivative: each margin is |L_V f| of the column kernel at the event
    # point, bit for bit, and the direction is its sign along the arc
    rng = np.random.default_rng(25)
    sign = -1.0 if backward else 1.0
    for system, want in ((systemb_m, 40), (rotor_m, 100), (_lifted_systemb(), 20)):
        seen = 0
        for _ in range(60):
            k = int(rng.integers(system.p))
            # a start within 0.8 of a boundary's centre (+-1, 0, ...)
            x = rng.normal(size=system.n)
            x *= rng.uniform(0.2, 0.8) / np.linalg.norm(x)
            x[0] += rng.choice([-1.0, 1.0])
            fl = system.flows[k]
            for region in system.regions:
                try:
                    evs = find_crossings(fl, region, None, x, 2 * fl.horizon,
                                         backward=backward)
                except DegenerateCrossing:
                    continue
                if not evs:
                    continue
                pts = np.array([e.point for e in evs])
                gdot = region.f._kernels[fl.field, False].columns(*pts.T)[1]
                assert _same_bits([e.margin for e in evs], np.abs(gdot))
                assert [e.direction for e in evs] == (sign * np.sign(gdot)).tolist()
                seen += len(evs)
        assert seen >= want


def test_one_level_function_along_two_fields_reads_each_fields_derivative(
        rotor_m, systemb_m):
    # the kernel is cached per field: one keyed on f alone would hand the
    # second flow the first flow's derivative
    f = expr.parse("0.25 - ((x1-1)^2 + x2^2)", 2)
    arcs = [integrate(fl, 3.0, [1.5, 0.3])
            for fl in (rotor_m.flows[0], systemb_m.flows[0], rotor_m.flows[0])]
    gdots = []
    for arc in arcs:
        got = _samples(arc, f, 0.0, 16)
        assert _same_bits(got[2], _samples_by_composition(arc, f, 0.0, 16)[2])
        gdots.append(got[2][0])
    assert gdots[0] == gdots[2] != gdots[1]


def test_repeated_scans_compile_the_lie_kernel_once(rotor_m, monkeypatch):
    # the kernel over numpy columns is the one array compile a scan makes
    compiled = []
    compile_ = expr._compile

    def counted(body, n, ns):
        compiled.append(ns is expr._ARRAY_NS)
        return compile_(body, n, ns)

    monkeypatch.setattr(expr, "_compile", counted)
    region = Region(expr.parse("0.16 - ((x1+1)^2 + x2^2)", 2))
    counts = []
    for _ in range(3):
        evs = find_crossings(rotor_m.flows[0], region, None, [1.3, 0.0], 3.0)
        assert [e.t for e in evs] == pytest.approx([ROTOR_CROSS_T], abs=1e-9)
        counts.append(len(compiled))
    assert compiled.count(True) == 1
    assert counts[0] == counts[1] == counts[2]


def test_coarse_grid_lies_in_the_fine_grid_where_points_merge():
    # a last step clipped to a few ulps of the end merges fine points, so
    # every other fine point is no longer the coarse grid; each coarse point
    # still is a fine point, at the index the cut gives it by arithmetic:
    # the one a lookup by value finds
    end = 3.0
    ts = np.array([0.0, 1.0, end - 8 * math.ulp(end), end])
    for ns in (8, 16, 32):
        grid, keep, half = _cut_steps(ts, 2 * ns)
        fine, coarse = grid[keep], _kept_cut(ts, ns)
        assert len(fine) < 2 * len(coarse) - 1
        assert np.array_equal(half, np.searchsorted(fine, coarse))
        assert _same_bits(fine[half], coarse)


def test_float_g_matches_evaluate_bit_for_bit(systemb_m):
    rng = np.random.default_rng(14)
    for backward in (False, True):
        arc = integrate(systemb_m.flows[0], 5.0, [1.5, 0.3], backward=backward)
        for region in systemb_m.regions:
            g = _scalars(arc, region.f, region.level)[0]
            for tau in rng.uniform(0.0, arc.duration, 500).tolist():
                assert arc._point(tau) == arc(tau).tolist()
                want = float(region.f.evaluate(arc(tau))) - region.level
                assert _same_bits(g(tau)[0], want)


@pytest.mark.parametrize("text", ["sqrt(-x1)", "exp(1000*x1)", "1e300*1e300*x1"],
                         ids=["domain", "overflow", "non-finite"])
def test_float_g_raises_eval_error_as_evaluate_does(rotor_m, text):
    # x1 = cos(0.5) on the rotor circle through (1, 0)
    f = expr.parse(text, 2)
    arc = integrate(rotor_m.flows[0], 1.0, [1.0, 0.0])
    with pytest.raises(EvalError):
        f.evaluate(arc(0.5))
    with pytest.raises(EvalError):
        _scalars(arc, f, 0.0)[0](0.5)


@pytest.fixture
def sample_calls(monkeypatch) -> list:
    """The density of each sampling pass (FlowArc._grid call), in call
    order."""
    calls = []
    grid = FlowArc._grid

    def counted(self, ns):
        calls.append(ns)
        return grid(self, ns)

    monkeypatch.setattr(FlowArc, "_grid", counted)
    return calls


def test_agreeing_scan_samples_the_arc_once(rotor_m, sample_calls):
    evs = find_crossings(rotor_m.flows[0], rotor_m.regions[1], 0.0,
                         [1.3, 0.0], 3.0)
    assert [e.t for e in evs] == pytest.approx([ROTOR_CROSS_T], abs=1e-9)
    assert len(sample_calls) == 1


def test_agreeing_scan_polishes_each_crossing_once(rotor_m, monkeypatch):
    # the ns = 8 scan of an agreeing pass keeps its brackets: only the 16
    # scan's roots are polished, one _polish call per crossing
    polish, polished = events._polish, []

    def counted(read, a, b, xtol, rtol):
        polished.append((a, b))
        return polish(read, a, b, xtol, rtol)

    monkeypatch.setattr(events, "_polish", counted)
    for t_end, count in ((3.0, 1), (2 * math.pi, 2)):
        del polished[:]
        evs = find_crossings(rotor_m.flows[0], rotor_m.regions[1], 0.0,
                             [1.3, 0.0], t_end)
        assert len(evs) == len(polished) == count
        assert all(a <= e.t <= b for e, (a, b) in zip(evs, polished))


def _roots_by_density(arc, f, level: float, t_end: float) -> tuple[list[float], int]:
    """The confirmation loop with a sampling pass of its own per density:
    the reference for find_crossings' shared first pass. Returns the roots
    inside the window and the number of densities scanned."""
    scalars = _scalars(arc, f, level)
    t_sep = DEFAULT_EVENTS.t_sep_rel * t_end
    ns = DEFAULT_EVENTS.ns
    roots, scanned = _scan_roots(*_samples(arc, f, level, ns)[:3], *scalars), 1
    while ns < DEFAULT_EVENTS.ns_max:
        ns *= 2
        confirm = _scan_roots(*_samples(arc, f, level, ns)[:3], *scalars)
        scanned += 1
        agreed = len(confirm) == len(roots) and all(
            abs(a - b) <= max(t_sep, 1e-9) for a, b in zip(roots, confirm))
        roots = confirm
        if agreed:
            return [r for r in roots if t_sep < r < t_end - t_sep], scanned
    raise DegenerateCrossing("unresolved")


def test_doubling_samples_once_per_further_density(rotor_m, sample_calls):
    # a level set around a narrow peak of f on the rotor circle: a root pair
    # that the ns = 8 scan misses and the 16 scan finds sends the
    # confirmation on to 32
    fl = rotor_m.flows[0]
    passes = set()
    for width in (1e4, 1e5):
        f = expr.parse(f"exp(-{width}*((x1-1.3)^2 + x2^2)) - 0.5", 2)
        for phi in np.linspace(0.2, 0.8, 12):
            arc = integrate(fl, 1.0, 1.3 * np.array([math.cos(-phi), math.sin(-phi)]))
            want, scanned = _roots_by_density(arc, f, 0.0, 1.0)
            del sample_calls[:]
            evs = find_crossings(fl, Region(f, 0.0), None, arc.x0, 1.0, arc=arc)
            assert [e.t for e in evs] == want
            assert len(sample_calls) == scanned - 1
            passes.add(scanned - 1)
    assert passes == {1, 2}


def _uncached_point(arc, tau: float) -> list[float]:
    """The Horner read of the row of the step arc._step picks for tau."""
    i, n = arc._step(tau), arc.flow.field.n
    row, t0, t1 = arc._table[i].tolist(), arc._knots[i], arc._knots[i + 1]
    return [dynamics._interpolate(row[j::n], (tau - t0) / (t1 - t0))
            for j in range(n)]


def test_polish_g_reads_the_point_bit_for_bit(rotor_m, systemb_m):
    # arc._point keeps the step of its last parameter: in sorted runs and
    # runs inside one step (a root polish's case) and in jumps across
    # steps, at knots, 0 and the end, in any call order, it reads the bits
    # of an uncached Horner read, and so does the polish's g
    rng = np.random.default_rng(15)
    cases = [(systemb_m, False), (systemb_m, True), (rotor_m, False),
             (make_triangle(), True)]
    for system, backward in cases:
        arc = integrate(system.flows[0], 6.0, rng.uniform(-2.0, 2.0, 2),
                        backward=backward)
        region = system.regions[1]
        g = _scalars(arc, region.f, region.level)[0]
        taus = rng.uniform(0.0, arc.duration, 3000)
        taus[::50] = rng.choice(arc.ts, len(taus[::50]))
        taus[:3] = 0.0, arc.duration, 0.0
        taus[1000:2000].sort()
        taus = taus.tolist() + arc.ts.tolist()
        for order in (taus, taus[::-1], rng.permutation(taus).tolist()):
            for tau in order:
                want = _uncached_point(arc, tau)
                assert _same_bits(arc._point(tau), want)
                assert _same_bits(g(tau)[0], region.f.evaluate(want) - region.level)
        for bad in (arc.duration * (1.0 + 1e-12), -1e-300, math.nan):
            with pytest.raises(OutOfSpan):
                arc._point(bad)
    # on rows of random numbers a step's end is not the next step's start,
    # so a knot read from the step above it would show
    arc = integrate(rotor_m.flows[0], 6.0, [1.3, 0.0])
    arc._table = rng.uniform(-1.0, 1.0, arc._table.shape)
    taus = rng.uniform(0.0, arc.duration, 200).tolist() + arc.ts.tolist()
    for order in (taus, taus[::-1], rng.permutation(taus).tolist()):
        for tau in order:
            assert _same_bits(arc._point(tau), _uncached_point(arc, tau))


@pytest.mark.parametrize("text, message", [
    ("sqrt(x1 + 0.5) - 0.3", "non-finite value in batched evaluation"),
    ("exp(-exp(800*x2))", "non-finite gradient"),
], ids=["value", "gradient"])
def test_non_finite_level_function_on_the_arc_raises_eval_error(rotor_m, text,
                                                                message):
    # finite at the start and non-finite on part of the arc: the sampling
    # pass raises Expression.evaluate's or Expression.gradient's error (past
    # x2 = 0.89 the value underflows to 0 while its gradient is 0 * inf)
    f = expr.parse(text, 2)
    with pytest.raises(EvalError, match=message):
        find_crossings(rotor_m.flows[0], Region(f, 0.25), None, [1.0, 0.0], 3.0)


def _step(root: float):
    """(-1 below root, 1 from it on, and h' = 0): every step bisects."""
    return lambda x: (-1.0 if x < root else 1.0, 0.0)


def _pair(h, dh):
    return lambda x: (h(x), dh(x))


_EPS4 = 4 * np.finfo(float).eps   # the smallest rtol scipy's brentq takes

# (read, a, b, xtol, rtol): smooth roots, roots at either end, a bracket
# below the xtol floor, reversed and numpy-scalar ends, h' = 0 (bisection),
# and the tolerances _scan_roots uses
POLISH_CORPUS = {
    "cubic": (_pair(lambda x: x**3 - 2 * x - 5, lambda x: 3 * x * x - 2),
              2.0, 3.0, 2e-12, _EPS4),
    "cos": (_pair(lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0),
            0.0, 1.0, 1e-14, 1e-15),
    "exp": (_pair(lambda x: math.exp(x) - 2.0, math.exp), -5.0, 5.0, 1e-13, 1e-14),
    "flat triple root": (_pair(lambda x: (x - 1.0 / 3.0) ** 3 * 1e-9 + 1e-30,
                               lambda x: 3e-9 * (x - 1.0 / 3.0) ** 2),
                         -2.0, 7.0, 1e-14, 1e-15),
    "atan": (_pair(lambda x: math.atan(1e4 * (x - 0.25)),
                   lambda x: 1e4 / (1.0 + (1e4 * (x - 0.25)) ** 2)),
             -1.0, 2.0, 1e-13, 1e-14),
    "root at a": (_pair(lambda x: x, lambda x: 1.0), 0.0, 1.0, 1e-14, 1e-15),
    "root at a, falling": (_pair(lambda x: -x, lambda x: -1.0), 0.0, 1.0, 1e-14, 1e-15),
    "root at b": (_pair(lambda x: x - 1.0, lambda x: 1.0), 0.0, 1.0, 1e-14, 1e-15),
    "below xtol": (_pair(lambda x: x - 0.5 - 3e-15, lambda x: 1.0),
                   0.5, 0.5 + 1e-14, 1e-13, 1e-14),
    "large t": (_pair(lambda x: x - 1e6 - 0.123, lambda x: 1.0),
                1e6 - 1.0, 1e6 + 1.0, 1e-14, 1e-15),
    "reversed numpy ends": (_pair(math.sin, math.cos), np.float64(4.0),
                            np.float64(3.0), 1e-14, 1e-15),
    "step": (_step(0.3), 0.0, 1.0, 1e-14, 1e-15),
    "smooth, h' = 0": (_pair(lambda x: x - 0.3, lambda x: 0.0), 0.0, 1.0, 1e-14, 1e-15),
    "h = h' = 0 at a bisection": (_pair(lambda x: x - 0.5, lambda x: 0.0),
                                  0.0, 1.0, 1e-14, 1e-15),
    "100 bisections": (_step(1e-250), -1.0, 1.0, 2.0**-98, _EPS4),
}


@pytest.mark.parametrize("case", POLISH_CORPUS.values(), ids=POLISH_CORPUS.keys())
def test_polish_matches_scipy_brentq(case):
    read, a, b, xtol, rtol = case
    want = brentq(lambda x: read(x)[0], a, b, xtol=xtol, rtol=rtol)
    got = _polish(read, a, b, xtol, rtol)
    assert type(got) is float
    assert abs(got - want) <= max(xtol, 4 * math.ulp(want))


@pytest.mark.parametrize("read, a, b, xtol", [
    (_pair(lambda x: x * x + 1.0, lambda x: 2.0 * x), -1.0, 1.0, 1e-14),
    (_step(1e-250), -1.0, 1.0, 2.0**-99),   # needs 101 bisections
], ids=["one sign", "no convergence"])
def test_polish_fails_as_a_degenerate_crossing(read, a, b, xtol):
    with pytest.raises(DegenerateCrossing):
        _polish(read, a, b, xtol, _EPS4)


def test_rate_kernel_is_the_derivative_of_the_lie_rate(rotor_m, systemb_m):
    # (field, backward, "rate") reads (ġ, g̈) in elapsed time: ġ the bits
    # of the (g, ġ) kernel's, g̈ a central difference of ġ along the arc;
    # a variable exponent derives the log of its first partials again
    variable_exponent = expr.parse("(x1^2 + 2)^x2", 2)
    rng = np.random.default_rng(16)
    h = 1e-4
    for system in (rotor_m, systemb_m):
        for backward in (False, True):
            for k in range(system.p):
                arc = integrate(system.flows[k], 3.0, rng.uniform(-1.5, 1.5, 2),
                                backward=backward)
                for f in [r.f for r in system.regions] + [variable_exponent]:
                    kernels = f._kernels
                    lie = kernels[arc.flow.field, backward].floats
                    rate = kernels[arc.flow.field, backward, "rate"].floats
                    for tau in rng.uniform(h, arc.duration - h, 20).tolist():
                        gdot, gddot = arc._read(rate, tau)
                        assert _same_bits(gdot, arc._read(lie, tau)[1])
                        fd = (arc._read(lie, tau + h)[1]
                              - arc._read(lie, tau - h)[1]) / (2 * h)
                        assert abs(gddot - fd) <= 1e-6 * max(1.0, abs(gddot))


def _rate_keys(f) -> list:
    return [key for key in f._kernels if isinstance(key, tuple) and len(key) == 3]


def test_rate_kernel_is_compiled_at_the_first_polished_turn():
    # a systemb scan whose g turns nowhere near the level compiles no rate
    # kernel; the rotor chord scan of test_root_pair_between_scan_samples_is_found
    # polishes a turn and compiles one
    systemb = make_systemb()
    region = systemb.regions[1]
    assert find_crossings(systemb.flows[0], region, None, [1.5, 0.0], 4.0)
    assert _rate_keys(region.f) == []
    rotor = make_rotor()
    fl, region = rotor.flows[0], rotor.regions[0]
    x = 1.2999 * np.array([math.cos(-0.5), math.sin(-0.5)])
    assert len(find_crossings(fl, region, None, x, 1.0)) == 2
    assert _rate_keys(region.f) == [(fl.field, False, "rate")]


def test_polish_reads_each_root_at_most_five_and_a_half_times(rotor_m, systemb_m,
                                                              monkeypatch):
    # Newton on (g, ġ) from the end with the smaller |g| reads 5.08 times
    # per root on these 105 roots; a port of scipy's brentq, which reads g
    # alone, read 6.70
    polish, reads = events._polish, []

    def counted(read, a, b, xtol, rtol):
        ts = []

        def counting(t):
            ts.append(t)
            return read(t)
        root = polish(counting, a, b, xtol, rtol)
        if xtol == 1e-14:   # a root; turns are polished to 1e-13
            reads.append(len(ts))
        return root

    monkeypatch.setattr(events, "_polish", counted)
    rng = np.random.default_rng(17)
    for system in (rotor_m, systemb_m, make_triangle()):
        for backward in (False, True):
            for fl in system.flows * 8:
                x = rng.uniform(-1.5, 1.5, 2)
                for region in system.regions:
                    try:
                        find_crossings(fl, region, None, x, 2 * fl.horizon,
                                       backward=backward)
                    except DegenerateCrossing:
                        pass
    assert len(reads) >= 80
    assert sum(reads) / len(reads) <= 5.5


def test_root_pair_between_scan_samples_is_found(rotor_m):
    # the rotor circle of radius 1.2999 cuts a chord of angle 2 * half through
    # the boundary-0 disk, between two samples of the first two scan densities:
    # only the extremum of g poking through the level finds the pair
    fl, region = rotor_m.flows[0], rotor_m.regions[0]
    radius, phi = 1.2999, 0.5
    half = math.acos((radius * radius + 0.91) / (2.0 * radius))
    x = radius * np.array([math.cos(-phi), math.sin(-phi)])
    arc = integrate(fl, 1.0, x)
    for ns in (8, 16):
        assert not np.any(np.abs(arc._grid(ns)[0] - phi) < half)
    evs = find_crossings(fl, region, None, x, 1.0, arc=arc)
    assert [e.direction for e in evs] == [1, -1]
    assert np.abs(np.array([e.t for e in evs]) - [phi - half, phi + half]).max() < 1e-8


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
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 3,
                         np.random.default_rng(5))
    lv = systemb_m.levels()
    for pt in bs.points:
        tree = forward_tree(systemb_m, lv, pt)
        assert tree.consistent
        for leaf in tree.leaves:
            val = systemb_m.chain_region(2).f.evaluate(leaf.point)
            assert abs(val - lv[2]) <= 1e-10
            assert all(0 < t < 4.0 for t in leaf.times)


def test_backward_tree_even_leaves(systemb_m):
    bs = sample_boundary(systemb_m.chain_region(2), systemb_m.box, 6,
                         np.random.default_rng(6))
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
    bs = sample_boundary(systemb_m.chain_region(0), systemb_m.box, 4,
                         np.random.default_rng(9))
    for pt in bs.points:
        base = forward_leaf_parity(systemb_m, None, pt)
        # margins on this system are ~0.25; perturb far below half of that
        shifted = np.array([0.0, 1e-3, 0.0])
        assert forward_leaf_parity(systemb_m, shifted, pt) == base


def test_parity_constant_across_samples(systemb_m):
    res = degree_check(systemb_m, samples=10, seed=12)
    vals = {v for v in res.start_parities if v is not None}
    assert vals == {1}


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
