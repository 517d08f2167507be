"""Crossing detection against closed forms and a brute-force scan oracle;
crossing trees, parities, winding numbers."""
from __future__ import annotations

import inspect
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from flowrelay import events, expr
from flowrelay.dynamics import FlowArc, integrate
from flowrelay.errors import (DegenerateCrossing, EvalError, OutOfSpan,
                              VanishingImage)
from flowrelay.events import (DEFAULT_EVENTS, _brentq, _fine_grid, _g_scalar,
                              _gdot_scalar, _samples,
                              _scan_roots, backward_leaf_parity, backward_tree,
                              degree_check, find_crossings,
                              forward_leaf_parity, forward_tree,
                              winding_degree)
from flowrelay.geometry import Region, sample_boundary

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
            new = _fine_grid(arc, ns)
            assert new.shape == old.shape
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert len(_fine_grid(merged, 64)) < 3 * 64 + 1


def _scan_roots_by_loops(arc, f, level: float, ns: int) -> list[float]:
    """The element-by-element scan that _scan_roots replaced: the reference
    for its numpy masks."""
    ts = _fine_grid(arc, ns)
    pts = arc.sample(ts)
    g = f.evaluate(pts) - level
    gdot = (-1.0 if arc.backward else 1.0) * np.einsum(
        "ij,ij->i", f.gradient(pts), arc.flow.field.value_batch(pts))
    gfun, gdfun = _g_scalar(arc, f, level), _gdot_scalar(arc, f)
    sig = np.sign(g)
    brackets = [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                if sig[i] != 0.0 and sig[i + 1] != 0.0 and sig[i] != sig[i + 1]]
    band = max(DEFAULT_EVENTS.graze_band * float(g.max() - g.min()),
               10.0 * DEFAULT_EVENTS.tol_level)
    for i in range(len(ts) - 1):
        if gdot[i] == 0.0 or gdot[i + 1] == 0.0 or np.sign(gdot[i]) == np.sign(gdot[i + 1]):
            continue
        if sig[i] != 0.0 and sig[i] == sig[i + 1] and min(abs(g[i]), abs(g[i + 1])) <= band:
            t_ext = brentq(gdfun, ts[i], ts[i + 1], xtol=1e-13, rtol=1e-14)
            g_ext = gfun(t_ext)
            if abs(g_ext) <= DEFAULT_EVENTS.graze_tol:
                raise DegenerateCrossing("graze", time=float(t_ext))
            if np.sign(g_ext) != sig[i]:
                brackets += [(ts[i], t_ext), (t_ext, ts[i + 1])]
    return sorted(float(brentq(gfun, a, b, xtol=1e-14, rtol=1e-15))
                  for a, b in sorted(brackets))


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
                scalars = (_g_scalar(arc, region.f, region.level),
                           _gdot_scalar(arc, region.f))
                for ns in (8, 16, 64):
                    args = (arc, region.f, region.level, ns)
                    try:
                        want = _scan_roots_by_loops(*args)
                    except DegenerateCrossing:
                        with pytest.raises(DegenerateCrossing):
                            _scan_roots(*_samples(*args), *scalars)
                        continue
                    assert _scan_roots(*_samples(*args), *scalars) == want


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_coarse_scan_reads_every_other_fine_sample(rotor_m, systemb_m):
    # find_crossings takes its ns scan from the samples of its 2*ns pass:
    # every other fine point is the ns grid, and g and its derivative there
    # are the bits a pass of its own at ns gives
    rng = np.random.default_rng(13)
    for system in (rotor_m, systemb_m, make_triangle()):
        for backward in (False, True):
            for _ in range(3):
                k = int(rng.integers(system.p))
                arc = integrate(system.flows[k], 2 * system.flows[k].horizon,
                                rng.uniform(-2.0, 2.0, 2), backward=backward)
                region = system.regions[(k + 1) % system.p]
                for ns in (8, 16, 32):
                    ts, g, gdot = _samples(arc, region.f, region.level, 2 * ns)
                    want = _samples(arc, region.f, region.level, ns)
                    assert _same_bits(ts[::2], want[0])
                    coarse = np.searchsorted(ts, want[0])
                    assert _same_bits(arc.sample(ts)[coarse], arc.sample(want[0]))
                    assert _same_bits(g[coarse], want[1])
                    assert _same_bits(gdot[coarse], want[2])


def test_coarse_grid_lies_in_the_fine_grid_where_points_merge():
    # a last step clipped to a few ulps of the end merges fine points, so
    # every other fine point is no longer the coarse grid; each coarse point
    # still is a fine point, which find_crossings looks up by value
    end = 3.0
    ts = np.array([0.0, 1.0, end - 8 * math.ulp(end), end])
    arc = SimpleNamespace(ts=ts)
    for ns in (8, 16, 32):
        fine, coarse = _fine_grid(arc, 2 * ns), _fine_grid(arc, ns)
        assert len(fine) < 2 * len(coarse) - 1
        assert _same_bits(fine[np.searchsorted(fine, coarse)], coarse)


def test_float_g_matches_evaluate_bit_for_bit(systemb_m):
    rng = np.random.default_rng(14)
    for backward in (False, True):
        arc = integrate(systemb_m.flows[0], 5.0, [1.5, 0.3], backward=backward)
        for region in systemb_m.regions:
            g = _g_scalar(arc, region.f, region.level)
            for tau in rng.uniform(0.0, arc.duration, 500).tolist():
                assert arc._point(tau) == arc(tau).tolist()
                want = float(region.f.evaluate(arc(tau))) - region.level
                assert _same_bits(g(tau), want)


@pytest.mark.parametrize("text", ["sqrt(-x1)", "exp(1000*x1)", "1e300*1e300*x1"],
                         ids=["domain", "overflow", "non-finite"])
def test_float_g_raises_eval_error_as_evaluate_does(rotor_m, text):
    # x1 = cos(0.5) on the rotor circle through (1, 0)
    f = expr.parse(text, 2)
    arc = integrate(rotor_m.flows[0], 1.0, [1.0, 0.0])
    with pytest.raises(EvalError):
        f.evaluate(arc(0.5))
    with pytest.raises(EvalError):
        _g_scalar(arc, f, 0.0)(0.5)


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
    # scan's roots are polished, one Brent solve per crossing
    brentq, polished = events._brentq, []

    def counted(f, xa, xb, xtol, rtol):
        polished.append((xa, xb))
        return brentq(f, xa, xb, xtol, rtol)

    monkeypatch.setattr(events, "_brentq", counted)
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
    scalars = (_g_scalar(arc, f, level), _gdot_scalar(arc, f))
    t_sep = DEFAULT_EVENTS.t_sep_rel * t_end
    ns = DEFAULT_EVENTS.ns
    roots, scanned = _scan_roots(*_samples(arc, f, level, ns), *scalars), 1
    while ns < DEFAULT_EVENTS.ns_max:
        ns *= 2
        confirm = _scan_roots(*_samples(arc, f, level, ns), *scalars)
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


def test_polish_g_reads_the_point_bit_for_bit(rotor_m, systemb_m):
    # g keeps the step of its last parameter: in sorted runs (the Brent
    # polish's case) and in jumps across steps, at knots, 0 and the end, it
    # gives f._value_at(arc._point(tau)) - level to the bit
    rng = np.random.default_rng(15)
    cases = [(systemb_m, False), (systemb_m, True), (rotor_m, False),
             (make_triangle(), True)]
    for system, backward in cases:
        arc = integrate(system.flows[0], 6.0, rng.uniform(-2.0, 2.0, 2),
                        backward=backward)
        region = system.regions[1]
        g = _g_scalar(arc, region.f, region.level)
        taus = rng.uniform(0.0, arc.duration, 3000)
        taus[::50] = rng.choice(arc.ts, len(taus[::50]))
        taus[:3] = 0.0, arc.duration, 0.0
        taus[1000:2000].sort()
        taus = taus.tolist() + arc.ts.tolist()
        for tau in taus:
            want = region.f._value_at(arc._point(tau)) - region.level
            assert _same_bits(g(tau), want)
        with pytest.raises(OutOfSpan):
            g(arc.duration * (1.0 + 1e-12))


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


def _step(root: float, at: float = math.inf):
    """-1 below root, 1 from it on, nan at x == at: every step bisects."""
    def f(x: float) -> float:
        return math.nan if x == at else (-1.0 if x < root else 1.0)
    return f


_EPS4 = 4 * np.finfo(float).eps   # the smallest rtol scipy's brentq takes

# (f, a, b, xtol, rtol): smooth roots (interpolation and extrapolation), a
# step (bisection), roots at either end, a bracket below the xtol floor,
# reversed and numpy-scalar ends, and the tolerances _scan_roots uses
BRENT_CORPUS = [
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 2e-12, _EPS4),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-14, 1e-15),
    (lambda x: math.exp(x) - 2.0, -5.0, 5.0, 1e-13, 1e-14),
    (lambda x: (x - 1.0 / 3.0) ** 3 * 1e-9 + 1e-30, -2.0, 7.0, 1e-14, 1e-15),
    (_step(0.3), 0.0, 1.0, 1e-14, 1e-15),
    (lambda x: x, 0.0, 1.0, 1e-14, 1e-15),
    (lambda x: -x, 0.0, 1.0, 1e-14, 1e-15),
    (lambda x: x - 1.0, 0.0, 1.0, 1e-14, 1e-15),
    (lambda x: x - 0.5 - 3e-15, 0.5, 0.5 + 1e-14, 1e-13, 1e-14),
    (lambda x: x - 1e6 - 0.123, 1e6 - 1.0, 1e6 + 1.0, 1e-14, 1e-15),
    (math.sin, np.float64(4.0), np.float64(3.0), 1e-14, 1e-15),
    (lambda x: math.atan(1e4 * (x - 0.25)), -1.0, 2.0, 1e-13, 1e-14),
    (_step(1e-250), -1.0, 1.0, 2.0**-98, _EPS4),   # converges in 100 bisections
]


def _lines_run(fn, *args) -> set[int]:
    """Line numbers of _brentq's own frame executed by fn(*args)."""
    code, seen = _brentq.__code__, set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return seen


def _random_cubics(n: int, seed: int) -> list:
    """n cubics with random coefficients, each with a bracket [a, b] of
    random ends over which it changes sign."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        c0, c1, c2, c3 = rng.normal(size=4).tolist()
        a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())

        def f(x, c0=c0, c1=c1, c2=c2, c3=c3):
            return ((c0 * x + c1) * x + c2) * x + c3
        if f(a) * f(b) < 0:
            out.append((f, a, b, 1e-14, 1e-15))
    return out


def test_brentq_port_matches_scipy_bit_for_bit():
    seen = set()
    for f, a, b, xtol, rtol in BRENT_CORPUS + _random_cubics(300, 5):
        want = brentq(f, a, b, xtol=xtol, rtol=rtol)
        got = _brentq(f, a, b, xtol, rtol)
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        seen |= _lines_run(_brentq, f, a, b, xtol, rtol)
    # the corpus runs the first line of every branch the comments name
    lines, first = inspect.getsourcelines(_brentq)
    for tag in ("# interpolate", "# extrapolate", "# good short step", "# bisect"):
        at = [first + i + 1 for i, line in enumerate(lines) if line.strip() == tag]
        assert at and set(at) <= seen, tag


@pytest.mark.parametrize("f, a, b, xtol, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, ValueError),
    (lambda x: math.nan, 0.0, 1.0, 1e-14, ValueError),
    (_step(0.7, at=0.5), 0.0, 1.0, 1e-14, ValueError),
    (_step(1e-250), -1.0, 1.0, 2.0**-99, RuntimeError),   # needs 101 bisections
], ids=["one sign", "nan at an end", "nan inside", "no convergence"])
def test_brentq_port_raises_as_scipy_does(f, a, b, xtol, error):
    with pytest.raises(error):
        brentq(f, a, b, xtol=xtol, rtol=_EPS4)
    with pytest.raises(error):
        _brentq(f, a, b, xtol, _EPS4)


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
        assert not np.any(np.abs(_fine_grid(arc, ns) - phi) < half)
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
