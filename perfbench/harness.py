"""Closed-loop timing of one workload: set-up, timed passes, metrics.

One caller runs one op at a time. Every pass runs the workload's whole op
list. Passes repeat while another one fits in ``--seconds`` (at least
MIN_PASSES), and each op's latency is its median over the passes.

Times are reported in reference seconds. The CPU speed of a shared host
drifts: on the 2-core VM this benchmark was built on, one fixed loop took
3.3 ms in some stretches and 5.4 ms in others, for seconds to tens of
seconds each, and the library's ops slowed in step (correlation 0.78 to
0.96 over four ops). So ``SpeedProbe`` runs a short calibration loop every
CAL_EVERY_S of wall time, from a timer signal, so also in the middle of long
ops. Each op's wall time, less the probe's own time, is scaled by CAL_REF_S
over the mean calibration time during the op and CAL_WINDOW_S either side:
the op's time on a CPU where the loop takes CAL_REF_S. The loop is the benchmark's own code, so a change
to the library moves the scaled times exactly as it moves the wall times.
Raw wall times stay in the per-run record.
"""
from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np
import scipy

import workloads
from flowrelay.errors import DegenerateCrossing
from tracer import Tracer

SETUP_REPEATS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10
CAL_REF_S = 4.0e-3
CAL_EVERY_S = 0.2
CAL_WINDOW_S = 1.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "resolved_frac": "fraction",
                    "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Wall seconds of one fixed loop of interpreted arithmetic and small
    numpy calls, the mix the library's ops spend their time in."""
    t = perf_counter()
    s = 0.0
    for i in range(30000):
        s += (i * 0.5) ** 0.5
    a = np.arange(16.0)
    for _ in range(300):
        a = np.sqrt(a + 1.0)
    return perf_counter() - t


class SpeedProbe:
    """Samples calibrate() on entry, every CAL_EVERY_S of wall time from a
    SIGALRM handler, and on exit. ``stolen`` adds up the handler's time."""

    def __enter__(self):
        self.times: list[float] = []
        self.cals: list[float] = []
        self.stolen = 0.0
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()   # runs a signal already pending, under our handler
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self) -> None:
        self.cals.append(calibrate())
        self.times.append(perf_counter())

    def _handler(self, signum, frame) -> None:
        t = perf_counter()
        self._sample()
        self.stolen += perf_counter() - t

    def ref_seconds(self, t0: float, t1: float, stolen: float) -> float:
        """Reference seconds of the interval [t0, t1] less ``stolen``, from
        the mean of the samples taken within CAL_WINDOW_S of it (one sample
        is noisy; the speed drifts more slowly), or else the nearest one."""
        i = bisect_left(self.times, t0 - CAL_WINDOW_S)
        j = bisect_right(self.times, t1 + CAL_WINDOW_S)
        cals = self.cals[i:j] or [self.cals[min(i, len(self.cals) - 1)]]
        return (t1 - t0 - stolen) * CAL_REF_S / statistics.fmean(cals)


def _execute(op, opid: int, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    rec = {"kind": op.kind, "status": "ok", "detail": "", "unresolved": False,
           "crossing": op.crossing}
    if tracer is not None:
        tracer.op = opid
    stolen = probe.stolen
    t = perf_counter()
    try:
        out = op.run()
    except op.documented as exc:
        out = None
        rec["status"] = "documented"
        rec["detail"] = type(exc).__name__
        rec["unresolved"] = isinstance(exc, DegenerateCrossing)
    except Exception as exc:  # an undocumented error is a failed op, not a crash
        out = None
        rec["status"] = "error"
        rec["detail"] = f"{type(exc).__name__}: {exc}"
    finally:
        rec["span"] = (t, perf_counter(), probe.stolen - stolen)
        if tracer is not None:
            tracer.op = -1
    if rec["status"] == "ok":
        bad = op.check(out)
        if bad:
            rec["status"] = "wrong"
            rec["detail"] = "; ".join(bad[:3])
    return rec


def _run_pass(ops, first_id: int, tracer: Tracer | None = None) -> list[dict]:
    """Run every op once; each record gets its wall and reference seconds."""
    with SpeedProbe() as probe:
        recs = [_execute(op, first_id + k, tracer, probe) for k, op in enumerate(ops)]
    for rec in recs:
        t0, t1, stolen = rec.pop("span")
        rec["seconds"] = t1 - t0 - stolen
        rec["ref_seconds"] = probe.ref_seconds(t0, t1, stolen)
    return recs


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(highest percentile with at least TAIL_BEYOND values above it, value)."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(latencies)[k]


def setup(name: str, seed: int):
    """Set up SETUP_REPEATS times (fresh configs, inputs and warm-up op each
    time, so lazy expression compiles recur); keep the last. Returns the
    workload and each set-up's reference seconds."""
    spans = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            stolen = probe.stolen
            t = perf_counter()
            wl = workloads.SETUPS[name](seed)
            for op in wl.warmup:
                op.run()
            spans.append((t, perf_counter(), probe.stolen - stolen))
    return wl, [probe.ref_seconds(*span) for span in spans]


def run(name: str, seed: int, seconds: float, trace: bool, *,
        t_start: float) -> dict:
    """Run one workload; returns the result record (metrics, ops, info).

    ``t_start`` is the process's clock reading before its imports; the
    import time counts toward ``setup_s``.
    """
    imports = (perf_counter() - t_start) * CAL_REF_S / calibrate()
    wl, setup_times = setup(name, seed)
    result: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "import_ref_s": imports,
                    "setup_ref_s": setup_times}
    records: list[dict] = []
    if not trace:
        per_op = [[] for _ in wl.ops]
        start, longest = perf_counter(), 0.0
        while (len(per_op[0]) < MIN_PASSES
               or perf_counter() - start + longest <= seconds):
            t = perf_counter()
            recs = _run_pass(wl.ops, len(records))
            longest = max(longest, perf_counter() - t)
            records += recs
            for slot, r in zip(per_op, recs):
                slot.append(r["ref_seconds"])
        lat = [statistics.median(s) for s in per_op]
        metrics = {
            "setup_s": imports + statistics.median(setup_times),
            "solve_s": sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "resolved_frac": resolved_frac(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tl = tail(lat)
        if tl is not None:
            metrics["op_tail_ms"] = 1e3 * tl[1]
            result["op_tail"] = {"percentile": tl[0], "ops": len(lat)}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in metrics.items()}
    else:
        untraced = _run_pass(wl.ops, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_pass(wl.ops, len(untraced), tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        result["metrics"] = layer_metrics(
            tracer, sum(r["ref_seconds"] for r in untraced),
            sum(r["ref_seconds"] for r in traced))
        result["tracer"] = tracer
    result["attempted"] = len(records)
    result["failed"] = sum(r["status"] in ("error", "wrong") for r in records)
    result["fail_frac"] = result["failed"] / len(records)
    result["ops"] = records
    return result


def resolved_frac(records: list[dict]) -> float:
    """Share of crossing-tree and simulation ops without DegenerateCrossing
    (1 when the workload has none)."""
    crossing = [r for r in records if r["crossing"]]
    if not crossing:
        return 1.0
    return sum(not r["unresolved"] for r in crossing) / len(crossing)


# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {}
for _layer, _parts in {
    "periodic.shooting_residual": ("calls",),
    "periodic.residual_jacobian": ("calls",),
    "periodic.orbit_hausdorff": ("calls", "self_s"),
    "periodic.verify_periodic": ("calls", "self_s"),
    "periodic.continue_levels": ("calls",),
    "dynamics.flow_map": ("calls", "self_s"),
    "dynamics.flow_map_with_jacobian": ("calls", "self_s"),
    "dynamics.field_jacobian": ("calls", "self_s"),
    "dynamics.rhs": ("calls", "self_s"),
    "dynamics.integrate": ("calls", "steps", "self_s"),
    "dynamics.flow_map_points": ("calls", "rows", "self_s"),
    "dynamics.rhs_batch": ("calls", "rows"),
    "expr.evaluate": ("calls", "rows", "self_s"),
    "expr.gradient": ("calls", "rows", "self_s"),
    "events.find_crossings": ("calls", "self_s"),
    "events.tree": ("calls",),
    "geometry.sample_boundary": ("calls", "rows", "self_s"),
    "geometry.validate_system": ("calls", "self_s"),
    "relay.simulate": ("calls",),
    "relay.accessible_set": ("calls",),
}.items():
    for _part in _parts:
        PER_LAYER_UNITS[f"{_layer}.{_part}"] = "s" if _part == "self_s" else "count"
PER_LAYER_UNITS.update({
    "periodic.jacobians_per_residual": "ratio",
    "periodic.self_s": "s",
    "dynamics.rhs_per_step": "ratio",
    "dynamics.self_s": "s",
    "events.crossings": "count",
    "events.degenerate": "count",
    "relay.switches": "count",
    "relay.cloud_points": "count",
    "relay.self_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.traced_solve_s": "s",
    "trace.overhead_s": "s",
})


def layer_metrics(tracer: Tracer, solve_untraced: float, solve_traced: float) -> dict:
    """Per-layer metrics of the traced pass. Span self times are wall
    seconds; the solve times are reference seconds, as in the untraced run."""
    calls, self_s, counters = tracer.summary()
    values: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        layer, _, part = key.rpartition(".")
        if part == "calls":
            values[key] = calls.get(layer, 0)
        elif part == "self_s" and layer in ("periodic", "dynamics", "relay"):
            values[key] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        elif part == "self_s":
            values[key] = self_s.get(layer, 0.0)
        else:
            values[key] = counters.get(key, 0)
    residuals = calls.get("periodic.shooting_residual", 0)
    values["periodic.jacobians_per_residual"] = (
        calls.get("periodic.residual_jacobian", 0) / residuals if residuals else 0.0)
    steps = counters.get("dynamics.integrate.steps", 0)
    values["dynamics.rhs_per_step"] = (
        counters["dynamics.rhs.in_integrate"] / steps if steps else 0.0)
    values["trace.untraced_solve_s"] = solve_untraced
    values["trace.traced_solve_s"] = solve_traced
    values["trace.overhead_s"] = solve_traced - solve_untraced
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(root) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": src_lines,
        "argv": sys.argv[1:],
        "cal_ref_s": CAL_REF_S,
    }
