"""Command-line interface: config loading, command dispatch, report export.

Every run writes one JSON report (plus CSV/JSON data files) into the output
directory. Reports contain no timestamps and all randomness flows from the
--seed flag, so identical (config, command, seed) triples produce
byte-identical outputs.

Exit codes: 0 success, 1 usage/config error (including a malformed or
missing flag and a start point on the watched boundary), 2
hypothesis-validation failure, 3 numeric failure (no convergence,
degenerate crossing, stalled continuation, integration failure).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import events as ev
from . import geometry as geo
from . import periodic as per
from . import relay
from .dynamics import TIME_CAP_FACTOR, Flow, VectorField
from .errors import (BoundaryNotFound, ConfigError, ContinuationStalled,
                     DegenerateCrossing, DegenerateJacobian, FlowRelayError,
                     IntegrationError, NoConvergence, NoCrossingWithinHorizon,
                     ParseError, StartOnBoundary)
from .expr import parse as parse_expr

__all__ = ["load_config", "main"]

_NUMERIC_ERRORS = (NoConvergence, DegenerateCrossing, DegenerateJacobian,
                   ContinuationStalled, IntegrationError,
                   NoCrossingWithinHorizon, BoundaryNotFound)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _req(doc: dict, key: str, kind, path: str):
    """doc[key] as a kind; a float must be finite, and a bool is no number."""
    if key not in doc:
        raise ConfigError(f"{path}{key}", "missing")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(
            val, (int, float) if kind is float else kind):
        raise ConfigError(f"{path}{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    if kind is float:
        try:
            val = float(val)
        except OverflowError:  # an integer literal past the float range
            val = math.inf
        if not math.isfinite(val):
            raise ConfigError(f"{path}{key}", f"expected a finite number, got {val}")
    return val


def _opt(doc: dict, key: str, kind, path: str, default):
    """Like _req, with default for an absent or null key."""
    return default if doc.get(key) is None else _req(doc, key, kind, path)


def _parse_field(text, n: int, path: str):
    if not isinstance(text, str):
        raise ConfigError(path, f"expected an expression string, got {type(text).__name__}")
    try:
        return parse_expr(text, n)
    except ParseError as exc:
        raise ConfigError(path, str(exc)) from exc


def load_config(path: str | Path) -> geo.RelaySystem:
    """Load and validate a JSON system config into a RelaySystem."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "file not found")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")

    n = _req(doc, "dimension", int, "")
    p = _req(doc, "p", int, "")
    box = _req(doc, "bounding_box", list, "")
    flows_doc = _req(doc, "flows", list, "")
    regions_doc = _req(doc, "regions", list, "")
    if len(flows_doc) != p:
        raise ConfigError("flows", f"expected {p} entries, got {len(flows_doc)}")
    if len(regions_doc) != p:
        raise ConfigError("regions", f"expected {p} entries, got {len(regions_doc)}")

    flows = []
    for k, fd in enumerate(flows_doc):
        prefix = f"flows[{k}]."
        if not isinstance(fd, dict):
            raise ConfigError(f"flows[{k}]", "expected an object")
        comps = _req(fd, "field", list, prefix)
        if len(comps) != n:
            raise ConfigError(f"{prefix}field", f"expected {n} components, got {len(comps)}")
        exprs = [_parse_field(c, n, f"{prefix}field[{j}]") for j, c in enumerate(comps)]
        try:
            field = VectorField(exprs)
        except ValueError as exc:
            raise ConfigError(f"{prefix}field", str(exc)) from exc
        horizon = _req(fd, "T", float, prefix)
        if "integrator" in fd:
            raise ConfigError(f"{prefix}integrator",
                              "not supported: every flow is integrated with "
                              "DOP853 at rtol 1e-10, atol 1e-12")
        try:
            flows.append(Flow(field, horizon))
        except ValueError as exc:
            raise ConfigError(f"{prefix}T", str(exc)) from exc

    regions = []
    for i, rd in enumerate(regions_doc):
        prefix = f"regions[{i}]."
        if not isinstance(rd, dict):
            raise ConfigError(f"regions[{i}]", "expected an object")
        f = _parse_field(_req(rd, "f", str, prefix), n, f"{prefix}f")
        level = _opt(rd, "lambda", float, prefix, 0.0)
        regions.append(geo.Region(f, level, index=i))

    try:
        return geo.RelaySystem(
            n=n, p=p, flows=tuple(flows), regions=tuple(regions), box=box,
            level_p=_opt(doc, "lambda_p", float, "", None),
            beta=_opt(doc, "beta", int, "", None))
    except ValueError as exc:
        raise ConfigError(str(path), str(exc)) from exc


# ---------------------------------------------------------------------------
# Report / file helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                               allow_nan=False) + "\n")


_OUTCOMES = {0: "ok", 2: "validation_failed"}  # by exit code


def _write_report(outdir: Path, args, code: int, metrics: dict,
                  artifacts: list[str]) -> None:
    config_path = Path(args.config)
    _write_json(outdir / f"{args.command}_report.json", {
        "command": args.command,
        "config": str(config_path),
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "seed": args.seed,
        "outcome": _OUTCOMES[code],
        "metrics": metrics,
        "artifacts": artifacts,
        "version": __version__,
    })


def _parse_vector(text: str, name: str, length: int | None = None) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(name, f"expected comma-separated numbers, got {text!r}") from exc
    if length is not None and len(vec) != length:
        raise ConfigError(name, f"expected {length} values, got {len(vec)}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError(name, f"expected finite numbers, got {text!r}")
    return vec


def _resolve_levels(system: geo.RelaySystem, args) -> np.ndarray:
    if args.levels is None:
        return system.levels()
    return _parse_vector(args.levels, "--lambda", system.p + 1)


def _write_csv(path: Path, header: list[str], rows) -> int:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])
    return len(rows)


# ---------------------------------------------------------------------------
# Commands: each writes its data files and returns (exit code, report
# metrics, artifact names); main writes the report
# ---------------------------------------------------------------------------

def _cmd_validate(args, system, levels, outdir: Path):
    report = geo.validate_system(system, levels, m=args.samples, seed=args.seed)
    payload = report.to_dict()
    _write_json(outdir / "validation.json", payload)
    for c in report.conditions:
        print(f"{c.name}[{c.index}] {'pass' if c.passed else 'FAIL'} "
              f"margin={c.margin:.6g}{' ' + c.note if c.note else ''}")
    return (0 if report.passed else 2,
            {"passed": report.passed,
             "failures": [list(f) for f in report.failures]},
            ["validation.json"])


def _cmd_simulate(args, system, levels, outdir: Path):
    if args.max_switches is None and args.t_max is None:
        raise ConfigError("simulate", "need --max-switches or --t-max")
    if args.t_max is not None and not 0.0 < args.t_max < np.inf:
        raise ConfigError("--t-max", f"must be positive and finite, got {args.t_max}")
    x0 = _parse_vector(args.x0, "--x0", system.n)
    if args.policy == "first":
        policy = relay.FirstHit()
    elif args.policy.startswith("nth:"):
        try:
            policy = relay.NthHit(int(args.policy.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError("--policy", f"bad hit index in {args.policy!r}") from exc
    elif args.policy == "random":
        policy = relay.RandomHit(args.seed)
    else:
        raise ConfigError("--policy", f"unknown policy {args.policy!r}")
    traj = relay.simulate(system, x0, args.k0, levels, policy,
                          max_switches=args.max_switches, t_max=args.t_max)
    strict, strict_excess = relay.strict_mode_check(system, traj)
    rows = [[seg.t0 + tau, seg.mode, *state] for seg in traj.segments
            for tau, state in zip(*seg.samples)]
    count = _write_csv(outdir / "trajectory.csv",
                       ["t", "mode"] + [f"x{i + 1}" for i in range(system.n)],
                       rows)
    _write_json(outdir / "switches.json",
                [dataclasses.asdict(s) for s in traj.switches])
    print(f"{len(traj.switches)} switches, final time {traj.final_time:.6g}")
    return (0, {"switches": len(traj.switches), "rows": count,
                "final_time": traj.final_time,
                "final_state": list(traj.final_state),
                "strict_mode": strict,
                "strict_mode_excess": strict_excess},
            ["trajectory.csv", "switches.json"])


def _cmd_crossings(args, system, levels, outdir: Path):
    if not 1 <= args.flow <= system.p:
        raise ConfigError("--flow", f"flow index must lie in 1..{system.p}")
    if not 0 <= args.region <= system.p:
        raise ConfigError("--region", f"region index must lie in 0..{system.p}")
    x0 = _parse_vector(args.x0, "--x0", system.n)
    flow = system.flows[args.flow - 1]
    cap = TIME_CAP_FACTOR * flow.horizon
    if not 0.0 < args.window <= cap:
        raise ConfigError("--window", f"must lie in (0, {cap:g}], the time cap "
                                      f"of flow {args.flow}; got {args.window}")
    region = system.chain_region(args.region, levels)
    evs = ev.find_crossings(flow, region, None, x0, args.window,
                            backward=args.backward)
    rows = [[e.t, *e.point, e.direction, e.margin] for e in evs]
    count = _write_csv(outdir / "crossings.csv",
                       ["t"] + [f"x{i + 1}" for i in range(system.n)]
                       + ["direction", "margin"], rows)
    print(f"{count} crossing(s): {[round(e.t, 6) for e in evs]}")
    return (0, {"count": count,
                "times": [e.t for e in evs],
                "flow": args.flow, "region": args.region,
                "window": args.window, "backward": args.backward},
            ["crossings.csv"])


def _cmd_find_periodic(args, system, levels, outdir: Path):
    opts = per.SolveOptions(max_seeds=args.seeds, seed=args.seed)
    metrics: dict = {}
    lv_from = None if args.continue_from is None else _parse_vector(
        args.continue_from, "--continue-from", system.p + 1)
    for key, lv in (("--lambda", levels), ("--continue-from", lv_from)):
        if lv is not None and lv[0] != lv[-1]:
            raise ConfigError(key, "periodic orbits need equal first and "
                                   f"closing level offsets, got {lv[0]} and {lv[-1]}")
    if lv_from is not None:
        found = per.find_periodic(system, lv_from, opts=opts)
        path = per.continue_levels(system, found[0].sv, lv_from, levels)
        orbits = [path.orbit]
        metrics["continuation_steps"] = len(path.steps)
        metrics["levels_from"] = list(lv_from)
    else:
        orbits = per.find_periodic(system, levels, opts=opts)
    _write_json(outdir / "orbits.json", [o.to_dict() for o in orbits])
    metrics.update({
        "orbits": len(orbits),
        "residuals": [o.residual_norm for o in orbits],
        "periods": [o.period for o in orbits],
        "closures": [o.verification.closure for o in orbits
                     if o.verification is not None],
    })
    print(f"{len(orbits)} orbit(s); periods "
          f"{[round(o.period, 6) for o in orbits]}")
    return 0, metrics, ["orbits.json"]


def _cmd_degree_check(args, system, levels, outdir: Path):
    res = ev.degree_check(system, levels, samples=args.samples, seed=args.seed)
    payload = res.to_dict()
    start = sorted(set(res.start_parities) - {None})
    end = sorted(set(res.end_parities) - {None})
    payload.update(start_parity_uniform=start, end_parity_uniform=end)
    _write_json(outdir / "degree_check.json", payload)
    print(f"start parities {start}, end parities {end}, "
          f"degenerate rate {res.degenerate_rate:.3f}")
    return 0, payload, ["degree_check.json"]


def _cmd_accessible(args, system, levels, outdir: Path):
    x0 = _parse_vector(args.x0, "--x0", system.n)
    cloud = relay.accessible_set(system, x0, args.k0, levels,
                                 depth=args.depth, breadth=args.breadth)
    delta_s = relay.cloud_spacing(system)
    connected, ncomp = relay.check_connected(cloud, 2.0 * delta_s)
    rows = [[*pt, int(d)] for pt, d in zip(cloud.points, cloud.depths)]
    count = _write_csv(outdir / "points.csv",
                       [f"x{i + 1}" for i in range(system.n)] + ["depth"], rows)
    print(f"{count} points, {ncomp} component(s) at delta={2 * delta_s:.4g}")
    return (0, {"points": count, "depth": args.depth,
                "breadth": args.breadth, "connected": connected,
                "components": ncomp, "delta": 2.0 * delta_s},
            ["points.csv"])


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "crossings": _cmd_crossings,
    "find-periodic": _cmd_find_periodic,
    "degree-check": _cmd_degree_check,
    "accessible": _cmd_accessible,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed or missing flag as a config error (exit 1), since
    argparse's own exit code 2 would read as a failed validation."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowrelay",
        description="Cyclic relays of smooth flows: validation, simulation, "
                    "crossing parities, periodic-orbit shooting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="system config (JSON)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="runs", help="output directory")
        sp.add_argument("--lambda", dest="levels", default=None,
                        help="level offsets v0,v1,...,vp (overrides config)")

    sp = sub.add_parser("validate", help="check the switching hypotheses")
    common(sp)
    sp.add_argument("--samples", type=int, default=256)

    sp = sub.add_parser("simulate", help="run the switching dynamics")
    common(sp)
    sp.add_argument("--x0", required=True, help="start point a,b,...")
    sp.add_argument("--k0", type=int, default=0, help="start mode (0-based)")
    sp.add_argument("--policy", default="first", help="first | nth:N | random")
    sp.add_argument("--max-switches", type=int, default=None)
    sp.add_argument("--t-max", type=float, default=None)

    sp = sub.add_parser("crossings", help="boundary crossings of one flow arc")
    common(sp)
    sp.add_argument("--flow", type=int, required=True, help="flow index 1..p")
    sp.add_argument("--region", type=int, required=True, help="region index 0..p")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--window", type=float, required=True)
    sp.add_argument("--backward", action="store_true")

    sp = sub.add_parser("find-periodic", help="shoot for periodic orbits")
    common(sp)
    sp.add_argument("--seeds", type=int, default=32, help="max auto seeds")
    sp.add_argument("--continue-from", default=None,
                    help="level offsets to solve at first, then continue to "
                         "the target offsets")

    sp = sub.add_parser("degree-check", help="boundary-sample crossing parities")
    common(sp)
    sp.add_argument("--samples", type=int, default=20)

    sp = sub.add_parser("accessible", help="branching reach cloud")
    common(sp)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--k0", type=int, default=0)
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("--breadth", type=int, default=64)

    return parser


# the lowest value of each integer flag
_FLAG_FLOORS = {"seed": 0, "samples": 1, "seeds": 1,
                "max_switches": 1, "depth": 0, "breadth": 1}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for name, low in _FLAG_FLOORS.items():
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise ConfigError("--" + name.replace("_", "-"),
                                  f"must be at least {low}, got {value}")
        system = load_config(args.config)
        if not 0 <= getattr(args, "k0", 0) < system.p:
            raise ConfigError("--k0", f"must lie in 0..{system.p - 1}, got {args.k0}")
        levels = _resolve_levels(system, args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        code, metrics, artifacts = _COMMANDS[args.command](args, system,
                                                           levels, outdir)
        _write_report(outdir, args, code, metrics, artifacts)
        return code
    except (ConfigError, StartOnBoundary) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (FlowRelayError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
