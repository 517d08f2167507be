"""Span tracer for the traced benchmark run.

Wraps the public layer functions of flowrelay, and the Expression /
VectorField methods, in place. A function is replaced in every flowrelay
module namespace that holds it (``periodic`` imports ``flow_map`` by name, so
patching ``dynamics`` alone would miss those calls). Spans carry name, start,
end, parent span and op id; they are kept in flat typed arrays in memory and
written out once, when the run ends. Work counters (rows, steps, crossings,
switches, cloud points, degenerate crossings) are taken at the same
boundaries.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _layers():
    """(span name, owner, attribute, counter hook) for every traced boundary.

    A hook gets (tracer, span name, args, result) after a normal return and
    adds to the tracer's work counters.
    """
    from flowrelay import dynamics, events, expr, geometry, periodic, relay

    def rows_of_arg(i):
        return lambda tr, name, args, out: tr.add(name + ".rows", _rows(args[i]))

    return [
        ("expr.evaluate", expr.Expression, "evaluate", rows_of_arg(1)),
        ("expr.gradient", expr.Expression, "gradient", rows_of_arg(1)),
        ("dynamics.rhs", dynamics.VectorField, "__call__", None),
        ("dynamics.rhs_batch", dynamics.VectorField, "value_batch", rows_of_arg(1)),
        ("dynamics.field_jacobian", dynamics.VectorField, "jacobian", None),
        ("dynamics.integrate", dynamics, "integrate",
         lambda tr, name, args, out: tr.add(name + ".steps", len(out.ts) - 1)),
        ("dynamics.flow_map", dynamics, "flow_map", None),
        ("dynamics.flow_map_with_jacobian", dynamics, "flow_map_with_jacobian", None),
        ("dynamics.flow_map_points", dynamics, "flow_map_points", rows_of_arg(2)),
        ("geometry.sample_boundary", geometry, "sample_boundary",
         lambda tr, name, args, out: tr.add(name + ".rows", len(out))),
        ("geometry.validate_system", geometry, "validate_system", None),
        ("events.find_crossings", events, "find_crossings",
         lambda tr, name, args, out: tr.add("events.crossings", len(out))),
        ("events.tree", events, "forward_tree", None),
        ("events.tree", events, "backward_tree", None),
        ("events.forward_leaf_parity", events, "forward_leaf_parity", None),
        ("events.backward_leaf_parity", events, "backward_leaf_parity", None),
        ("relay.simulate", relay, "simulate",
         lambda tr, name, args, out: tr.add("relay.switches", len(out.switches))),
        ("relay.accessible_set", relay, "accessible_set",
         lambda tr, name, args, out: tr.add("relay.cloud_points", len(out))),
        ("periodic.shooting_residual", periodic, "shooting_residual", None),
        ("periodic.residual_jacobian", periodic, "residual_jacobian", None),
        ("periodic.orbit_hausdorff", periodic, "orbit_hausdorff", None),
        ("periodic.verify_periodic", periodic, "verify_periodic", None),
        ("periodic.continue_levels", periodic, "continue_levels", None),
        ("periodic.find_periodic", periodic, "find_periodic", None),
    ]


class Tracer:
    """Records spans of the op currently set in ``op`` (-1: record nothing)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.opid = array("q")
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] += value

    def _wrap(self, name: str, fn, hook):
        from flowrelay.errors import DegenerateCrossing

        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tr = self
        stack = self._stack

        def traced(*args, **kwargs):
            if tr.op < 0:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.opid.append(tr.op)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except DegenerateCrossing:
                if name == "events.find_crossings":
                    tr.counters["events.degenerate"] += 1
                raise
            finally:
                tr.end[idx] = perf_counter()
                tr.start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tr, name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every traced function in every flowrelay namespace."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "flowrelay" or k.startswith("flowrelay."))]
        for name, owner, attr, hook in _layers():
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.opid, dtype=np.int64).copy(),
        }

    def summary(self) -> tuple[Counter, dict[str, float], Counter]:
        """(calls per span name, self seconds per span name, counters).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        calls = Counter()
        self_s: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            calls[name] = int(sel.sum())
            self_s[name] = float(own[sel].sum())
        direct_rhs = 0
        if "dynamics.rhs" in self._name_id and "dynamics.integrate" in self._name_id:
            rhs = a["name"] == self._name_id["dynamics.rhs"]
            par = a["parent"][rhs]
            par = par[par >= 0]
            direct_rhs = int((a["name"][par] == self._name_id["dynamics.integrate"]).sum())
        counters = Counter(self.counters)
        counters["dynamics.rhs.in_integrate"] = direct_rhs
        return calls, self_s, counters

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
