"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from flowrelay import events  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def tiny():
    """Every workload cut to about a dozen cheap ops, one pass, one set-up."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "SETUP_REPEATS", 1)
        mp.setattr(harness, "MIN_PASSES", 1)
        # shoot: converging seeds only, one per op
        mp.setattr(workloads, "SB_ANGLES", tuple(k * math.pi / 4 for k in (0, 1, 2, 5, 6, 7)))
        mp.setattr(workloads, "SB_OP_SEEDS", 1)
        mp.setattr(workloads, "ROTOR_ANGLES", (math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4))
        mp.setattr(workloads, "CONTINUE_OPS", 2)
        mp.setattr(workloads, "PARITY_FORWARD", 2)
        mp.setattr(workloads, "PARITY_BACKWARD", 2)
        mp.setattr(workloads, "SIMULATE_PER_SYSTEM", 3)
        mp.setattr(workloads, "ACCESSIBLE_PER_SYSTEM", 1)
        mp.setattr(workloads, "ROTOR_NTH_OPS", 1)
        mp.setattr(workloads, "SWEEP_MIX", {1024: 4})
        yield


def run(name: str, trace: bool) -> dict:
    return harness.run(name, 3, 0.0, trace, t_start=perf_counter())


@pytest.fixture(scope="module")
def traced_shoot():
    return [run("shoot", True) for _ in range(2)]


def _names_units(metrics: dict) -> dict:
    return {k: m["unit"] for k, m in metrics.items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(name):
    res = run(name, False)
    assert res["failed"] == 0, [r for r in res["ops"] if r["status"] in ("error", "wrong")]
    assert _names_units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", ["scan", "sweep"])   # shoot: see traced_shoot
def test_tiny_traced_run_emits_every_layer_metric(name):
    res = run(name, True)
    assert res["failed"] == 0
    assert _names_units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_traced_counts_repeat_exactly(traced_shoot):
    a, b = (r["metrics"] for r in traced_shoot)
    assert _names_units(a) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [k for k, m in a.items() if m["unit"] in ("count", "ratio")]
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}
    assert a["periodic.shooting_residual.calls"]["value"] > 0


def test_flow_maps_are_p_per_residual_on_shoot(traced_shoot):
    m = traced_shoot[0]["metrics"]
    assert m["dynamics.flow_map.calls"]["value"] == 2 * m["periodic.shooting_residual.calls"]["value"]


def test_corrupted_output_counts_as_failed(monkeypatch):
    true_parity = events.forward_leaf_parity
    monkeypatch.setattr(events, "forward_leaf_parity",
                        lambda *a, **k: 1 - true_parity(*a, **k))
    res = run("scan", False)
    forward = 2 * workloads.PARITY_FORWARD
    assert res["failed"] == forward
    assert res["fail_frac"] == forward / res["attempted"]
    assert {r["detail"] for r in res["ops"] if r["status"] == "wrong"} == {
        "forward_leaf_parity 0, expected 1"}


def test_tail_needs_ten_ops_beyond():
    assert harness.tail(list(range(10))) is None
    assert harness.tail(list(range(11))) == (100.0 / 11, 0)
    assert harness.tail(list(range(40, 0, -1))) == (75.0, 30)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
