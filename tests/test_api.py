"""The public surface: every exported name resolves, and nothing else is
exported."""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    "flowrelay": [
        "__version__", "errors", "parse", "Expression",
        "Region", "RelaySystem", "sample_boundary", "validate_system",
        "VectorField", "Flow", "FlowArc", "flow_map",
        "CrossingEvent", "CrossingTree", "find_crossings", "forward_tree",
        "backward_tree", "forward_leaf_parity", "backward_leaf_parity",
        "degree_check",
        "FirstHit", "NthHit", "RandomHit", "Trajectory", "simulate",
        "accessible_set", "check_connected", "strict_mode_check",
        "SwitchingVector", "PeriodicOrbit", "SolveOptions", "shooting_residual",
        "find_periodic", "continue_levels", "verify_periodic", "orbit_hausdorff",
        "load_config",
    ],
    "flowrelay.cli": ["load_config", "main"],
    "flowrelay.dynamics": [
        "VectorField", "Flow", "FlowArc", "integrate", "flow_map",
        "flow_map_with_jacobian", "flow_map_points",
    ],
    "flowrelay.events": [
        "DEFAULT_EVENTS", "CrossingEvent", "TreeNode", "CrossingTree",
        "find_crossings", "forward_tree", "backward_tree",
        "forward_leaf_parity", "backward_leaf_parity", "degree_check",
        "DegreeCheckResult",
    ],
    "flowrelay.expr": [
        "Expression", "Node", "Num", "Var", "Neg", "Fun", "Add", "Sub", "Mul",
        "Div", "Pow", "parse", "FUNCTIONS",
    ],
    "flowrelay.geometry": [
        "Region", "RelaySystem", "BoundarySamples", "ConditionResult",
        "ValidationReport", "sample_boundary", "validate_system",
    ],
    "flowrelay.periodic": [
        "SwitchingVector", "PeriodicOrbit", "VerificationReport",
        "SolveOptions", "ContinuationPath", "chain_points",
        "shooting_residual", "residual_jacobian", "find_periodic",
        "continue_levels", "verify_periodic", "orbit_points",
        "orbit_hausdorff",
    ],
    "flowrelay.relay": [
        "FirstHit", "NthHit", "RandomHit", "SwitchPolicy", "Segment",
        "SwitchEvent", "Trajectory", "PointCloud", "simulate",
        "accessible_set", "strict_mode_check",
        "check_connected", "cloud_spacing",
    ],
}
MODULES = list(EXPORTS)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_is_the_pinned_surface(name):
    mod = importlib.import_module(name)
    assert sorted(mod.__all__) == sorted(EXPORTS[name])


def test_shooting_settings_are_the_seed_budget_and_rng_seed():
    import dataclasses
    import inspect

    from flowrelay import periodic

    names = [f.name for f in dataclasses.fields(periodic.SolveOptions)]
    assert names == ["max_seeds", "seed"]
    with pytest.raises(TypeError):
        periodic.SolveOptions(window_factor=3.0)
    # the duration window stays readable: perfbench searches seeds over it
    assert periodic.SolveOptions().window_factor == 2.0
    params = list(inspect.signature(periodic.continue_levels).parameters)
    assert params == ["system", "sv", "levels_from", "levels_to"]
    orbit_fields = [f.name for f in dataclasses.fields(periodic.PeriodicOrbit)]
    assert "window_factor" not in orbit_fields
    # the transversality margins are the replay's, in orbit.verification
    assert "margins" not in orbit_fields


# imports the CLI, runs each command line given on systemb and prints their
# exit codes with the names of the scipy modules then loaded; between them
# the commands reach the integrator, the root polish of find_crossings and
# the neighbour search of check_connected
_SCIPY_PROBE = """
import json, sys
from flowrelay import cli
config, out = sys.argv[1:3]
rcs = [cli.main(cmd.split() + ["--config", config, "--out", out])
       for cmd in sys.argv[3:]]
print(json.dumps([rcs, sorted(m for m in sys.modules
                              if m == "scipy" or m.startswith("scipy."))]))
"""
_PROBED_COMMANDS = ["validate", "find-periodic --seeds 4",
                    "accessible --x0 1.5,0 --depth 2",
                    "degree-check --samples 5"]


def test_runtime_imports_no_scipy(tmp_path):
    # the library needs only numpy at run time; scipy is a test-only oracle
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE,
         str(REPO_ROOT / "configs" / "systemb.json"), str(tmp_path / "out"),
         *_PROBED_COMMANDS],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rcs, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rcs == [0] * len(_PROBED_COMMANDS)
    assert loaded == []
