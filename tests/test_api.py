"""The public surface: every exported name resolves, and nothing else is
exported."""
from __future__ import annotations

import importlib

import pytest

EXPORTS = {
    "flowrelay": [
        "__version__", "errors", "parse", "Expression",
        "Region", "RelaySystem", "sample_boundary", "saturate_level",
        "validate_system",
        "VectorField", "Flow", "FlowArc", "flow_map",
        "CrossingEvent", "CrossingTree", "find_crossings", "forward_tree",
        "backward_tree", "forward_leaf_parity", "backward_leaf_parity",
        "degree_check", "winding_degree",
        "FirstHit", "NthHit", "RandomHit", "Trajectory", "simulate",
        "accessible_set", "omega_limit_estimate", "check_connected",
        "strict_mode_check",
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
        "DegreeCheckResult", "winding_degree",
    ],
    "flowrelay.expr": [
        "Expression", "Node", "Num", "Var", "Neg", "Fun", "Add", "Sub", "Mul",
        "Div", "Pow", "parse", "FUNCTIONS",
    ],
    "flowrelay.geometry": [
        "Region", "RelaySystem", "BoundarySamples", "ConditionResult",
        "ValidationReport", "sample_boundary", "saturate_level",
        "validate_system",
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
        "accessible_set", "omega_limit_estimate", "strict_mode_check",
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
