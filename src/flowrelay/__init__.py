"""flowrelay: cyclic relays of smooth flows switching on level-set boundaries.

Core pieces: an expression language for fields and level functions (expr),
level-set regions and system hypothesis validation (geometry), adaptive flow
integration with variational Jacobians (dynamics), boundary-crossing location
and parity checks (events), switching-trajectory simulation and
reachability clouds (relay), and a shooting/continuation solver for periodic
switching orbits (periodic).
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .dynamics import Flow, FlowArc, VectorField, flow_map
from .events import (CrossingEvent, CrossingTree, backward_leaf_parity,
                     backward_tree, degree_check, find_crossings,
                     forward_leaf_parity, forward_tree)
from .expr import Expression, parse
from .geometry import Region, RelaySystem, sample_boundary, validate_system
from .periodic import (PeriodicOrbit, SolveOptions, SwitchingVector,
                       continue_levels, find_periodic, orbit_hausdorff,
                       shooting_residual, verify_periodic)
from .relay import (FirstHit, NthHit, RandomHit, Trajectory, accessible_set,
                    check_connected, simulate, strict_mode_check)
from .cli import load_config

__all__ = [
    "__version__",
    "errors",
    "parse", "Expression",
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
]
