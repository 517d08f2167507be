"""Write sweep_reference.json: the worst margins and failures of every
validate_system op the sweep workload can draw.

    python3 perfbench/make_reference.py

The sweep oracle compares each op against this table, so it records the
margins of the code it was made with; regenerate it only on purpose.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from flowrelay import geometry  # noqa: E402


def main() -> int:
    systems = workloads.load_systems(*workloads.SWEEP_SYSTEMS)
    table = {}
    for name in workloads.SWEEP_SYSTEMS:
        for li, levels in enumerate(workloads.SWEEP_LEVELS[name]):
            for m in workloads.SWEEP_SIZES:
                for vseed in workloads.SWEEP_SEEDS:
                    rep = geometry.validate_system(systems[name], np.array(levels),
                                                   m=m, seed=vseed)
                    failures = [list(f) for f in rep.failures]
                    if failures != workloads.EXPECTED_FAILURES[name]:
                        sys.exit(f"{name} levels {levels}: failures {failures}")
                    table[workloads.sweep_key(name, li, m, vseed)] = {
                        "failures": failures, "margins": workloads.margins_of(rep)}
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} entries -> {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
