"""flowrelay benchmark: one workload per process, closed loop, checked ops.

    python3 perfbench/run.py --workload {shoot,scan,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/``. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. A per-run record (machine info, every op's outcome) and, for
traced runs, the spans go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shoot", "scan", "sweep")


def _import_library() -> None:
    """Import flowrelay from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flowrelay" / "__init__.py").is_file():
        sys.exit(f"benchmark: no flowrelay sources under {src}")
    sys.path.insert(0, str(src))
    import flowrelay
    if Path(flowrelay.__file__).resolve().parent != (src / "flowrelay").resolve():
        sys.exit(f"benchmark: imported flowrelay from {flowrelay.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import harness

    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      t_start=T_START)
    info = harness.machine_info(ROOT)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.save(out_dir / f"{stem}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps({**res, "info": info}, indent=1))

    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {res['fail_frac']:.6g} fraction "
          f"({res['failed']} of {res['attempted']} ops)")
    if "op_tail" in res:
        print(f"op_tail_ms is p{res['op_tail']['percentile']:.1f} "
              f"of {res['op_tail']['ops']} ops")
    for rec in res["ops"]:
        if rec["status"] in ("error", "wrong"):
            print(f"FAILED {rec['kind']}: {rec['detail']}")
    print("info " + json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
