"""Config loading, command dispatch, exit codes, file outputs."""
from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowrelay import periodic
from flowrelay.cli import load_config, main
from flowrelay.dynamics import FlowArc
from flowrelay.errors import ConfigError

from conftest import REPO_ROOT, ROTOR_CONFIG, SYSTEMB_CONFIG, ROTOR_CROSS_T


def test_load_rotor_config():
    system = load_config(ROTOR_CONFIG)
    assert system.n == 2 and system.p == 2
    assert system.beta is None
    assert system.flows[0].horizon == pytest.approx(math.pi)
    assert system.levels().tolist() == [0.0, 0.0, 0.0]


def test_load_systemb_config():
    system = load_config(SYSTEMB_CONFIG)
    assert system.beta == 1
    assert system.level_p == 0.0


def test_missing_region_key_reports_path(tmp_path):
    doc = json.loads(ROTOR_CONFIG.read_text())
    del doc["regions"][1]["f"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert "regions[1].f" in str(exc.value)


def test_expression_typo_carries_parser_position(tmp_path):
    doc = json.loads(ROTOR_CONFIG.read_text())
    doc["flows"][0]["field"][0] = "sin(x2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert "flows[0].field[0]" in str(exc.value)
    assert "position" in str(exc.value)


def test_integrator_block_rejected(tmp_path, capsys):
    doc = json.loads(ROTOR_CONFIG.read_text())
    doc["flows"][0]["integrator"] = {"rtol": 1e-6}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert exc.value.keypath == "flows[0].integrator"
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error: flows[0].integrator" in capsys.readouterr().err


def test_field_without_components_names_the_field(tmp_path, capsys):
    # dimension 0 admits empty fields, which VectorField refuses: the error
    # names the field, not the horizon read next to it
    doc = json.loads(SYSTEMB_CONFIG.read_text())
    doc["dimension"] = 0
    for fd in doc["flows"]:
        fd["field"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert exc.value.keypath == "flows[0].field"
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("config error: flows[0].field: vector "
                                       "field needs at least one component\n")


def _set_key(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# config values refused at the door, as name: (key path, bad value, the key
# the error names)
_BAD_VALUES = {
    "T infinite": (("flows", 0, "T"), math.inf, "flows[0].T"),
    "T nan": (("flows", 0, "T"), math.nan, "flows[0].T"),
    "T negative": (("flows", 1, "T"), -1.0, "flows[1].T"),
    "T huge integer": (("flows", 1, "T"), 10 ** 400, "flows[1].T"),
    "lambda string": (("regions", 0, "lambda"), "abc", "regions[0].lambda"),
    "lambda nan": (("regions", 1, "lambda"), math.nan, "regions[1].lambda"),
    "lambda_p list": (("lambda_p",), [1], "lambda_p"),
    "lambda_p infinite": (("lambda_p",), -math.inf, "lambda_p"),
    "box nan": (("bounding_box", 0, 1), math.nan, "bounding box"),
    "box inverted": (("bounding_box", 1), [-5, 4], "bounding box"),
    "beta fractional": (("beta",), 1.7, "beta"),
    "beta bool": (("beta",), True, "beta"),
    "field literal overflow": (("flows", 0, "field", 0), "1e999*x1",
                               "flows[0].field[0]"),
    "level literal overflow": (("regions", 1, "f"), "0.25 - 1e400*x1^2",
                               "regions[1].f"),
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_bad_config_values_fail_at_the_door(tmp_path, capsys, case):
    # json reads Infinity and NaN; each value is refused before any integration
    path, value, named = _BAD_VALUES[case]
    doc = json.loads(SYSTEMB_CONFIG.read_text())
    _set_key(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(bad)
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("box, command", [
    ([[-1e308, -4], [1e308, 4]], ["validate"]),
    ([[-1e308, -4], [1e308, 4]], ["accessible", "--x0", "1.5,0"]),
    ([[0, 0], [1.5e308, 1.5e308]], ["validate"]),
], ids=["width validate", "width accessible", "diameter validate"])
def test_box_that_overflows_is_a_config_error(tmp_path, capsys, box, command):
    # finite corners, but hi - lo or the diagonal overflows to inf
    doc = json.loads(SYSTEMB_CONFIG.read_text())
    doc["bounding_box"] = box
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main([command[0], "--config", str(bad), *command[1:],
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "bounding box" in err
    assert not (tmp_path / "out").exists()


def test_nonexistent_config():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")


def test_validate_exit_codes(tmp_path):
    rc = main(["validate", "--config", str(SYSTEMB_CONFIG),
               "--out", str(tmp_path / "b"), "--samples", "64"])
    assert rc == 0
    report = json.loads((tmp_path / "b" / "validate_report.json").read_text())
    assert report["outcome"] == "ok"
    assert report["seed"] == 0

    rc = main(["validate", "--config", str(ROTOR_CONFIG),
               "--out", str(tmp_path / "r"), "--samples", "64"])
    assert rc == 2
    report = json.loads((tmp_path / "r" / "validate_report.json").read_text())
    assert report["metrics"]["failures"] == [["entry", 2]]


def test_validate_without_interior_is_a_failed_validation(tmp_path, capsys):
    doc = json.loads(SYSTEMB_CONFIG.read_text())
    doc["regions"][0]["f"] = "0.01 - ((x1-1)^2 + x2^2)"
    doc["regions"][1]["f"] = "0.01 - ((x1+1)^2 + x2^2)"
    config = tmp_path / "small_disks.json"
    config.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "absorb[1] FAIL margin=-inf region 0 has no interior in the box" in \
        capsys.readouterr().out
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["outcome"] == "validation_failed"
    assert ["absorb", 1] in report["metrics"]["failures"]

    def strict(name):
        raise ValueError(f"{name} is not JSON (RFC 8259)")

    validation = json.loads((tmp_path / "validation.json").read_text(),
                            parse_constant=strict)
    absorb, = [c for c in validation["conditions"] if c["name"] == "absorb"]
    assert absorb["margin"] is None


def test_validate_with_an_unsampled_boundary_fails_with_null_margins(tmp_path,
                                                                     capsys):
    # boundary 1 is a circle around (10, 0), outside the box [-4, 4]^2
    doc = json.loads(SYSTEMB_CONFIG.read_text())
    doc["regions"][1]["f"] = "0.25 - ((x1-10)^2 + x2^2)"
    config = tmp_path / "far_disk.json"
    config.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(config), "--samples", "16",
               "--out", str(tmp_path)])
    assert rc == 2
    out = capsys.readouterr().out
    note = ("no boundary of region 1 at level 0.0 found in the box after "
            "20 batches")
    assert f"regular[1] FAIL margin=-inf {note}" in out
    for name in ("disjoint", "entry"):
        assert f"{name}[2] FAIL margin=-inf no source boundary samples" in out
    validation = json.loads((tmp_path / "validation.json").read_text())
    unsampled = {(c["name"], c["index"]): c for c in validation["conditions"]
                 if c["margin"] is None}
    assert sorted(unsampled) == [("absorb", 1), ("disjoint", 2), ("entry", 2),
                                 ("regular", 1)]
    assert unsampled["regular", 1]["note"] == note
    # absorb[1] has no boundary 1 to read its inward cosine on
    assert unsampled["absorb", 1]["note"] == "no boundary samples"
    assert not any(c["passed"] for c in unsampled.values())
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["outcome"] == "validation_failed"


def test_validate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the batch stepper's stage sums are BLAS matrix products
    outputs = []
    for name, threads in (("one", "1"), ("default", None)):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "flowrelay", "validate", "--config",
             str(SYSTEMB_CONFIG), "--seed", "7", "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / name / "validation.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_sample_count_beyond_memory_is_a_one_line_error(tmp_path, capsys,
                                                       monkeypatch):
    # --seeds 1000000000 asks sample_boundary for a 4m x n batch of 59.6 GiB
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setattr(periodic, "sample_boundary", too_large)
    rc = main(["find-periodic", "--config", str(SYSTEMB_CONFIG), "--seeds",
               "1000000000", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: MemoryError: Unable to allocate 59.6 GiB\n"


def test_crossings_command_matches_closed_form(tmp_path):
    rc = main(["crossings", "--config", str(ROTOR_CONFIG), "--flow", "1",
               "--region", "1", "--x0", "1.3,0", "--window", str(2 * math.pi),
               "--out", str(tmp_path)])
    assert rc == 0
    with (tmp_path / "crossings.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((tmp_path / "crossings_report.json").read_text())
    assert len(rows) == report["metrics"]["count"] == 2
    assert abs(float(rows[0]["t"]) - ROTOR_CROSS_T) < 1e-6
    assert abs(float(rows[1]["t"]) - (2 * math.pi - ROTOR_CROSS_T)) < 1e-6


def test_simulate_command_files(tmp_path):
    rc = main(["simulate", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
               "--k0", "0", "--max-switches", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["metrics"]["switches"] == 3
    with (tmp_path / "trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["metrics"]["rows"]
    assert list(rows[0].keys()) == ["t", "mode", "x1", "x2"]
    switches = json.loads((tmp_path / "switches.json").read_text())
    assert len(switches) == 3


def test_simulate_samples_each_segment_once(tmp_path, monkeypatch):
    # the CSV rows and the strict-mode check read one table per segment
    calls = []
    sample = FlowArc.sample

    def counted(self, taus):
        calls.append(len(taus))
        return sample(self, taus)

    monkeypatch.setattr(FlowArc, "sample", counted)
    rc = main(["simulate", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
               "--max-switches", "10", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == [256] * 10


@pytest.mark.parametrize("config, flags, strict", [
    (ROTOR_CONFIG, ["--x0", "1.0,0", "--policy", "nth:2", "--max-switches", "4"],
     False),
    (SYSTEMB_CONFIG, ["--x0", "1.5,0", "--max-switches", "10"], True),
])
def test_strict_mode_reads_the_csv_states(tmp_path, config, flags, strict):
    rc = main(["simulate", "--config", str(config), *flags,
               "--out", str(tmp_path)])
    assert rc == 0
    metrics = json.loads((tmp_path / "simulate_report.json").read_text())["metrics"]
    with (tmp_path / "trajectory.csv").open() as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    system = load_config(config)
    levels = system.levels()
    excess = 0.0
    for mode in range(system.p):
        states = np.array([row[2:] for row in rows if row[1] == mode])
        region = system.chain_region((mode + 1) % system.p, levels)
        excess = max(excess, float((region.f.evaluate(states) - region.level).max()))
    assert metrics["strict_mode"] is strict
    assert metrics["strict_mode_excess"] == excess


def test_simulate_requires_stop_flag(tmp_path):
    rc = main(["simulate", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
               "--out", str(tmp_path)])
    assert rc == 1


def test_lambda_flag_override(tmp_path):
    rc = main(["validate", "--config", str(SYSTEMB_CONFIG), "--samples", "64",
               "--lambda", "0.02,0.02,0.02", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "validation.json").read_text())
    assert payload["levels"] == [0.02, 0.02, 0.02]


def test_lambda_flag_length_checked(tmp_path):
    rc = main(["validate", "--config", str(SYSTEMB_CONFIG),
               "--lambda", "0.0,0.0", "--out", str(tmp_path)])
    assert rc == 1


def test_degree_check_command(tmp_path):
    rc = main(["degree-check", "--config", str(SYSTEMB_CONFIG),
               "--samples", "5", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "degree_check.json").read_text())
    assert payload["start_parity_uniform"] == [1]
    assert payload["end_parity_uniform"] == [0]
    assert payload["degenerate_rate"] < 0.2


def test_accessible_command(tmp_path):
    rc = main(["accessible", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
               "--depth", "2", "--breadth", "16", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "accessible_report.json").read_text())
    assert report["metrics"]["connected"] is True
    with (tmp_path / "points.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["metrics"]["points"]


def test_find_periodic_command(tmp_path):
    rc = main(["find-periodic", "--config", str(SYSTEMB_CONFIG),
               "--seeds", "4", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    orbits = json.loads((tmp_path / "orbits.json").read_text())
    assert len(orbits) >= 1
    assert orbits[0]["residual_norm"] < 1e-8
    assert orbits[0]["verification"]["closure"] < 1e-6
    assert set(orbits[0]) == {"start", "durations", "period", "levels",
                              "residual_norm", "monodromy_moduli",
                              "verification"}
    assert set(orbits[0]["verification"]) == {"closure", "margins",
                                              "matched_indices",
                                              "max_time_mismatch"}


def test_find_periodic_unequal_closing_level_is_config_error(tmp_path, capsys):
    for flags in (["--lambda", "0,0,0.01"],
                  ["--continue-from", "0.01,0,0"]):
        rc = main(["find-periodic", "--config", str(SYSTEMB_CONFIG),
                   "--seeds", "4", "--out", str(tmp_path)] + flags)
        assert rc == 1
        assert f"config error: {flags[0]}" in capsys.readouterr().err


def test_numeric_failure_exit_code(tmp_path):
    # a start point whose mode-0 flow never reaches boundary 1
    rc = main(["simulate", "--config", str(ROTOR_CONFIG), "--x0", "2.5,0",
               "--max-switches", "1", "--out", str(tmp_path)])
    assert rc == 3


def test_start_on_watched_boundary_is_a_config_error(tmp_path, capsys):
    common = ["--config", str(ROTOR_CONFIG), "--out", str(tmp_path)]
    for args in (["crossings", "--flow", "1", "--region", "0", "--x0", "1.3,0",
                  "--window", "3"],
                 ["simulate", "--x0=-0.6,0", "--max-switches", "1"],
                 ["accessible", "--x0=-0.6,0", "--depth", "1"]):
        rc = main(args + common)
        err = capsys.readouterr().err
        assert (rc, err) == (1, "config error: start point lies on the "
                                "watched boundary\n"), args


def test_malformed_flags_are_config_errors(capsys):
    # argparse's own exit code 2 would read as a failed validation
    for args in (["validate", "--config", str(SYSTEMB_CONFIG), "--samples", "abc"],
                 ["validate"]):
        rc = main(args)
        err = capsys.readouterr().err
        assert (rc, err.startswith("config error:")) == (1, True), (args, err)
    for args in (["--help"], ["--version"], ["validate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "flowrelay", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_random_policy_rerun_is_byte_identical(tmp_path):
    outputs = []
    for d in ("a", "b"):
        rc = main(["simulate", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
                   "--policy", "random", "--seed", "5", "--max-switches", "10",
                   "--out", str(tmp_path / d)])
        assert rc == 0
        outputs.append([(tmp_path / d / name).read_bytes() for name in
                        ("trajectory.csv", "switches.json", "simulate_report.json")])
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][2])
    assert report["seed"] == 5 and report["metrics"]["switches"] == 10


def test_reports_byte_identical(tmp_path):
    for d in ("a", "b"):
        rc = main(["degree-check", "--config", str(SYSTEMB_CONFIG),
                   "--samples", "4", "--seed", "9",
                   "--out", str(tmp_path / d)])
        assert rc == 0
    a = (tmp_path / "a" / "degree_check.json").read_bytes()
    b = (tmp_path / "b" / "degree_check.json").read_bytes()
    assert a == b
    ra = (tmp_path / "a" / "degree-check_report.json").read_bytes()
    rb = (tmp_path / "b" / "degree-check_report.json").read_bytes()
    assert ra == rb


REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "config_sha256", "seed", "outcome",
                 "metrics", "artifacts", "version"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "string"},
        "config_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed": {"type": "integer"},
        "outcome": {"type": "string"},
        "metrics": {"type": "object"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "version": {"type": "string"},
    },
    "additionalProperties": False,
}


def test_reports_validate_against_schema(tmp_path):
    import jsonschema

    cases = [
        (["validate", "--config", str(SYSTEMB_CONFIG), "--samples", "64"], "validate"),
        (["crossings", "--config", str(ROTOR_CONFIG), "--flow", "1",
          "--region", "1", "--x0", "1.3,0", "--window", "3.0"], "crossings"),
        (["simulate", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
          "--max-switches", "1"], "simulate"),
        (["degree-check", "--config", str(SYSTEMB_CONFIG), "--samples", "2"],
         "degree-check"),
        (["accessible", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0",
          "--depth", "1"], "accessible"),
    ]
    for i, (args, command) in enumerate(cases):
        out = tmp_path / str(i)
        assert main(args + ["--out", str(out)]) in (0, 2)
        report = json.loads((out / f"{command}_report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        for artifact in report["artifacts"]:
            assert (out / artifact).exists()


_SIM = ["simulate", "--config", str(SYSTEMB_CONFIG)]
_CROSS = ["crossings", "--config", str(ROTOR_CONFIG), "--flow", "1",
          "--region", "1", "--x0", "1.3,0"]
_ACC = ["accessible", "--config", str(SYSTEMB_CONFIG), "--x0", "1.5,0"]
BAD_INPUTS = [
    _SIM + ["--x0", "1.5,0", "--policy", "nth:x", "--max-switches", "1"],
    _SIM + ["--x0", "1.5", "--max-switches", "1"],
    _SIM + ["--x0", "nan,0", "--max-switches", "1"],
    _SIM + ["--x0", "1.5,0", "--max-switches", "0"],
    _SIM + ["--x0", "1.5,0", "--t-max", "-1"],
    _SIM + ["--x0", "1.5,0", "--t-max", "inf"],
    _SIM + ["--x0", "1.5,0", "--max-switches", "1", "--k0", "2"],
    _SIM + ["--x0", "a,b", "--max-switches", "1"],
    _SIM + ["--x0", "1.5,0", "--policy", "last", "--max-switches", "1"],
    _CROSS + ["--window", "0"],
    _CROSS + ["--window", "100"],   # past the ten-horizon time cap
    ["crossings", "--config", str(ROTOR_CONFIG), "--flow", "3", "--region", "1",
     "--x0", "1.3,0", "--window", "3"],
    ["crossings", "--config", str(ROTOR_CONFIG), "--flow", "1", "--region", "3",
     "--x0", "1.3,0", "--window", "3"],
    _ACC + ["--depth", "-1"],
    _ACC + ["--breadth", "0"],
    _ACC + ["--k0", "5"],
    ["validate", "--config", str(SYSTEMB_CONFIG), "--samples", "0"],
    ["validate", "--config", str(SYSTEMB_CONFIG), "--seed", "-1"],
    ["find-periodic", "--config", str(SYSTEMB_CONFIG), "--seeds", "0"],
    ["find-periodic", "--config", str(SYSTEMB_CONFIG), "--lambda", "inf,0,inf"],
    ["degree-check", "--config", str(SYSTEMB_CONFIG), "--samples", "0"],
]


def test_bad_policy_and_x0_dimension_are_config_errors(tmp_path, capsys):
    # every out-of-range flag is refused before any work, with exit 1
    for args in BAD_INPUTS:
        rc = main(args + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (rc, err.startswith("config error:")) == (1, True), (args, err)
