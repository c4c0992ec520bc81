"""End-to-end runs of the command line entry point."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tqdecho
from tqdecho.cli import main

from spies import over_rotate_pulses

THETA = np.pi / 3


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def case_argv(tmp_path, name, kind, case):
    """The arguments of main for a test case: its keys that start with
    "--" are command-line flags, the others its config."""
    config = {k: v for k, v in case.items() if not k.startswith("--")}
    flags = [str(x) for k, v in case.items() if k.startswith("--") for x in (k, v)]
    return [kind, "--config", write_config(tmp_path, name, {"kind": kind, **config}), *flags]


def test_fields_run(tmp_path):
    cfg = write_config(
        tmp_path, "f.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "samples": 32},
    )
    out = tmp_path / "out"
    assert main(["fields", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[0] == "t,Bx,By,Bz,Bmag"
    mags = np.array([float(l.split(",")[4]) for l in lines[1:]])
    expected = np.sqrt(1.0 + np.sin(THETA) ** 2)
    assert np.allclose(mags, expected)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["kind"] == "fields"
    assert summary["checks"][0]["name"] == "field_magnitude_drift"


def test_evolve_run_and_phase_report(tmp_path):
    cfg = write_config(
        tmp_path, "e.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--substeps", "4096"]) == 0
    phases = json.loads((out / "phases.json").read_text())
    assert np.isclose(phases["total"], -1.5 * np.pi, atol=1e-5)
    assert np.isclose(phases["dynamical"], -np.pi, atol=1e-8)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "segment", "label"]
    assert "fidelity" in header


def test_evolve_uncorrected_has_no_gates(tmp_path):
    cfg = write_config(
        tmp_path, "e.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "corrected": False, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--substeps", "1024"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == []
    assert summary["notes"]["min_tracking_fidelity"] < 0.3
    assert not (out / "phases.json").exists()


def test_evolve_fails_at_coarse_resolution(tmp_path):
    """Loose stepping must surface as a failed check, not get hidden."""
    cfg = write_config(
        tmp_path, "e.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "samples": 16},
    )
    out = tmp_path / "out"
    # a run takes at least `samples` steps per loop, so both are 16
    rc = main(["evolve", "--config", cfg, "--out", str(out), "--substeps", "16"])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is False
    assert summary["policy"] == {"substeps": 16}
    assert "substeps" not in summary["params"]  # the flag is no config key


@pytest.mark.parametrize("omega", [0.007, 0.003])
@pytest.mark.parametrize("kind", ["echo", "evolve"])
def test_slow_loops_decompose(tmp_path, kind, omega):
    # at 256 samples these slow loops turn more than pi/4 between samples;
    # the phase unwrap that read every sample raised there, and the run
    # exited 1 without phases.json
    cfg = write_config(
        tmp_path, "c.json", {"kind": kind, "theta": np.pi / 4, "omega": omega, "omega0": 1.0}
    )
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"] if not c["passed"]] == []
    assert "phases.json" in summary["artifacts"]
    assert "error" not in summary["notes"]
    phases = json.loads((out / "phases.json").read_text())
    assert phases["geometric_deviation"] <= 1e-6


@pytest.mark.parametrize(
    "kind, omega, passing",
    [("echo", 0.007, "echo_gate_distance"), ("evolve", 0.003, "tracking_infidelity")],
)
def test_a_raising_phase_decomposition_is_a_failed_check(
    tmp_path, monkeypatch, kind, omega, passing
):
    # no built echo or loop raises any more, so the decomposition the CLI
    # imported raises in its place; such a run exited 2, as for a bad
    # config, and wrote no summary.json
    def raising(traj, label):
        raise ValueError("state does not track the labelled eigenstate")

    name = "echo_phase_decomposition" if kind == "echo" else "loop_phase_decomposition"
    monkeypatch.setattr(tqdecho.cli, name, raising)
    cfg = write_config(
        tmp_path, "c.json", {"kind": kind, "theta": np.pi / 4, "omega": omega, "omega0": 1.0}
    )
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is False
    raised, kept = summary["checks"]
    assert raised == {
        "name": "phase_decomposition_raised", "value": 1.0, "bound": 0.5, "passed": False
    }
    assert kept["name"] == passing and kept["passed"] is True
    assert summary["notes"]["error"] == "ValueError: state does not track the labelled eigenstate"
    assert "phases.json" not in summary["artifacts"]
    assert not (out / "phases.json").exists()


def test_echo_run(tmp_path):
    cfg = write_config(
        tmp_path, "echo.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["echo", "--config", cfg, "--out", str(out), "--substeps", "4096"]) == 0
    gate = json.loads((out / "gate.json").read_text())
    assert gate["distance"] <= 1e-6
    realized = np.array(
        [[complex(re, im) for re, im in row] for row in gate["realized"]]
    )
    assert realized.shape == (2, 2)
    assert np.allclose(realized @ realized.conj().T, np.eye(2), atol=1e-9)
    phases = json.loads((out / "phases.json").read_text())
    assert abs(phases["dynamical"]) < 1e-6


@pytest.mark.parametrize("omega_pi", [1e-6, 1e-30], ids=repr)
def test_echo_with_long_pulses_keeps_the_loops_time_resolution(tmp_path, omega_pi):
    # local times were absolute time minus the segment's start, so after
    # a pulse lasting pi/omega_pi the second loop lost its resolution: the
    # residual read 7.4e-11 at 1e-6, and at 1e-30 the decomposition raised
    # ("min overlap 0.7071") while the gate held to 1.1e-16
    cfg = write_config(
        tmp_path, "echo.json",
        {"theta": 0.7853981633974483, "omega": 0.7, "omega0": 1.0, "omega_pi": omega_pi},
    )
    out = tmp_path / "out"
    assert main(["echo", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    checks = {c["name"]: c["value"] for c in summary["checks"]}
    assert checks["residual_dynamical_phase"] <= 1e-14


def test_gate_run(tmp_path):
    cfg = write_config(
        tmp_path, "g.json",
        {"axis_angle": np.pi / 2, "gate_angle": np.pi / 2},
    )
    out = tmp_path / "out"
    assert main(["gate", "--config", cfg, "--out", str(out), "--substeps", "2048"]) == 0
    gate = json.loads((out / "gate.json").read_text())
    realized = np.array(
        [[complex(re, im) for re, im in row] for row in gate["realized"]]
    )
    assert np.allclose(np.abs(realized), [[0, 1], [1, 0]], atol=1e-6)


def test_twoqubit_run(tmp_path):
    cfg = write_config(
        tmp_path, "t.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5},
    )
    out = tmp_path / "out"
    assert main(["twoqubit", "--config", cfg, "--out", str(out), "--substeps", "8192"]) == 0
    gate = json.loads((out / "gate.json").read_text())
    assert np.isclose(gate["delta_omega"], 2.0 * np.pi / np.sqrt(2.0))
    assert gate["leakage"] <= 1e-6


def test_expmap_run(tmp_path):
    cfg = write_config(
        tmp_path, "x.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5, "draws": 20},
    )
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out), "--substeps", "4096"]) == 0
    doc = json.loads((out / "expmap.json").read_text())
    assert np.isclose(doc["forward"]["j_xz"], -0.25)
    assert doc["forward"]["theta_prime"] > np.pi / 2
    assert doc["reversed"]["theta_prime"] < np.pi / 2
    assert doc["max_field_deviation"] < 1e-10


def test_expmap_at_a_weak_drive_keeps_the_field_map_exact(tmp_path):
    # theta_tilde by arccos read 0 at omega_i/J = 1e-8, so the field check
    # read 5.0e-9 against its bound of 1e-10 and the run exited 1
    cfg = write_config(tmp_path, "x.json", {"omega_i": 1e-8, "coupling": 1.0, "omega": 0.5})
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    checks = {c["name"]: c["value"] for c in summary["checks"]}
    assert checks["field_map_deviation"] <= 1e-15


@pytest.mark.parametrize("omega", [1.0, -1.0], ids=repr)
def test_expmap_maps_a_drive_below_rounding(tmp_path, omega):
    # the forward theta_prime rounds to pi at omega_i = 1e-17; expmap
    # exited 2 naming that angle, a value the config never set
    cfg = write_config(tmp_path, "x.json", {"omega_i": 1e-17, "coupling": 1.0, "omega": omega})
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "expmap.json").read_text())
    angles = {doc["forward"]["theta_prime"], doc["reversed"]["theta_prime"]}
    assert angles == {np.pi, 1e-17}
    assert json.loads((out / "summary.json").read_text())["all_passed"]


def test_expmap_without_field_draws_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "x.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5, "draws": 0},
    )
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out)]) == 2
    assert "field_draws must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, config",
    [
        ("scan", {"theta": 1.0, "omega0": 0.0, "ratios": [1.0]}),
        ("gate", {"axis_angle": 0.0, "gate_angle": 0.0}),
        ("evolve", {"theta": 4.0, "omega": 1.0, "omega0": 1.0}),
        ("twoqubit", {"omega_i": 1.0, "coupling": 1.0, "omega": 0.0}),
    ],
)
def test_runner_config_errors_leave_no_output_directory(tmp_path, capsys, kind, config):
    # the runners, not the schema, reject these, after the run object
    # exists but before any file is written
    cfg = write_config(tmp_path, "c.json", {"kind": kind, **config})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_scan_run(tmp_path):
    ratios = [0.2, 1.0, 5.0]
    cfg = write_config(
        tmp_path, "s.json",
        {"theta": THETA, "omega0": 1.0, "ratios": ratios, "workers": 2},
    )
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out), "--substeps", "2048"]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "ratio,min_fidelity_corrected,min_fidelity_uncorrected"
    rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
    assert [r[0] for r in rows] == ratios  # row order follows the config
    for r in rows:
        assert r[1] >= 1.0 - 1e-7
    # the bare drive dips hardest near resonance
    uncorrected = {r[0]: r[2] for r in rows}
    assert uncorrected[1.0] < 0.3
    assert uncorrected[0.2] > uncorrected[1.0]


# config validation ---------------------------------------------------------

def test_rejects_duplicate_keys(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"theta": 1.0, "omega": 1.0, "omega0": 1.0, "theta": 2.0}')
    assert main(["fields", "--config", str(path)]) == 2
    assert "duplicate key" in capsys.readouterr().err


def test_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "u.json", {"theta": 1.0, "omega": 1.0, "omega0": 1.0, "junk": 1}
    )
    assert main(["fields", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_rejects_kind_mismatch(tmp_path):
    cfg = write_config(
        tmp_path, "k.json",
        {"kind": "echo", "theta": 1.0, "omega": 1.0, "omega0": 1.0},
    )
    assert main(["fields", "--config", cfg]) == 2


def test_rejects_missing_required(tmp_path):
    cfg = write_config(tmp_path, "m.json", {"theta": 1.0, "omega": 1.0})
    assert main(["fields", "--config", cfg]) == 2


def test_rejects_bad_types(tmp_path):
    cfg = write_config(
        tmp_path, "b.json", {"theta": "wide", "omega": 1.0, "omega0": 1.0}
    )
    assert main(["fields", "--config", cfg]) == 2
    cfg2 = write_config(
        tmp_path, "b2.json",
        {"theta": 1.0, "omega": 1.0, "omega0": 1.0, "samples": 2.5},
    )
    assert main(["fields", "--config", cfg2]) == 2


def test_rejects_domain_errors_with_config_exit(tmp_path):
    cfg = write_config(
        tmp_path, "d.json", {"axis_angle": 0.0, "gate_angle": 0.0}
    )
    assert main(["gate", "--config", cfg]) == 2
    # scan points run serially, but a nonpositive worker count stays a bad config
    cfg = write_config(
        tmp_path, "w.json",
        {"kind": "scan", "theta": THETA, "omega0": 1.0, "ratios": [1.0], "workers": 0},
    )
    assert main(["scan", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "kind, payload, key",
    [
        ("evolve", {"theta": 1.0, "omega": 1e300, "omega0": 1.0}, "omega"),
        ("twoqubit", {"omega_i": 1.0, "coupling": 1e300, "omega": 0.5}, "coupling"),
    ],
)
def test_rates_whose_squares_overflow_are_config_errors(tmp_path, capsys, kind, payload, key):
    # these ran to nan checks, three RuntimeWarnings and exit 1
    cfg = write_config(tmp_path, "r.json", {"kind": kind, **payload})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert f"{key} = 1e+300 is out of range" in err
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("omega0", [0, -1.0])
def test_scan_rejects_nonpositive_omega0(tmp_path, capsys, omega0):
    # named after the scan key, not the loop rate omega0 * ratio it feeds
    cfg = write_config(
        tmp_path, "s.json",
        {"kind": "scan", "theta": THETA, "omega0": omega0, "ratios": [1.0]},
    )
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "scan.omega0 must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("omega0,ratio", [(1e300, 1e10), (1e300, -1e10), (1e-300, 1e-300)])
def test_scan_rejects_loop_rate_out_of_range(tmp_path, capsys, omega0, ratio):
    # both keys are valid alone; their product, the loop rate, is not
    cfg = write_config(
        tmp_path, "s.json",
        {"kind": "scan", "theta": 1.0, "omega0": omega0, "ratios": [1.0, ratio]},
    )
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "scan.omega0 * scan.ratios must be finite and nonzero" in err
    assert "Traceback" not in err


def test_verify_all_and_expmap_never_import_numpy_random(tmp_path):
    # their check points come from deterministic lattices; numpy.random
    # costs a fresh process about 18 ms to import
    cfg = write_config(
        tmp_path, "x.json", {"kind": "expmap", "omega_i": 1.0, "coupling": 1.0, "omega": 0.5}
    )
    code = "\n".join([
        "import sys",
        "from tqdecho.cli import main",
        "loaded = []",
        f"assert main(['verify-all', '--out', {str(tmp_path / 'v')!r}]) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        f"assert main(['expmap', '--config', {cfg!r}, '--out', {str(tmp_path / 'x')!r}]) == 0",
        "loaded.append('numpy.random' in sys.modules)",
        "print(loaded)",
    ])
    src = str(Path(tqdecho.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[False, False]"


def test_missing_config_file(tmp_path):
    assert main(["fields", "--config", str(tmp_path / "nope.json")]) == 2


def test_verify_all(tmp_path):
    out = tmp_path / "v"
    assert main(["verify-all", "--out", str(out)]) == 0
    doc = json.loads((out / "acceptance.json").read_text())
    assert len(doc) == 8
    assert all(entry["passed"] for entry in doc)
    names = [entry["index"] for entry in doc]
    assert names == list(range(1, 9))


def test_verify_all_records_a_raising_criterion_as_failed(tmp_path, monkeypatch, capsys):
    # a 1 % pi-pulse over-rotation makes criterion 4's strict alignment
    # check raise in every phase decomposition, and criterion 5's body
    # is made to raise; every criterion must still run and report, and
    # criterion 4 keeps the gate distances that name the fault
    import tqdecho.acceptance

    def broken(*columns):
        raise RuntimeError("witness\nbroken")

    over_rotate_pulses(monkeypatch, 1.01)
    monkeypatch.setattr(tqdecho.acceptance, "_witness", broken)
    out = tmp_path / "v"
    assert main(["verify-all", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((out / "acceptance.json").read_text())
    assert [entry["index"] for entry in doc] == list(range(1, 9))
    c4 = doc[3]
    assert not c4["passed"]
    variants = ("base", "triple_omega0", "double_pulse_rate", "generic")
    assert [c["name"] for c in c4["checks"]] == [
        name for v in variants
        for name in (f"echo_gate_distance_{v}", f"echo_decomposition_raised_{v}")
    ]
    gates = {c["name"]: c for c in c4["checks"] if "gate_distance" in c["name"]}
    assert all(gates[f"echo_gate_distance_{v}"]["passed"] for v in variants[:3])
    generic = gates["echo_gate_distance_generic"]
    assert not generic["passed"] and generic["value"] > 1e-4
    for v in variants:
        assert c4["notes"][f"error_{v}"].startswith(
            "ValueError: reference lost eigenstate alignment"
        )
    c5 = doc[4]
    assert [c["name"] for c in c5["checks"]] == ["raised"]
    assert c5["notes"]["error"] == "RuntimeError: witness broken"
    # the over-rotated pulses spoil the gates of criterion 6 too
    assert not c5["passed"] and not doc[5]["passed"]


# exact default and exit codes ----------------------------------------------

def test_echo_exact_default_is_deterministic(tmp_path):
    """Without substeps the echo runs on the exact propagator, passes at a
    slow loop rate, and writes byte-identical artifacts on a rerun."""
    cfg = write_config(
        tmp_path, "echo.json",
        {"theta": np.pi / 2, "omega": 0.1, "omega0": 1.0, "samples": 128},
    )
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["echo", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((runs[0] / "summary.json").read_text())
    assert summary["policy"] == {"method": "exact"}
    for name in ("summary.json", "trajectory.csv", "phases.json", "gate.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_tol_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path, "f.json", {"theta": 1.0, "omega": 1.0, "omega0": 1.0})
    with pytest.raises(SystemExit) as exc:
        main(["fields", "--config", cfg, "--tol", "1e-8"])
    assert exc.value.code == 2


def test_internal_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    import tqdecho.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("propagator blew up\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "fields", broken)
    monkeypatch.setattr(cli, "run_all", broken)
    cfg = write_config(tmp_path, "f.json", {"theta": 1.0, "omega": 1.0, "omega0": 1.0})
    for argv in (["fields", "--config", cfg], ["verify-all", "--out", str(tmp_path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal error (RuntimeError): propagator blew up")
        assert err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fields", "verify-all"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_an_out_that_cannot_be_a_directory_is_bad_input(tmp_path, capsys, command, below):
    blocker = tmp_path / "F"
    blocker.write_text("a file")
    out = blocker / "sub" if below else blocker
    argv = [command, "--out", str(out)]
    if command == "fields":
        argv += ["--config", write_config(tmp_path, "f.json", {"theta": 1.0, "omega": 1.0,
                                                               "omega0": 1.0})]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write to --out {out}: ")
    assert blocker.read_text() == "a file"


def test_fields_takes_no_substeps(tmp_path):
    # fields propagates nothing, so an oracle setting would only be recorded
    cfg = write_config(tmp_path, "f.json", {"theta": 1.0, "omega": 1.0, "omega0": 1.0})
    with pytest.raises(SystemExit) as exc:
        main(["fields", "--config", cfg, "--substeps", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


# a valid config of each scenario that takes --substeps
ORACLE_CONFIGS = {
    "evolve": {"theta": 1.0, "omega": 1.0, "omega0": 1.0},
    "echo": {"theta": 1.0, "omega": 1.0, "omega0": 1.0},
    "gate": {"axis_angle": 1.0, "gate_angle": 1.0},
    "twoqubit": {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5},
    "expmap": {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5},
    "scan": {"theta": 1.0, "omega0": 1.0, "ratios": [1.0]},
}


@pytest.mark.parametrize("kind", sorted(ORACLE_CONFIGS))
def test_substeps_is_a_flag_not_a_config_key(tmp_path, capsys, kind):
    # with a config key beside the flag, summary.json recorded the key's
    # substeps in params and the flag's in policy
    cfg = write_config(tmp_path, "c.json", {**ORACLE_CONFIGS[kind], "substeps": 512})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert "unknown keys ['substeps']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["evolve", "echo", "scan"])
@pytest.mark.parametrize("label", [2, -1])
def test_bad_label_is_a_config_error_before_any_output(tmp_path, capsys, kind, label):
    payload = {"theta": THETA, "omega0": 1.0, "label": label}
    payload.update({"ratios": [1.0]} if kind == "scan" else {"omega": 1.0})
    cfg = write_config(tmp_path, "l.json", {"kind": kind, **payload})
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert f"{kind}.label must be 0 or 1" in capsys.readouterr().err
    assert not out.exists()


def test_huge_integer_literals_are_config_errors(tmp_path, capsys):
    # float() of such a literal raised OverflowError: exit 3
    path = tmp_path / "h.json"
    path.write_text('{"kind": "scan", "theta": 1, "omega0": 1%s, "ratios": [1]}' % ("0" * 400))
    assert main(["scan", "--config", str(path)]) == 2
    assert "scan.omega0 must be finite" in capsys.readouterr().err
    path.write_text('{"kind": "scan", "theta": 1, "omega0": 1, "ratios": [1%s]}' % ("0" * 400))
    assert main(["scan", "--config", str(path)]) == 2
    assert "scan.ratios must contain finite numbers" in capsys.readouterr().err


# generated configs -----------------------------------------------------------

def _rate(scale, signed):
    """A rate near the config's common scale or anywhere in 1e-300..1e300,
    negative too when `signed`."""
    magnitude = st.one_of(
        st.floats(-1.0, 1.0).map(lambda e: scale * 10.0**e),
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    )
    sign = st.sampled_from([1.0, -1.0] if signed else [1.0])
    return st.tuples(sign, magnitude).map(lambda sm: sm[0] * sm[1])


KINDS = ["fields", "evolve", "echo", "gate", "twoqubit", "expmap", "scan"]


@st.composite
def _generated_config(draw, kind):
    """A config of scenario `kind`: rates drawn as magnitudes 10**U(-300,
    300) around one common scale or on their own, angles in their range,
    with and without a --substeps flag (a case_argv key)."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    theta = st.floats(0.0, np.pi)
    if kind in ("fields", "evolve", "echo"):
        config = {"theta": draw(theta), "omega": draw(_rate(scale, True)),
                  "omega0": draw(_rate(scale, False))}
    elif kind == "gate":
        config = {"axis_angle": draw(st.floats(-np.pi, np.pi)),
                  "gate_angle": draw(st.floats(0.1, 4.0 * np.pi - 0.1)),
                  "omega": draw(_rate(scale, True)), "omega0": draw(_rate(scale, False))}
    elif kind == "scan":
        config = {"theta": draw(theta), "omega0": draw(_rate(scale, False)),
                  "ratios": draw(st.lists(_rate(1.0, True), min_size=1, max_size=3))}
    else:
        config = {"omega_i": draw(_rate(scale, False)), "coupling": draw(_rate(scale, False)),
                  "omega": draw(_rate(scale, True))}
    if kind in ("echo", "gate", "twoqubit") and draw(st.booleans()):
        config["omega_pi"] = draw(_rate(scale, False))
    if kind == "expmap":
        config["draws"] = 8
    if kind != "fields" and draw(st.booleans()):
        config["--substeps"] = draw(st.sampled_from([1, 64, 512]))
    return config


def _no_constants(name):
    raise AssertionError(f"summary.json holds {name}")


def _exits_cleanly(kind, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = case_argv(Path(tmp), "c.json", kind, config)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        summary = Path(tmp) / "out" / "summary.json"
        if summary.exists():
            doc = json.loads(summary.read_text(), parse_constant=_no_constants)
            assert doc["all_passed"] is (code == 0)
        else:
            assert code == 2
    return code


@pytest.mark.parametrize(
    "kind, config, expected",
    [
        # these overflowed numpy: exit 3 under -W error, nan checks without;
        # their rates turn too far apart within one loop period
        ("evolve", {"theta": 1, "omega": 1, "omega0": 1e150, "--substeps": 64}, 2),
        ("evolve", {"theta": 1, "omega": 1e-200, "omega0": 1e150}, 2),
        ("echo", {"theta": 1, "omega": -1e-245, "omega0": 1e-218}, 2),
        ("expmap", {"omega_i": 1e-34, "coupling": 1e-90, "omega": 1e-244, "--substeps": 1024}, 2),
        # these underflowed to a failed check or a lost alignment, and now
        # run in units of the loop period
        ("echo", {"theta": 1, "omega": 1e-200, "omega0": 1e-200}, 0),
        ("echo", {"theta": 1, "omega": 1e-160, "omega0": 1e-160}, 0),
        ("twoqubit", {"omega_i": 1e-200, "coupling": 1e-200, "omega": 5e-201}, 0),
        # periods, half turns and sample times past the float range: an
        # OverflowError (exit 3), or a nan gate that passed its check
        ("evolve", {"theta": 1, "omega": 1e-320, "omega0": 1e-320}, 2),
        ("echo", {"theta": 1, "omega": 1e-320, "omega0": 1e-320}, 2),
        ("twoqubit", {"omega_i": 1e-320, "coupling": 1e-320, "omega": 1e-320}, 2),
        ("expmap", {"omega_i": 1e-320, "coupling": 1e-320, "omega": 1e-320}, 2),
        ("scan", {"theta": 1, "omega0": 1e-320, "ratios": [1.0]}, 2),
        ("echo", {"theta": 1, "omega": 1, "omega0": 1, "omega_pi": 1e-320}, 2),
        ("twoqubit", {"omega_i": 1, "coupling": 1, "omega": 0.5, "omega_pi": 1e-320}, 2),
        ("gate", {"axis_angle": 1.0, "gate_angle": 1.0, "omega_pi": 1e-320}, 2),
        ("evolve", {"theta": 1, "omega": 1e-305, "omega0": 1e-305, "samples": 4096}, 2),
    ],
)
def test_extreme_rate_configs_exit_cleanly(kind, config, expected):
    assert _exits_cleanly(kind, config) == expected


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e120])
@pytest.mark.parametrize(
    "kind, config",
    [
        ("echo", {"theta": 1.0, "omega": 1.0, "omega0": 1.0}),
        ("evolve", {"theta": 1.0, "omega": -0.5, "omega0": 1.0, "--substeps": 512}),
        ("twoqubit", {"omega_i": 1.3, "coupling": 1.0, "omega": -0.5, "--substeps": 512}),
    ],
)
def test_rescaled_configs_reproduce_the_unit_scale_checks(tmp_path, kind, config, scale):
    # every rate times `scale` is the same physics on another time scale
    rates = ("omega", "omega0", "omega_i", "coupling")
    scaled = {k: v * scale if k in rates else v for k, v in config.items()}
    checks = []
    for name, cfg in (("unit", config), ("scaled", scaled)):
        argv = case_argv(tmp_path, f"{name}.json", kind, cfg)
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        checks.append(json.loads((tmp_path / name / "summary.json").read_text())["checks"])
    unit, rescaled = checks
    assert [c["name"] for c in unit] == [c["name"] for c in rescaled]
    for a, b in zip(unit, rescaled):
        assert abs(a["value"] - b["value"]) <= 1e-12, a["name"]


@pytest.mark.parametrize("exponent", [-640, -1, 5, 400])
@pytest.mark.parametrize(
    "kind, config",
    [
        ("fields", {"theta": 1.0, "omega": -0.7, "omega0": 1.3, "samples": 64}),
        ("expmap", {"omega_i": 1.3, "coupling": 1.0, "omega": -0.5, "draws": 40}),
    ],
)
def test_field_checks_are_relative_to_the_field_scale(tmp_path, kind, config, exponent):
    # a power of two scales every field exactly, so a check relative to
    # the field scale keeps its bytes; an absolute check would pass at
    # 2**-640 whatever the fields were
    rates = ("omega", "omega0", "omega_i", "coupling")
    scaled = {k: v * 2.0**exponent if k in rates else v for k, v in config.items()}
    values = []
    for name, cfg in (("unit", config), ("scaled", scaled)):
        path = write_config(tmp_path, f"{name}.json", {"kind": kind, **cfg})
        assert main([kind, "--config", path, "--out", str(tmp_path / name)]) == 0
        checks = json.loads((tmp_path / name / "summary.json").read_text())["checks"]
        values.append(checks[0])
    assert values[0]["name"] == ("field_magnitude_drift" if kind == "fields" else "field_map_deviation")
    assert values[0] == values[1]


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data())
def test_generated_configs_exit_cleanly(kind, data):
    # warnings are errors in this suite, so a numpy warning exits 3
    _exits_cleanly(kind, data.draw(_generated_config(kind)))
