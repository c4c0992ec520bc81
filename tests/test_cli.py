"""End-to-end runs of the command line entry point."""
import json

import numpy as np
import pytest

from tqdecho.cli import main

THETA = np.pi / 3


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
        {"theta": THETA, "omega": 1.0, "omega0": 1.0,
         "substeps": 4096, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    phases = json.loads((out / "phases.json").read_text())
    assert np.isclose(phases["total"], -1.5 * np.pi, atol=1e-5)
    assert np.isclose(phases["dynamical"], -np.pi, atol=1e-8)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "segment", "label"]
    assert "fidelity" in header


def test_evolve_uncorrected_has_no_gates(tmp_path):
    cfg = write_config(
        tmp_path, "e.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0, "corrected": False,
         "substeps": 1024, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
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


def test_echo_run(tmp_path):
    cfg = write_config(
        tmp_path, "echo.json",
        {"theta": THETA, "omega": 1.0, "omega0": 1.0,
         "substeps": 4096, "samples": 64},
    )
    out = tmp_path / "out"
    assert main(["echo", "--config", cfg, "--out", str(out)]) == 0
    gate = json.loads((out / "gate.json").read_text())
    assert gate["distance"] <= 1e-6
    realized = np.array(
        [[complex(re, im) for re, im in row] for row in gate["realized"]]
    )
    assert realized.shape == (2, 2)
    assert np.allclose(realized @ realized.conj().T, np.eye(2), atol=1e-9)
    phases = json.loads((out / "phases.json").read_text())
    assert abs(phases["dynamical"]) < 1e-6


def test_gate_run(tmp_path):
    cfg = write_config(
        tmp_path, "g.json",
        {"axis_angle": np.pi / 2, "gate_angle": np.pi / 2, "substeps": 2048},
    )
    out = tmp_path / "out"
    assert main(["gate", "--config", cfg, "--out", str(out)]) == 0
    gate = json.loads((out / "gate.json").read_text())
    realized = np.array(
        [[complex(re, im) for re, im in row] for row in gate["realized"]]
    )
    assert np.allclose(np.abs(realized), [[0, 1], [1, 0]], atol=1e-6)


def test_twoqubit_run(tmp_path):
    cfg = write_config(
        tmp_path, "t.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5, "substeps": 8192},
    )
    out = tmp_path / "out"
    assert main(["twoqubit", "--config", cfg, "--out", str(out)]) == 0
    gate = json.loads((out / "gate.json").read_text())
    assert np.isclose(gate["delta_omega"], 2.0 * np.pi / np.sqrt(2.0))
    assert gate["leakage"] <= 1e-6


def test_expmap_run(tmp_path):
    cfg = write_config(
        tmp_path, "x.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5,
         "substeps": 4096, "draws": 20},
    )
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "expmap.json").read_text())
    assert np.isclose(doc["forward"]["j_xz"], -0.25)
    assert doc["forward"]["theta_prime"] > np.pi / 2
    assert doc["reversed"]["theta_prime"] < np.pi / 2
    assert doc["max_field_deviation"] < 1e-10


def test_expmap_without_field_draws_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "x.json",
        {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5, "draws": 0},
    )
    out = tmp_path / "out"
    assert main(["expmap", "--config", cfg, "--out", str(out)]) == 2
    assert "field_draws must be >= 1" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_scan_run(tmp_path):
    ratios = [0.2, 1.0, 5.0]
    cfg = write_config(
        tmp_path, "s.json",
        {"theta": THETA, "omega0": 1.0, "ratios": ratios,
         "substeps": 2048, "workers": 2},
    )
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
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
