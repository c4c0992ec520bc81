"""CSV artifacts are pinned byte for byte to a per-cell reference writer:
every float cell is format(float(v), ".17g"), the segment index is
str(int(i)), and the label is written as it is."""
import json

import numpy as np
import pytest

from tqdecho.cli import _scan_point, main
from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.propagate import propagate_schedule, trajectory_to_csv
from tqdecho.schedule import (
    _CSV_CHUNK,
    build_echo_sequence,
    build_two_qubit_sequence,
    field_timeline,
    rotate_schedule,
    single_loop_schedule,
    write_field_timeline_csv,
)

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.3, coupling=1.0, omega=0.5)
SPECIAL = [
    -0.0, 5e-324, 1e-300, 1e17, 123456789012345678.0, 3.0, -42.0, 0.1, 1.0 / 3.0,
]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    return "".join(line + "\n" for line in lines).encode()


def _reference_trajectory(traj, extra) -> bytes:
    header = ["t", "segment", "label"]
    if traj.states is not None:
        for k in range(traj.schedule.dim):
            header += [f"re_psi{k}", f"im_psi{k}"]
    header += list(extra)
    labels = traj.schedule.labels()
    rows = []
    for row in range(len(traj.times)):
        cells = [
            _fmt(traj.times[row]),
            str(int(traj.segment_index[row])),
            labels[traj.segment_index[row]],
        ]
        if traj.states is not None:
            for amp in traj.states[row]:
                cells += [_fmt(amp.real), _fmt(amp.imag)]
        cells += [_fmt(extra[name][row]) for name in extra]
        rows.append(cells)
    return _reference(header, rows)


def _extras(n: int) -> dict:
    special = np.resize(np.array(SPECIAL), n)
    return {
        "special": special,
        "negated": -special,
        "count": np.arange(n, dtype=np.int64) * 123456789012345,
        "flag": np.arange(n) % 3 == 0,
    }


def _trajectories():
    echo = build_echo_sequence(P)
    two = build_two_qubit_sequence(P2)
    return {
        "dim2": propagate_schedule(echo, samples=24),
        "dim2-state": propagate_schedule(
            echo, initial_state=np.array([0.6, 0.8j]), samples=24
        ),
        "dim4": propagate_schedule(two, samples=12),
        "dim4-state": propagate_schedule(
            two, initial_state=np.array([0.5, 0.5, 0.5j, -0.5]), samples=12
        ),
    }


@pytest.mark.parametrize("case", ["dim2", "dim2-state", "dim4", "dim4-state"])
@pytest.mark.parametrize("with_extra", [False, True])
def test_trajectory_csv_bytes(tmp_path, case, with_extra):
    traj = _trajectories()[case]
    extra = _extras(len(traj.times)) if with_extra else {}
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
    assert path.read_bytes() == _reference_trajectory(traj, extra)


def test_trajectory_csv_bytes_across_chunks(tmp_path):
    traj = propagate_schedule(
        single_loop_schedule(P), initial_state=np.array([1.0, 0.0]),
        samples=2 * _CSV_CHUNK + 37,
    )
    n = len(traj.times)
    assert n > _CSV_CHUNK and n % _CSV_CHUNK != 0
    extra = _extras(n)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
    assert path.read_bytes() == _reference_trajectory(traj, extra)


def test_field_timeline_csv_bytes(tmp_path):
    sched = rotate_schedule(build_echo_sequence(P, gaps=(0.25, 0.0, 1.5)), 0.7)
    assert {seg.duration for seg in sched.segments if seg.kind == "idle"} == {
        0.0, 0.25, 1.5
    }
    path = tmp_path / "timeline.csv"
    write_field_timeline_csv(path, sched, samples_per_segment=9)
    data = field_timeline(sched, 9)
    expected = _reference(["t", "Bx", "By", "Bz"], [map(_fmt, row) for row in data])
    assert path.read_bytes() == expected


def test_cli_fields_csv_bytes(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"theta": 1.1, "omega": -0.4, "omega0": 1.3, "samples": 700}))
    out = tmp_path / "out"
    assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
    data = field_timeline(single_loop_schedule(LoopParams(1.1, -0.4, 1.3)), 700)
    mag = np.linalg.norm(data[:, 1:], axis=1)
    rows = [[_fmt(v) for v in (*row, m)] for row, m in zip(data, mag)]
    expected = _reference(["t", "Bx", "By", "Bz", "Bmag"], rows)
    assert (out / "fields.csv").read_bytes() == expected


def test_cli_scan_csv_bytes(tmp_path):
    ratios = [0.2, 1.0, 5.0, 1.0 / 3.0]
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"theta": 1.1, "omega0": 1.0, "ratios": ratios}))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [
        [_fmt(r), *map(_fmt, _scan_point(1.1, 1.0, r, 0, None))] for r in ratios
    ]
    header = ["ratio", "min_fidelity_corrected", "min_fidelity_uncorrected"]
    assert (out / "scan.csv").read_bytes() == _reference(header, rows)
    notes = json.loads((out / "summary.json").read_text())["notes"]
    assert sorted(notes["uncorrected_min_fidelities"]) == sorted(map(_fmt, ratios))
