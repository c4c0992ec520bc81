"""Segment and schedule assembly, JSON round trips, field timelines."""
import numpy as np
import pytest

from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.qcore import pauli_dot
from tqdecho.schedule import (
    Segment,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    field_timeline,
    idle_segment,
    loop_segment,
    pi_pulse_segment,
    rotate_schedule,
    schedule_from_json,
    schedule_to_json,
    single_loop_schedule,
    write_field_timeline_csv,
)

from dense import generator

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)


def _tqd_field(p: LoopParams, t: float) -> np.ndarray:
    """Closed form of the corrected cone drive."""
    s, c, wt = np.sin(p.theta), np.cos(p.theta), p.omega * t
    transverse = (p.omega0 - p.omega * c) * s
    return np.array([transverse * np.cos(wt), transverse * np.sin(wt), p.omega0 * c + p.omega * s * s])


def test_segment_rejects_unknown_param():
    with pytest.raises(ValueError):
        Segment(
            kind="idle", duration=1.0, dim=2, label="idle",
            params={"dim": 2, "bogus": 1.0},
        )


def test_segment_rejects_missing_param():
    with pytest.raises(ValueError):
        Segment(kind="pi-pulse", duration=1.0, dim=2, label="pi", params={})


def test_single_loop_schedule_shape():
    s = single_loop_schedule(P)
    assert len(s.segments) == 1
    assert s.segments[0].kind == "tqd-loop"
    assert np.isclose(s.total_duration, 2.0 * np.pi)
    bare = single_loop_schedule(P, corrected=False)
    assert bare.segments[0].kind == "root-loop"


def test_echo_sequence_layout():
    s = build_echo_sequence(P)
    assert s.labels() == ["loop-C", "idle", "pi", "idle", "loop-Cbar", "idle", "pi"]
    # zero gaps contribute no time; pulse lasts pi/omega_pi
    omega_pi = 50.0 * abs(P.omega)
    expected = 2.0 * P.period + 2.0 * np.pi / omega_pi
    assert np.isclose(s.total_duration, expected)


def test_echo_sequence_normalizes_orientation():
    """Starting from a reversed loop still puts the forward loop first."""
    s = build_echo_sequence(P.reversed())
    first = s.segments[0]
    assert first.label == "loop-C"
    assert first.params["omega"] > 0


def test_echo_gaps():
    s = build_echo_sequence(P, gaps=(0.5, 0.25, 0.125))
    idles = [seg.duration for seg in s.segments if seg.kind == "idle"]
    assert idles == [0.5, 0.25, 0.125]


def test_loop_field_batch_matches_closed_form():
    seg = loop_segment(P)
    ts = np.linspace(0.0, P.period, 9)
    batch = seg.field_batch(ts)
    for row, t in zip(batch, ts):
        assert np.allclose(row, _tqd_field(P, t), atol=1e-14)


def test_pulse_field_is_y_only():
    seg = pi_pulse_segment(40.0)
    ts = np.array([0.0, seg.duration / 2])
    assert np.allclose(seg.field_batch(ts), [[0.0, 40.0, 0.0]] * 2)
    assert np.isclose(seg.duration, np.pi / 40.0)


def test_generator_is_half_field_dot_sigma():
    seg = loop_segment(P)
    t = 0.3
    h = generator(seg, t)
    b = _tqd_field(P, t)
    assert np.allclose(h, 0.5 * pauli_dot(b), atol=1e-14)


def test_rotate_schedule_tilts_fields():
    """Rotating the drive about y maps (x,z) components accordingly and
    leaves y pulses alone."""
    angle = 0.4
    s = build_echo_sequence(P)
    r = rotate_schedule(s, angle)
    ts = np.linspace(0.0, P.period, 7)
    orig = s.segments[0].field_batch(ts)
    rot = r.segments[0].field_batch(ts)
    c, si = np.cos(angle), np.sin(angle)
    expected = np.empty_like(orig)
    expected[:, 0] = c * orig[:, 0] + si * orig[:, 2]
    expected[:, 1] = orig[:, 1]
    expected[:, 2] = -si * orig[:, 0] + c * orig[:, 2]
    assert np.allclose(rot, expected, atol=1e-12)
    pulse = [seg for seg in r.segments if seg.kind == "pi-pulse"][0]
    assert np.allclose(pulse.field_batch(np.array([0.0])), [[0.0, 50.0, 0.0]])


def test_rotate_schedule_rejects_two_qubit():
    s = build_two_qubit_sequence(P2)
    with pytest.raises(ValueError):
        rotate_schedule(s, 0.1)


def test_two_qubit_sequence_layout():
    s = build_two_qubit_sequence(P2)
    assert all(seg.dim == 4 for seg in s.segments)
    driven = [seg.label for seg in s.segments if seg.kind != "idle"]
    assert driven == [
        "loop-C", "pi-I", "loop-Cbar", "pi-II",
        "loop-C", "pi-I", "loop-Cbar", "pi-II",
    ]
    assert len(s.segments) == 15  # idles interleaved between driven segments


def test_exp_two_qubit_sequence_layout():
    s = build_exp_two_qubit_sequence(P2)
    kinds = {seg.kind for seg in s.segments}
    assert "exp-loop" in kinds
    loops = [seg for seg in s.segments if seg.kind == "exp-loop"]
    assert len(loops) == 4
    assert all(seg.params["frame_term"] for seg in loops)


def test_schedule_requires_consistent_dims():
    with pytest.raises(ValueError):
        SegmentSchedule((loop_segment(P), idle_segment(1.0, dim=4)))


def test_boundaries_accumulate():
    s = build_echo_sequence(P, gaps=(0.1, 0.2, 0.3))
    b = s.boundaries
    assert len(b) == len(s.segments) + 1
    assert b[0] == 0.0
    assert np.isclose(b[-1], s.total_duration)
    assert np.all(np.diff(b) >= 0)


# serialization ---------------------------------------------------------------

def test_json_round_trip():
    s = build_echo_sequence(P, gaps=(0.5, 0.0, 0.125))
    text = schedule_to_json(s)
    back = schedule_from_json(text)
    assert back.labels() == s.labels()
    assert np.isclose(back.total_duration, s.total_duration)
    for a, b in zip(back.segments, s.segments):
        assert a.kind == b.kind
        assert a.params == pytest.approx(b.params)


def test_json_rejects_tampered_duration():
    import json

    s = single_loop_schedule(P)
    doc = json.loads(schedule_to_json(s))
    doc["segments"][0]["duration"] *= 1.5  # inconsistent with omega
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(doc))


def test_json_rejects_unknown_kind():
    import json

    s = single_loop_schedule(P)
    doc = json.loads(schedule_to_json(s))
    doc["segments"][0]["kind"] = "mystery"
    with pytest.raises(ValueError):
        schedule_from_json(json.dumps(doc))


ECHO = build_echo_sequence(P)
EXP_ECHO = build_exp_two_qubit_sequence(P2)


@pytest.mark.parametrize(
    "sched, segment, key, value, match",
    [
        (ECHO, 0, "theta", "1.0", "finite real number"),
        (ECHO, 0, "theta", 9.0, "theta must lie in"),
        (ECHO, 0, "omega0", -5.0, "omega0 must be positive"),
        (ECHO, 0, "omega0", float("nan"), "finite real number"),
        (ECHO, 1, "dim", 4, "has dimension 4, not 2"),
        (ECHO, 2, "target", 3, "pulse target"),
        (EXP_ECHO, 0, "frame_term", 1, "frame_term must be a boolean"),
    ],
    ids=[
        "theta-string", "theta-out-of-range", "omega0-negative", "omega0-nan", "idle-dim",
        "target-not-string", "frame-term-not-bool",
    ],
)
def test_json_rejects_bad_parameter_values(sched, segment, key, value, match):
    import json

    doc = json.loads(schedule_to_json(sched))
    doc["segments"][segment]["params"][key] = value
    with pytest.raises(ValueError, match=match):
        schedule_from_json(json.dumps(doc))


def test_field_timeline_and_csv(tmp_path):
    s = build_echo_sequence(P)
    data = field_timeline(s, samples_per_segment=8)
    assert data.shape[1] == 4
    assert data[0, 0] == 0.0
    assert np.isclose(data[-1, 0], s.total_duration)
    # timeline times never decrease
    assert np.all(np.diff(data[:, 0]) >= 0)
    path = tmp_path / "timeline.csv"
    write_field_timeline_csv(path, s, samples_per_segment=8)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,Bx,By,Bz"
    assert len(lines) == data.shape[0] + 1
    first = np.array([float(x) for x in lines[1].split(",")])
    assert np.allclose(first, data[0])
