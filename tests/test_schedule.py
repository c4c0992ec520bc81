"""Segment and schedule assembly, JSON round trips, field timelines."""
import numpy as np
import pytest

from tqdecho.fields import (
    LoopParams,
    TwoQubitParams,
    conditional_root_field,
    exp_rotating_field,
    experimental_params,
    tqd_field,
    two_qubit_conditional_field,
)
from tqdecho.schedule import (
    Segment,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    exp_loop_segment,
    field_timeline,
    idle_segment,
    loop_segment,
    pi_pulse_segment,
    rotate_schedule,
    schedule_from_json,
    schedule_to_json,
    single_loop_schedule,
    two_qubit_loop_segment,
    write_field_timeline_csv,
)

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)


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
        assert np.allclose(row, tqd_field(P, t), atol=1e-14)


def test_pulse_field_is_y_only():
    seg = pi_pulse_segment(40.0)
    ts = np.array([0.0, seg.duration / 2])
    assert np.allclose(seg.field_batch(ts), [[0.0, 40.0, 0.0]] * 2)
    assert np.isclose(seg.duration, np.pi / 40.0)


def test_generator_is_half_field_dot_sigma():
    seg = loop_segment(P)
    t = 0.3
    h = seg.generator(t)
    b = tqd_field(P, t)
    from tqdecho.qcore import pauli_dot

    assert np.allclose(h, 0.5 * pauli_dot(b), atol=1e-14)


def test_two_qubit_block_fields_are_the_fields_module_formulas():
    """Propagation reads Segment.block_fields, while criterion 7 gates the
    fields.py formulas; the two must agree on every draw."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        ratio = 10.0 ** rng.uniform(-2.0, 2.0)  # omega_i / J
        coupling = 10.0 ** rng.uniform(-1.0, 1.0)
        rate = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(np.log10(0.3), 1.0)
        p = TwoQubitParams(ratio * coupling, coupling, rate * coupling)
        for reverse in (False, True):
            q_params = p.reversed() if reverse else p
            e = experimental_params(q_params)
            ts = rng.uniform(0.0, p.period, 8)
            scale = q_params.rabi + abs(q_params.omega)
            for seg, formula in (
                (two_qubit_loop_segment(p, reverse),
                 lambda q, t: two_qubit_conditional_field(q_params, q, t)),
                (exp_loop_segment(p, reverse),
                 lambda q, t: exp_rotating_field(e, q_params.omega, q, t)),
            ):
                c0, v = seg.block_fields(ts)
                _, v_root = seg.block_fields(ts, corrected=False)
                for q in (0, 1):
                    for k, t in enumerate(ts):
                        dev = np.abs(v[:, q, k] - 0.5 * formula(q, t))
                        assert np.max(dev) <= 1e-12 * scale
                        root = 0.5 * conditional_root_field(q_params, q, t)
                        assert np.max(np.abs(v_root[:, q, k] - root)) <= 1e-12 * scale
                frame = 0.5 * q_params.omega if seg.kind == "exp-loop" else 0.0
                assert np.all(c0 == np.array([[frame], [-frame]]))


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
