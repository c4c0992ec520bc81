"""Segment and schedule assembly, JSON round trips, field timelines."""
import functools
import json
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.propagate import propagate_schedule
from tqdecho.qcore import pauli_dot
from tqdecho.schedule import (
    IdleParams,
    Segment,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    control_flip_segment,
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
        Segment(kind="idle", label="idle", params={"dim": 2, "duration": 1.0, "bogus": 1.0})


def test_segment_rejects_missing_param():
    with pytest.raises(ValueError):
        Segment(kind="pi-pulse", label="pi", params={})


@pytest.mark.parametrize("label", ['loop,"C"\nx', "a,b", 'say "C"', "cr\r", "lf\n", "nul\0"])
def test_segment_and_json_reject_a_label_that_breaks_the_csv(label):
    # the label is written into CSV cells as it is
    seg = loop_segment(P)
    with pytest.raises(ValueError, match="segment label"):
        Segment(seg.kind, label, seg.params)
    doc = schedule_to_json(SegmentSchedule((seg,))).replace('"loop-C"', json.dumps(label))
    with pytest.raises(ValueError, match="segment label"):
        schedule_from_json(doc)


def test_segment_accepts_a_non_ascii_label():
    seg = loop_segment(P)
    renamed = Segment(seg.kind, "Schleife-Ω", seg.params)
    assert schedule_from_json(schedule_to_json(SegmentSchedule((renamed,)))).labels() == [
        "Schleife-Ω"
    ]


@pytest.mark.parametrize(
    "seg, rate",
    [
        (loop_segment(replace(P, rotation=0.3)), "omega"),
        (loop_segment(P.reversed(), corrected=False), "omega"),
        (pi_pulse_segment(40.0), "omega_pi"),
        (pi_pulse_segment(3.3, target="II"), "omega_pi"),
        (control_flip_segment(7.1), "omega_pi"),
        (two_qubit_loop_segment(P2, reverse=True), "omega"),
        (exp_loop_segment(P2, frame_term=False), "omega"),
        (idle_segment(123.4, 4), None),
    ],
    ids=["tqd-loop", "root-loop", "pi-pulse", "pi-pulse-II", "control-flip", "two-qubit-loop",
         "exp-loop", "idle"],
)
def test_segment_dim_and_duration_are_its_records(seg, rate):
    assert (seg.dim, seg.duration) == (seg.params.dim, seg.params.duration)
    assert type(seg.dim) is int and type(seg.duration) is float
    # a changed record brings its own duration along: a doubled rate
    # halves a loop or pulse, and an idle states its duration
    p = seg.params
    if rate is None:
        changed, want = replace(p, duration=2.0 * p.duration), 2.0 * seg.duration
    else:
        changed, want = replace(p, **{rate: 2.0 * getattr(p, rate)}), seg.duration / 2
    assert replace(seg, params=changed).duration == want
    assert replace(seg, label="renamed").duration == seg.duration


def test_idle_carries_its_duration():
    assert idle_segment(123.4).duration == 123.4
    assert IdleParams(4, 0).duration == 0.0


@pytest.mark.parametrize("duration", [-1.0, float("nan"), "1.0", True], ids=repr)
def test_idle_record_rejects_a_bad_duration(duration):
    with pytest.raises(ValueError, match="duration must be"):
        IdleParams(2, duration)


@pytest.mark.parametrize("dim", [3, 8, np.int64(6)], ids=repr)
def test_idle_record_takes_dimension_2_or_4(dim):
    with pytest.raises(ValueError, match="^idle dim must be 2 or 4"):
        IdleParams(dim, 1.0)
    with pytest.raises(ValueError, match="^idle dim must be 2 or 4"):
        idle_segment(1.0, dim)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: replace(P, rotation="1"), "rotation"),
        (lambda: replace(P, rotation=True), "rotation"),
        (lambda: replace(P, rotation=10**400), "rotation"),
        (lambda: rotate_schedule(ECHO, True), "angle"),
        (lambda: rotate_schedule(ECHO, "1"), "angle"),
        (lambda: exp_loop_segment(P2, frame_term="no"), "frame_term"),
        (lambda: idle_segment("2.5"), "duration"),
    ],
    ids=["rotation-string", "rotation-bool", "rotation-huge-int", "angle-bool", "angle-string",
         "frame-term-string", "idle-duration-string"],
)
def test_constructors_check_values_before_coercing(build, name):
    # float() and bool() ran before any check: these built a loop turned
    # by 1 rad, an exp-loop with its frame term on and an idle 2.5 long,
    # or raised TypeError; an integer beyond the float range raised
    # OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


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
    assert first.params.omega > 0


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


def test_loop_records_state_the_axis_their_fields_precess_about():
    # each block's field keeps a constant component along the record's
    # axis over the period; only the part across it turns
    lp = LoopParams(1.1, -0.7, 1.0)
    loops = (
        loop_segment(replace(lp, rotation=0.6), corrected=True),
        loop_segment(replace(lp, rotation=-0.9), corrected=False),
        two_qubit_loop_segment(P2),
        exp_loop_segment(P2, frame_term=True),
    )
    for seg in loops:
        axis = np.array(seg.params.axis)
        assert np.isclose(axis @ axis, 1.0, rtol=0, atol=1e-15)
        _, v = seg.block_fields(np.linspace(0.0, seg.duration, 9))
        along = np.einsum("k,kbn->bn", axis, v)
        assert np.max(np.abs(along - along[:, :1])) <= 1e-15
        assert np.ptp(np.linalg.norm(v, axis=0), axis=-1).max() <= 1e-15
        with pytest.raises(AttributeError):
            seg.params.axis = (0.0, 0.0, 1.0)
    assert loops[0].params.axis == (np.sin(0.6), 0.0, np.cos(0.6))
    assert loops[3].params.axis == (0.0, 0.0, 1.0)


def test_block_fields_rejects_a_segment_that_is_not_a_loop():
    for seg in (pi_pulse_segment(40.0), idle_segment(1.0)):
        with pytest.raises(ValueError, match="not a loop"):
            seg.block_fields([0.01])


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
    assert all(seg.params.frame_term for seg in loops)


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
        assert a.params == b.params


@pytest.mark.parametrize(
    "key", [None, "duration", "dim"], ids=["document-dim", "entry-duration", "entry-dim"]
)
def test_json_rejects_the_layout_that_restated_dim_and_duration(key):
    # a segment's dim and duration are its record's; the old layout
    # wrote them again beside it, in each entry and for the document
    doc = json.loads(schedule_to_json(ECHO))
    assert set(doc) == {"segments"}
    assert all(set(entry) == {"kind", "label", "params"} for entry in doc["segments"])
    if key is None:
        doc["dim"] = 2
    else:
        doc["segments"][0][key] = getattr(ECHO.segments[0], key)
    with pytest.raises(ValueError, match="schedule document|malformed segment entry"):
        schedule_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "items", [[single_loop_schedule(P)], (1, 2)], ids=["a-schedule", "integers"]
)
def test_schedule_takes_segments_only(items):
    # a schedule has a dim too, so it passed the dimension check, and the
    # walk then failed on its missing duration
    with pytest.raises(ValueError, match="schedule takes segments only"):
        SegmentSchedule(items)


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
    "sched, path, value, match",
    [
        (ECHO, ("segments", 0, "params", "theta"), "1.0", "finite real number"),
        (ECHO, ("segments", 0, "params", "theta"), 9.0, "theta must lie in"),
        (ECHO, ("segments", 0, "params", "omega0"), -5.0, "omega0 must be positive"),
        (ECHO, ("segments", 0, "params", "omega0"), float("nan"), "finite real number"),
        (ECHO, ("segments", 1, "params", "dim"), 4, "mixed segment dimensions"),
        (ECHO, ("segments", 2, "params", "target"), 3, "pulse target"),
        (EXP_ECHO, ("segments", 0, "params", "frame_term"), 1, "frame_term must be a boolean"),
        (ECHO, ("segments", 1, "params", "duration"), -1.0, "idle duration must be"),
        (ECHO, ("segments", 1, "params", "duration"), "1.0", "duration must be a finite"),
        (ECHO, ("segments", 0, "params"), [1.0], "params must be a dict"),
    ],
    ids=[
        "theta-string", "theta-out-of-range", "omega0-negative", "omega0-nan", "idle-dim",
        "target-not-string", "frame-term-not-bool", "segment-dim-float", "schedule-dim-float",
        "params-not-object",
    ],  # the two dim-float cases tamper with an idle's duration; their ids
    # are kept from when entries and documents stated a dim of their own
)
def test_json_rejects_bad_parameter_values(sched, path, value, match):
    import json

    doc = json.loads(schedule_to_json(sched))
    *where, key = path
    functools.reduce(operator.getitem, where, doc)[key] = value
    with pytest.raises(ValueError, match=match):
        schedule_from_json(json.dumps(doc))


@st.composite
def _drawn_echoes(draw):
    """A single-qubit echo (cone angle, signed omega/omega0 log-uniform in
    +-[0.1, 10], omega0 log-uniform in [0.2, 5], drive rotation, three
    gaps) or a two-qubit echo (omega_i/J log-uniform in [0.01, 100], signed
    rate, conditional or exp loops with the frame term on or off, seven
    gaps). Each gap is zero or drawn from [0, 2]."""
    gap = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    family = draw(st.sampled_from(["single", "two-qubit", "exp"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if family == "single":
        omega0 = 10.0 ** draw(st.floats(-0.7, 0.7))
        ratio = 10.0 ** draw(st.floats(-1.0, 1.0))
        p = LoopParams(draw(st.floats(0.0, np.pi)), sign * ratio * omega0, omega0)
        sched = build_echo_sequence(p, gaps=draw(st.tuples(gap, gap, gap)))
        return rotate_schedule(sched, draw(st.floats(-np.pi, np.pi)))
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    p = TwoQubitParams(
        ratio / np.hypot(ratio, 1.0), 1.0 / np.hypot(ratio, 1.0), sign * draw(st.floats(0.1, 2.0))
    )
    gaps = draw(st.lists(gap, min_size=7, max_size=7))
    if family == "two-qubit":
        return build_two_qubit_sequence(p, gaps=gaps)
    return build_exp_two_qubit_sequence(p, frame_term=draw(st.booleans()), gaps=gaps)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_echoes())
def test_json_round_trip_keeps_text_and_propagators(sched):
    text = schedule_to_json(sched)
    back = schedule_from_json(text)
    assert schedule_to_json(back) == text
    want = propagate_schedule(sched, samples=4).propagators
    assert propagate_schedule(back, samples=4).propagators.tobytes() == want.tobytes()


# values no record accepts for a key: beside these, every key rejects a
# string, None, nan, +-inf and an integer beyond the float range, and
# every key but frame_term a bool
_OUT_OF_RANGE = {
    "theta": [-0.5, 4.0],
    "omega": [0.0, 1e200],
    "omega0": [0.0, -1.0, 1e200],
    "omega_i": [0.0, -1.0, 1e200],
    "coupling": [0.0, -1.0, 1e200],
    "rotation": [],
    "omega_pi": [0.0, -1.0],
    "target": ["III", 1],
    "dim": [1, 3, 2.0],
    "duration": [-1.0],
    "frame_term": [0, 1, 1.0],
}
_UNKNOWN_KEYS = ["bogus", *_OUT_OF_RANGE]


@st.composite
def _bad_params(draw, key):
    """A value the parameter `key` must reject."""
    bad = ["1.0", None, float("nan"), float("inf"), -float("inf"), 10**400, *_OUT_OF_RANGE[key]]
    if key != "frame_term":
        bad += [True, False]
    return draw(st.sampled_from(bad))


@st.composite
def _tampered_documents(draw):
    """The JSON document of a drawn echo with one segment's params
    changed: a value swapped for a bad one, a key dropped, or an unknown
    key added."""
    doc = json.loads(schedule_to_json(draw(_drawn_echoes())))
    params = draw(st.sampled_from(doc["segments"]))["params"]
    key = draw(st.sampled_from(sorted(params)))
    change = draw(st.sampled_from(["swap", "drop", "add"]))
    if change == "swap":
        params[key] = draw(_bad_params(key))
    elif change == "drop":
        del params[key]
    else:
        unknown = draw(st.sampled_from([k for k in _UNKNOWN_KEYS if k not in params]))
        params[unknown] = params[key]
    return json.dumps(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_tampered_documents())
def test_json_rejects_generated_bad_params(text):
    # a record built as Record(**params) without its key check raises
    # TypeError, and a key read without it KeyError or AttributeError;
    # pytest.raises(ValueError) lets those through as failures
    with pytest.raises(ValueError):
        schedule_from_json(text)


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
