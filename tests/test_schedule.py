"""Schedule assembly from the drive records, record validation, field
timelines."""
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho.fields import ExpLoopParams, LoopParams, RootLoopParams, TwoQubitParams
from tqdecho.gates import closed_form_echo_gate
from tqdecho.propagate import StepPolicy, _segment_propagators, propagate_schedule
from tqdecho.qcore import PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, gate_distance
from tqdecho.schedule import (
    FlipParams,
    IdleParams,
    PulseParams,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    field_timeline,
    rotate_schedule,
    single_loop_schedule,
    write_field_timeline_csv,
)

from dense import _PULSE_OPERATORS, expm_hermitian, field_rows, generator, pack_blocks
from echoes import gapped_echo

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
# each segment record with a valid value for every field
RECORD_FIELDS = (
    (LoopParams, {"theta": 1.0, "omega": 1.0, "omega0": 1.0, "rotation": 0.0}),
    (RootLoopParams, {"theta": 1.0, "omega": 1.0, "omega0": 1.0, "rotation": 0.0}),
    (TwoQubitParams, {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5}),
    (ExpLoopParams, {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5}),
    (PulseParams, {"omega_pi": 40.0, "target": "single"}),
    (FlipParams, {"omega_pi": 40.0}),
    (IdleParams, {"dim": 2, "duration": 1.0}),
)


def _tqd_field(p: LoopParams, t: float) -> np.ndarray:
    """Closed form of the corrected cone drive."""
    s, c, wt = np.sin(p.theta), np.cos(p.theta), p.omega * t
    transverse = (p.omega0 - p.omega * c) * s
    return np.array([transverse * np.cos(wt), transverse * np.sin(wt), p.omega0 * c + p.omega * s * s])


def test_segment_rejects_unknown_param():
    # every record takes its own fields only, and its constructor names
    # the one it does not know
    for record, values in RECORD_FIELDS:
        assert [f.name for f in fields(record)] == list(values)
        record(**values)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            record(**values, bogus=1.0)


def test_segment_rejects_missing_param():
    # every field without a default must be given, and the constructor
    # names the missing one
    for record, values in RECORD_FIELDS:
        for f in fields(record):
            if f.default is not MISSING:
                continue
            rest = {k: v for k, v in values.items() if k != f.name}
            with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{f.name}'"):
                record(**rest)


@pytest.mark.parametrize("dtype", [np.float32, np.float16], ids=lambda d: d.__name__)
def test_narrow_numpy_floats_are_used_as_python_floats(dtype):
    # the range test cast its float64 bound to float32 or float16 and
    # warned "overflow encountered in cast", and a turn by a float32 angle
    # was added in float32 (3.6e-8 rad off)
    for record, values in RECORD_FIELDS:
        scaled = {k: 1.1 * v if type(v) is float else v for k, v in values.items()}
        got = record(**{k: dtype(v) if type(v) is float else v for k, v in scaled.items()})
        want = record(**{k: float(dtype(v)) if type(v) is float else v for k, v in scaled.items()})
        assert repr(got) == repr(want)
        assert all(type(getattr(got, f.name)) is type(values[f.name]) for f in fields(record))
    echo = build_echo_sequence(replace(P, rotation=0.4))
    got, want = rotate_schedule(echo, dtype(0.3)), rotate_schedule(echo, float(dtype(0.3)))
    assert repr(got.segments) == repr(want.segments)


@pytest.mark.parametrize(
    "seg, kind, label",
    [
        (P, "tqd-loop", "loop-C"),
        (RootLoopParams.of(P.reversed()), "root-loop", "loop-Cbar"),
        (P2.reversed(), "two-qubit-loop", "loop-Cbar"),
        (ExpLoopParams(1.0, 1.0, 0.5), "exp-loop", "loop-C"),
        (PulseParams(40.0, "single"), "pi-pulse", "pi"),
        (PulseParams(40.0, "I"), "pi-pulse", "pi-I"),
        (FlipParams(40.0), "control-flip", "pi-II"),
        (IdleParams(4, 1.0), "idle", "idle"),
    ],
    ids=["tqd-loop", "root-loop", "two-qubit-loop", "exp-loop", "pi", "pi-I", "control-flip",
         "idle"],
)
def test_records_state_their_kind_and_label(seg, kind, label):
    # a loop's label names its traversal orientation, a pulse's the qubit
    # it turns
    assert (seg.kind, seg.label) == (kind, label)
    assert SegmentSchedule((seg,)).labels() == [label]


def test_root_loop_is_the_loop_without_its_correction():
    root = RootLoopParams.of(replace(P, rotation=0.4))
    assert type(root) is RootLoopParams and root.corrected() == root.root()
    assert (root.theta, root.omega, root.omega0, root.rotation) == (P.theta, P.omega, P.omega0, 0.4)
    # the same root fields, bit for bit, whichever `corrected` is asked for
    ts = np.linspace(0.0, P.period, 7)
    bare = replace(P, rotation=0.4).block_fields(ts, corrected=False)
    for corrected in (True, False):
        for got, want in zip(root.block_fields(ts, corrected=corrected), bare):
            assert got.tobytes() == want.tobytes()
    # a root loop and its corrected twin are different segments
    assert root != replace(P, rotation=0.4) and root.reversed() == RootLoopParams.of(
        replace(P.reversed(), rotation=0.4))


@pytest.mark.parametrize("corrected", ["no", 2, np.True_, None, 0.0, []], ids=repr)
def test_corrected_must_be_a_bool(corrected):
    # any truthy value built a corrected loop and any falsy one a root loop
    with pytest.raises(ValueError, match="^corrected must be a boolean"):
        single_loop_schedule(P, corrected=corrected)
    with pytest.raises(ValueError, match="^corrected must be a boolean"):
        P.block_fields([0.0], corrected=corrected)


@pytest.mark.parametrize(
    "seg, rate",
    [
        (replace(P, rotation=0.3), "omega"),
        (RootLoopParams.of(P.reversed()), "omega"),
        (PulseParams(40.0, "single"), "omega_pi"),
        (FlipParams(7.1), "omega_pi"),
        (P2.reversed(), "omega"),
        (ExpLoopParams(P2.omega_i, P2.coupling, P2.omega), "omega"),
        (IdleParams(4, 123.4), None),
    ],
    ids=["tqd-loop", "root-loop", "pi-pulse", "control-flip", "two-qubit-loop", "exp-loop",
         "idle"],
)
def test_segment_dim_and_duration_are_its_records(seg, rate):
    assert type(seg.dim) is int and type(seg.duration) is float
    # a changed record brings its own duration along, never the one the
    # old record cached: a doubled rate halves a loop or pulse, and an
    # idle states its duration
    if rate is None:
        changed, want = replace(seg, duration=2.0 * seg.duration), 2.0 * seg.duration
    else:
        changed, want = replace(seg, **{rate: 2.0 * getattr(seg, rate)}), seg.duration / 2
    assert changed.duration == want and changed.dim == seg.dim


def test_idle_carries_its_duration():
    assert IdleParams(2, 123.4).duration == 123.4
    assert type(IdleParams(4, 2).duration) is float


@pytest.mark.parametrize(
    "duration", [-1.0, 0.0, -0.0, 0, float("nan"), float("inf"), "1.0", True], ids=repr
)
def test_idle_record_rejects_a_bad_duration(duration):
    # every segment lasts some time: a zero-length idle is no segment
    with pytest.raises(ValueError, match="^duration must be positive and finite"):
        IdleParams(2, duration)


@pytest.mark.parametrize("dim", [3, 8, np.int64(6)], ids=repr)
def test_idle_record_takes_dimension_2_or_4(dim):
    with pytest.raises(ValueError, match="^idle dim must be 2 or 4"):
        IdleParams(dim, 1.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: replace(P, rotation="1"), "rotation"),
        (lambda: replace(P, rotation=True), "rotation"),
        (lambda: replace(P, rotation=10**400), "rotation"),
        (lambda: rotate_schedule(ECHO, True), "angle"),
        (lambda: rotate_schedule(ECHO, "1"), "angle"),
        (lambda: IdleParams(2, "2.5"), "duration"),
    ],
    ids=["rotation-string", "rotation-bool", "rotation-huge-int", "angle-bool", "angle-string",
         "idle-duration-string"],
)
def test_constructors_check_values_before_coercing(build, name):
    # float() ran before any check: these built a loop turned by 1 rad
    # and an idle 2.5 long, or raised TypeError; an integer beyond the
    # float range raised OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


def test_single_loop_schedule_shape():
    s = single_loop_schedule(P)
    assert len(s.segments) == 1
    assert s.segments[0] is P
    assert np.isclose(s.total_duration, 2.0 * np.pi)
    bare = single_loop_schedule(P, corrected=False)
    assert bare.segments == (RootLoopParams.of(P),)
    assert bare.segments[0].kind == "root-loop"


def test_echo_sequence_layout():
    s = build_echo_sequence(P)
    assert s.labels() == ["loop-C", "pi", "loop-Cbar", "pi"]
    assert s.segments[1] is s.segments[3] and s.segments[2] == P.reversed()
    # each pulse lasts pi/omega_pi
    omega_pi = 50.0 * abs(P.omega)
    expected = 2.0 * P.period + 2.0 * np.pi / omega_pi
    assert np.isclose(s.total_duration, expected)


def test_echo_sequence_normalizes_orientation():
    """Starting from a reversed loop still puts the forward loop first."""
    s = build_echo_sequence(P.reversed())
    first = s.segments[0]
    assert first.label == "loop-C"
    assert first.omega > 0
    # a forward loop is the echo's first segment as it is
    assert build_echo_sequence(P).segments[0] is P


def test_echo_gaps():
    # the echo takes no gaps; idles between its segments are records of
    # their own, and as identities they leave the echo's gate alone
    with pytest.raises(TypeError):
        build_echo_sequence(P, None, (0.5, 0.25, 0.125))
    s = gapped_echo(P, (0.5, 0.25, 0.125))
    assert s.labels() == ["loop-C", "idle", "pi", "idle", "loop-Cbar", "idle", "pi"]
    idles = [seg.duration for seg in s.segments if seg.kind == "idle"]
    assert idles == [0.5, 0.25, 0.125]
    assert np.isclose(s.total_duration, build_echo_sequence(P).total_duration + 0.875)
    turned = replace(P, rotation=0.4)
    gate = propagate_schedule(gapped_echo(turned, (0.5, 0.0, 0.125))).final_propagator
    assert gate_distance(gate, closed_form_echo_gate(turned)) <= 1e-12


def test_loop_block_fields_match_closed_form():
    ts = np.linspace(0.0, P.period, 9)
    for row, t in zip(field_rows(P, ts), ts):
        assert np.allclose(row, _tqd_field(P, t), atol=1e-14)


def test_pulse_field_is_y_only():
    seg = PulseParams(40.0, "single")
    rows = field_timeline(SegmentSchedule((seg,)), samples_per_segment=3)
    assert np.array_equal(rows[:, 1:], [[0.0, 40.0, 0.0]] * 3)
    assert np.isclose(seg.duration, np.pi / 40.0)


def test_generator_is_half_field_dot_sigma():
    t = 0.3
    h = generator(P, t)
    b = _tqd_field(P, t)
    assert np.allclose(h, 0.5 * np.einsum("k,kij->ij", b, PAULI), atol=1e-14)


def test_rotate_schedule_tilts_fields():
    """Rotating the drive about y maps (x,z) components accordingly and
    leaves y pulses alone."""
    angle = 0.4
    s = build_echo_sequence(P)
    r = rotate_schedule(s, angle)
    ts = np.linspace(0.0, P.period, 7)
    orig = field_rows(s.segments[0], ts)
    rot = field_rows(r.segments[0], ts)
    c, si = np.cos(angle), np.sin(angle)
    expected = np.empty_like(orig)
    expected[:, 0] = c * orig[:, 0] + si * orig[:, 2]
    expected[:, 1] = orig[:, 1]
    expected[:, 2] = -si * orig[:, 0] + c * orig[:, 2]
    assert np.allclose(rot, expected, atol=1e-12)
    pulse = [seg for seg in r.segments if seg.kind == "pi-pulse"][0]
    assert np.array_equal(2.0 * pulse.block_fields(0.0)[1][:, 0, 0], [0.0, 50.0, 0.0])


def test_loop_records_state_the_axis_their_fields_precess_about():
    # each block's field keeps a constant component along the record's
    # axis over the period; only the part across it turns
    lp = LoopParams(1.1, -0.7, 1.0)
    loops = (
        replace(lp, rotation=0.6),
        RootLoopParams.of(replace(lp, rotation=-0.9)),
        P2,
        ExpLoopParams(P2.omega_i, P2.coupling, P2.omega),
    )
    for seg in loops:
        axis = np.array(seg.axis)
        assert np.isclose(axis @ axis, 1.0, rtol=0, atol=1e-15)
        _, v = seg.block_fields(np.linspace(0.0, seg.duration, 9))
        along = np.einsum("k,kbn->bn", axis, v)
        assert np.max(np.abs(along - along[:, :1])) <= 1e-15
        assert np.ptp(np.linalg.norm(v, axis=0), axis=-1).max() <= 1e-15
        with pytest.raises(AttributeError):
            seg.axis = (0.0, 0.0, 1.0)
    assert loops[0].axis == (np.sin(0.6), 0.0, np.cos(0.6))
    assert loops[3].axis == (0.0, 0.0, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.floats(-6.0, 150.0), st.sampled_from([None, StepPolicy(substeps=64)]))
def test_control_flip_in_its_frame_is_the_physics_operator(exponent, policy):
    # in its control's y basis the flip is block diagonal, c0 = +-omega_pi/2
    # and v = 0.5*omega_pi*x in the sectors, a frame turning about its
    # axis x at its own rate; turned back by its control frame it is
    # 0.5*omega_pi*(sx x 1 + 1 x sy), and the walk's partials under either
    # policy are that generator's exponentials at the sample times
    seg = FlipParams(10.0**exponent)
    frame = seg._control_frame
    turn = expm_hermitian(SIGMA_X, -np.pi / 4)  # C = exp(i*pi*sigma_x/4)
    assert np.max(np.abs(turn @ SIGMA_Z @ turn.conj().T - SIGMA_Y)) <= 1e-15
    assert np.max(np.abs(frame - np.kron(np.eye(2), turn))) <= 1e-15
    assert seg.axis == (1.0, 0.0, 0.0) and seg._frame_rate == seg.omega_pi
    h = frame @ pack_blocks(*seg.block_fields([0.0, 0.3])) @ frame.conj().T
    physics = 0.5 * seg.omega_pi * _PULSE_OPERATORS["control-flip"]
    assert np.max(np.abs(h - physics)) <= 1e-15 * seg.omega_pi
    ((partials, substeps),) = _segment_propagators([SegmentSchedule((seg,))], policy, 16)[0]
    ts = seg.duration * np.arange(1, 17) / 16
    assert substeps == 16
    assert np.max(np.abs(partials - expm_hermitian(generator(seg, 0.0), ts))) <= 1e-14


def test_pulse_and_idle_block_fields_are_constant():
    # a y pulse and an idle are constant in time: 0.5*omega_pi*y and zero
    # in every block, with c0 = -0.0
    ts = [0.0, 0.01, 0.5]
    for seg, by in ((PulseParams(40.0, "single"), 20.0), (PulseParams(40.0, "I"), 20.0),
                    (IdleParams(2, 1.0), 0.0), (IdleParams(4, 1.0), 0.0)):
        c0, v = seg.block_fields(ts)
        blocks = seg.dim // 2
        assert c0.shape == (blocks, 3) and v.shape == (3, blocks, 3)
        assert np.all(np.signbit(c0)) and not c0.any()
        assert np.array_equal(v[1], np.full((blocks, 3), by))
        assert not v[0].any() and not v[2].any()
        assert seg._control_frame is None
        with pytest.raises(ValueError, match="corrected must be a boolean"):
            seg.block_fields(ts, corrected=1)
    with pytest.raises(ValueError, match="corrected must be a boolean"):
        FlipParams(40.0).block_fields(ts, corrected=1)


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
    assert s.labels() == driven  # no idles between driven segments


def test_exp_two_qubit_sequence_layout():
    s = build_exp_two_qubit_sequence(P2)
    assert s.labels() == build_two_qubit_sequence(P2).labels()
    loops = [seg for seg in s.segments if seg.kind == "exp-loop"]
    assert len(loops) == 4
    # each loop carries the control-frame term omega * (1 x Sz)
    assert all(seg.frame == (0.5 * seg.omega, -0.5 * seg.omega) for seg in loops)


def test_two_qubit_builders_take_no_gaps_and_exp_loops_no_frame_flag():
    with pytest.raises(TypeError):
        build_two_qubit_sequence(P2, None, [0.0] * 7)
    with pytest.raises(TypeError):
        build_exp_two_qubit_sequence(P2, True)
    with pytest.raises(TypeError):
        ExpLoopParams(P2.omega_i, P2.coupling, P2.omega, True)


def test_schedule_requires_consistent_dims():
    with pytest.raises(ValueError):
        SegmentSchedule((P, IdleParams(4, 1.0)))


# record validation ---------------------------------------------------------

@pytest.mark.parametrize(
    "items", [[single_loop_schedule(P)], (1, 2)], ids=["a-schedule", "integers"]
)
def test_schedule_takes_segments_only(items):
    # a schedule has a dim too, so it passed the dimension check, and the
    # walk then failed on its missing duration
    with pytest.raises(ValueError, match="schedule takes segments only"):
        SegmentSchedule(items)


ECHO = build_echo_sequence(P)
EXP_ECHO = build_exp_two_qubit_sequence(P2)
IDLE = IdleParams(2, 1.0)


@pytest.mark.parametrize(
    "record, key, value, match",
    [
        (ECHO.segments[0], "theta", "1.0", "finite real number"),
        (ECHO.segments[0], "theta", 9.0, "theta must lie in"),
        (ECHO.segments[0], "omega0", -5.0, "omega0 must be positive"),
        (ECHO.segments[0], "omega0", float("nan"), "finite real number"),
        (ECHO.segments[1], "target", 3, "pulse target"),
        (IDLE, "duration", -1.0, "^duration must be positive"),
        (IDLE, "duration", 0.0, "^duration must be positive"),
        (IDLE, "duration", "1.0", "^duration must be positive"),
        # periods and half turns past the float range
        (ECHO.segments[0], "omega", 1e-320, "^omega = .* is too slow: its loop period"),
        (EXP_ECHO.segments[0], "omega", -1e-320, "^omega = .* is too slow: its loop period"),
        (ECHO.segments[1], "omega_pi", 1e-320, "^omega_pi = .* is too slow: its half turn"),
    ],
    ids=[
        "theta-string", "theta-out-of-range", "omega0-negative", "omega0-nan",
        "target-not-string", "idle-duration-negative", "idle-duration-zero",
        "idle-duration-string", "period-overflow", "exp-period-overflow", "half-turn-overflow",
    ],
)
def test_records_reject_bad_parameter_values(record, key, value, match):
    with pytest.raises(ValueError, match=match):
        replace(record, **{key: value})


def test_schedule_rejects_a_total_duration_that_overflows():
    # each loop lasts 1.3e308, so two of them are no float
    slow = LoopParams(1.0, 5e-308, 5e-308)
    assert np.isfinite(slow.duration)
    with pytest.raises(ValueError, match="^schedule duration overflows"):
        build_echo_sequence(slow)
    with pytest.raises(ValueError, match="^schedule duration overflows"):
        SegmentSchedule((slow, slow))


@st.composite
def _drawn_echoes(draw):
    """A single-qubit echo (cone angle, signed omega/omega0 log-uniform in
    +-[0.1, 10], omega0 log-uniform in [0.2, 5], drive rotation, three
    gaps, each drawn from (0, 2]) or a two-qubit echo (omega_i/J
    log-uniform in [0.01, 100], signed rate, conditional or exp loops)."""
    gap = st.floats(0.0, 2.0, exclude_min=True)
    family = draw(st.sampled_from(["single", "two-qubit", "exp"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if family == "single":
        omega0 = 10.0 ** draw(st.floats(-0.7, 0.7))
        ratio = 10.0 ** draw(st.floats(-1.0, 1.0))
        p = LoopParams(draw(st.floats(0.0, np.pi)), sign * ratio * omega0, omega0)
        sched = gapped_echo(p, draw(st.tuples(gap, gap, gap)))
        return rotate_schedule(sched, draw(st.floats(-np.pi, np.pi)))
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    p = TwoQubitParams(
        ratio / np.hypot(ratio, 1.0), 1.0 / np.hypot(ratio, 1.0), sign * draw(st.floats(0.1, 2.0))
    )
    if family == "two-qubit":
        return build_two_qubit_sequence(p)
    return build_exp_two_qubit_sequence(p)


# values no record accepts for a key: beside these, every key rejects a
# string, None, nan, +-inf, an integer beyond the float range and a bool
_OUT_OF_RANGE = {
    "theta": [-0.5, 4.0],
    "omega": [0.0, 1e200, 1e-320],
    "omega0": [0.0, -1.0, 1e200],
    "omega_i": [0.0, -1.0, 1e200],
    "coupling": [0.0, -1.0, 1e200],
    "rotation": [],
    "omega_pi": [0.0, -1.0, 1e-320],
    "target": ["II", "III", 1],
    "dim": [1, 3, 2.0],
    "duration": [-1.0, 0.0],
}


@st.composite
def _bad_params(draw, key):
    """A value the parameter `key` must reject."""
    bad = ["1.0", None, float("nan"), float("inf"), -float("inf"), 10**400, *_OUT_OF_RANGE[key]]
    return draw(st.sampled_from(bad + [True, False]))


@st.composite
def _bad_records(draw):
    """(record, key, value): the record of a segment of a drawn echo, one
    of its fields, and a value that field must reject."""
    record = draw(st.sampled_from(draw(_drawn_echoes()).segments))
    key = draw(st.sampled_from([f.name for f in fields(record)]))
    return record, key, draw(_bad_params(key))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_bad_records())
def test_records_reject_generated_bad_params(draw):
    # a value converted before its check raises TypeError (float(None))
    # or passes (bool(1)); pytest.raises(ValueError) lets a TypeError
    # through as a failure
    record, key, bad = draw
    with pytest.raises(ValueError):
        replace(record, **{key: bad})


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
