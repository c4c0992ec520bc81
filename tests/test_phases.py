"""Phase decomposition: eigenvector gauges, dynamical and geometric parts,
echo cancellation, two-qubit conditional phases."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho import phases
from tqdecho.fields import ExpLoopParams, LoopParams, RootLoopParams, TwoQubitParams
from tqdecho.gates import closed_form_echo_gate
from tqdecho.phases import (
    LABELS4,
    _unwrapped_overlap_phase,
    correction_energy_check,
    delta_omega,
    dynamical_phase,
    echo_phase_decomposition,
    eigenbasis_matrix,
    evolve_eigenstate,
    loop_eigenvector,
    loop_phase_decomposition,
    solid_angle,
    total_phase,
    tracking_fidelity,
)
from tqdecho.propagate import StepPolicy, propagate_schedule
from tqdecho.qcore import gate_distance, unitarity_defect, wrap_angle
from tqdecho.schedule import (
    IdleParams,
    PulseParams,
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    rotate_schedule,
    single_loop_schedule,
)

from dense import generator, generator_batch
from echoes import gapped_echo

SEED = 20260816
P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
P2_PULSE_RATE = 25.0  # the default 50*|omega| of P2's echo
POL = StepPolicy(substeps=2048)


def _misaligned_schedule() -> SegmentSchedule:
    """P2, its pi-I pulse, then a reversed loop on the cones atan(0.1)
    and pi - atan(0.1), where P2's are pi/4 and 3*pi/4: the pulse maps
    P2's eigenstates onto none of the second loop's (best overlap
    0.94)."""
    return SegmentSchedule(
        (P2, PulseParams(P2_PULSE_RATE, "I"), TwoQubitParams(0.1, 1.0, P2.omega).reversed())
    )


# eigenvector gauges ----------------------------------------------------------

def test_loop_eigenvectors_at_origin():
    lo, hi = loop_eigenvector(P, 0, 0.0), loop_eigenvector(P, 1, 0.0)
    half = P.theta / 2
    assert np.allclose(lo, [np.cos(half), np.sin(half)])
    assert np.allclose(hi, [-np.sin(half), np.cos(half)])


def test_loop_eigenvectors_solve_the_root_hamiltonian():
    """H0 phi_p = (+/-)(omega0/2) phi_p along the whole loop."""
    seg = RootLoopParams.of(P)
    rng = np.random.default_rng(SEED)
    for t in rng.uniform(0.0, P.period, size=6):
        h0 = generator(seg, t)
        for label, sign in ((0, 1.0), (1, -1.0)):
            v = loop_eigenvector(P, label, t)
            assert np.allclose(h0 @ v, sign * 0.5 * P.omega0 * v, atol=1e-12)


def test_loop_eigenvector_gauge_is_periodic():
    for label in (0, 1):
        v0 = loop_eigenvector(P, label, 0.0)
        vT = loop_eigenvector(P, label, P.period)
        assert np.allclose(v0, vT, atol=1e-12)


def test_two_qubit_eigenvectors():
    rng = np.random.default_rng(SEED)
    for t in rng.uniform(0.0, P2.period, size=4):
        h0 = generator(P2, t, corrected=False)
        # the columns of the eigenbasis, in LABELS4 order
        for v in eigenbasis_matrix(P2, t).T:
            hv = h0 @ v
            e = np.vdot(v, hv).real
            assert np.allclose(hv, e * v, atol=1e-12)
            assert np.isclose(abs(e), 0.5 * P2.rabi)


def test_eigenbasis_matrix_is_unitary():
    b = eigenbasis_matrix(P2)
    assert unitarity_defect(b) <= 1e-9


@st.composite
def _drawn_loops(draw):
    """A loop of every record kind: a tqd-loop or root-loop (cone angle,
    |omega/omega0| log-uniform in [0.1, 10] with either sign, omega0
    log-uniform in [0.2, 5], rotation in [-pi, pi]), a two-qubit-loop, or
    an exp-loop (J log-uniform in [0.2, 5], omega_i / J in [0.01, 100],
    |omega/J| in [0.1, 10] with either sign); and a fraction of its
    period."""
    kind = draw(st.sampled_from(["tqd-loop", "root-loop", "two-qubit-loop", "exp-loop"]))
    scale = 10.0 ** draw(st.floats(np.log10(0.2), np.log10(5.0)))
    rate = draw(st.sampled_from([-1.0, 1.0])) * scale * 10.0 ** draw(st.floats(-1.0, 1.0))
    if kind in ("tqd-loop", "root-loop"):
        p = LoopParams(draw(st.floats(0.0, np.pi)), rate, scale, draw(st.floats(-np.pi, np.pi)))
        seg = p if kind == "tqd-loop" else RootLoopParams.of(p)
    else:
        seg = TwoQubitParams(scale * 10.0 ** draw(st.floats(-2.0, 2.0)), scale, rate)
        if kind == "exp-loop":
            seg = ExpLoopParams(seg.omega_i, seg.coupling, seg.omega)
    return seg, draw(st.floats(0.0, 1.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_drawn_loops())
def test_eigenvectors_solve_every_loop_record(draw):
    """The one eigenvector path, read from a loop record alone, solves
    its root block fields: per block c0 + v . sigma, label p = 0 has
    energy c0 + |v| and p = 1 energy c0 - |v|, at t = 0, at a drawn time
    and at the period's end, where the gauge has come back to its start."""
    seg, fraction = draw
    ts = np.array([0.0, fraction, 1.0]) * seg.duration
    c0, v = seg.block_fields(ts, corrected=False)
    h = generator_batch(seg, ts, corrected=False)
    labels = (0, 1) if seg.dim == 2 else LABELS4
    vecs = phases._eigvecs(seg, labels, ts)
    scale = np.max(np.abs(c0) + np.linalg.norm(v, axis=0))
    for label, vec in zip(labels, vecs):
        energy, q = (label, 0) if seg.dim == 2 else label
        e = c0[q] + (1 - 2 * energy) * np.linalg.norm(v[:, q], axis=0)
        # bounds at rounding: residuals up to 5.4e-16 of the field scale
        # and a gauge mismatch up to 1.1e-15 were measured
        residual = np.einsum("nij,nj->ni", h, vec) - e[:, None] * vec
        assert np.max(np.abs(residual)) <= 1e-14 * scale
        assert np.allclose(np.linalg.norm(vec, axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(vec[-1] - vec[0])) <= 1e-14


# closed-form phase quantities ------------------------------------------------

def test_solid_angle_values():
    assert solid_angle(0.0) == 0.0
    assert np.isclose(solid_angle(np.pi / 3), np.pi)
    assert np.isclose(solid_angle(np.pi / 2), 2.0 * np.pi)
    assert np.isclose(solid_angle(np.pi), 4.0 * np.pi)


def test_delta_omega_square_coupling():
    assert np.isclose(delta_omega(P2), 2.0 * np.pi / np.sqrt(2.0), rtol=1e-15)


# single-loop decomposition -----------------------------------------------------

def test_tracking_fidelity_corrected():
    traj = evolve_eigenstate(single_loop_schedule(P), 0, POL, samples=64)
    assert tracking_fidelity(traj, 0).min() >= 1.0 - 1e-7


def test_tracking_fidelity_uncorrected_dips():
    """Bare precessing drive at omega = omega0 loses the eigenstate; the
    worst overlap is sin^2(theta/2)^... the closed-form floor."""
    bare = single_loop_schedule(P, corrected=False)
    traj = evolve_eigenstate(bare, 0, POL, samples=256)
    floor = tracking_fidelity(traj, 0).min()
    nu2 = P.omega0**2 + P.omega**2 - 2.0 * P.omega0 * P.omega * np.cos(P.theta)
    analytic = (P.omega0 - P.omega * np.cos(P.theta)) ** 2 / nu2
    assert abs(floor - analytic) < 1e-3
    assert floor < 0.3


@pytest.mark.parametrize("label,sign", [(0, -1.0), (1, 1.0)])
def test_loop_phases_match_closed_form(label, sign):
    traj = evolve_eigenstate(single_loop_schedule(P), label, POL, samples=128)
    dec = loop_phase_decomposition(traj, label)
    # dynamical: -(1-2p) * omega0 * T / 2; geometric: (2p-1)*pi*(1-cos theta)
    assert np.isclose(dec.dynamical, sign * np.pi, atol=1e-9)
    assert np.isclose(dec.expected_dynamical, sign * np.pi)
    assert np.isclose(
        wrap_angle(dec.geometric - sign * np.pi / 2.0), 0.0, atol=1e-5
    )
    assert dec.geometric_deviation < 1e-5
    assert dec.dynamical_deviation < 1e-9


@st.composite
def _drawn_single_loops(draw):
    """A corrected loop and a label: cone angle in [0, pi], |omega/omega0|
    log-uniform in [0.1, 10] with either sign, omega0 log-uniform in
    [0.2, 5], and a drive rotation."""
    omega0 = 10.0 ** draw(st.floats(np.log10(0.2), np.log10(5.0)))
    ratio = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 1.0))
    p = LoopParams(theta=draw(st.floats(0.0, np.pi)), omega=ratio * omega0, omega0=omega0)
    loop = replace(p, rotation=draw(st.floats(-np.pi, np.pi)))
    return SegmentSchedule((loop,)), draw(st.integers(0, 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_single_loops())
def test_loop_phases_match_closed_form_across_parameters(case):
    # worst over 3000 random draws: geometric 1.3e-13, dynamical 7.7e-16
    # relative to its closed form
    sched, label = case
    (seg,) = sched.segments
    theta, omega, omega0 = seg.theta, seg.omega, seg.omega0
    traj = evolve_eigenstate(sched, label)
    # the turned record's own eigenvector is the state the evolution starts from
    assert np.array_equal(loop_eigenvector(seg, label, 0.0), traj.initial_state)
    dec = loop_phase_decomposition(traj, label)
    dynamical = -(1 - 2 * label) * np.pi * omega0 / abs(omega)
    geometric = np.sign(omega) * (2 * label - 1) * solid_angle(theta) / 2.0
    assert abs(dec.dynamical - dynamical) <= 1e-14 * abs(dynamical)
    assert abs(wrap_angle(dec.geometric - geometric)) <= 2e-12


def test_loop_total_phase_frozen_value():
    """theta=pi/3 at omega=omega0: dynamical -pi plus geometric -pi/2."""
    traj = evolve_eigenstate(single_loop_schedule(P), 0, POL, samples=128)
    assert np.isclose(total_phase(traj, 0), -1.5 * np.pi, atol=1e-5)


def test_loop_phases_flip_with_orientation():
    traj = evolve_eigenstate(single_loop_schedule(P.reversed()), 0, POL, samples=128)
    dec = loop_phase_decomposition(traj, 0)
    # dynamical is orientation blind, geometric flips sign
    assert np.isclose(dec.dynamical, -np.pi, atol=1e-9)
    assert np.isclose(wrap_angle(dec.geometric - np.pi / 2.0), 0.0, atol=1e-5)


def test_dynamical_phase_root_choices():
    # residual shift is integrator state error, fourth order in step size:
    # 1.8e-11 at 1024 steps
    pol = StepPolicy(substeps=1024)
    traj = evolve_eigenstate(single_loop_schedule(P), 0, pol, samples=128)
    d_root = dynamical_phase(traj, root="root")
    d_full = dynamical_phase(traj, root="full")
    # the correction is purely off diagonal in the tracked basis
    assert abs(d_full - d_root) < 2e-9
    with pytest.raises(ValueError):
        dynamical_phase(traj, root="bogus")


def test_correction_energy_is_zero_on_eigenstates():
    assert correction_energy_check(P) < 1e-12
    assert correction_energy_check(replace(P.reversed(), rotation=0.7)) < 1e-12


# echo decomposition ------------------------------------------------------------

def test_echo_cancels_dynamical_phase():
    # at 1024 Magnus steps: dynamical 4.7e-14 (it cancels to rounding at
    # any step count), geometric and total 1.7e-11
    sched = build_echo_sequence(P)
    pol = StepPolicy(substeps=1024)
    for label in (0, 1):
        traj = evolve_eigenstate(sched, label, pol, samples=128)
        dec = echo_phase_decomposition(traj, label)
        assert abs(dec.dynamical) < 1e-11
        assert dec.geometric_deviation < 2e-9
        # survivor is twice the loop geometric difference: 2*pi*cos(theta)
        expected = (1.0 - 2.0 * label) * 2.0 * np.pi * np.cos(P.theta)
        assert abs(wrap_angle(dec.total - expected)) < 2e-9


def test_two_qubit_echo_phases():
    sched = build_two_qubit_sequence(P2)
    dphi = delta_omega(P2)
    pol = StepPolicy(substeps=4096)
    for p, q in ((0, 0), (1, 1)):
        traj = evolve_eigenstate(sched, (p, q), pol, samples=256)
        dec = echo_phase_decomposition(traj, (p, q))
        assert abs(dec.dynamical) < 1e-5
        sign = 1.0 if (p + q) % 2 == 0 else -1.0
        assert np.isclose(dec.expected_geometric, sign * 2.0 * dphi)
        assert dec.geometric_deviation < 1e-5


@pytest.mark.parametrize(
    "sched,label",
    [
        (rotate_schedule(build_echo_sequence(P), 0.4), 1),
        (build_two_qubit_sequence(P2), (0, 1)),
        (build_exp_two_qubit_sequence(P2), (1, 0)),
    ],
    ids=["single", "two-qubit", "exp"],
)
@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=256)], ids=["exact", "oracle"])
def test_overlap_phase_is_constant_through_pulses(sched, label, policy):
    traj = evolve_eigenstate(sched, label, policy, samples=64)
    phase = _unwrapped_overlap_phase(traj, label)
    pulses = [i for i, seg in enumerate(sched.segments) if seg.kind in ("pi-pulse", "control-flip")]
    assert pulses
    for i in pulses:
        rows = phase[traj.segment_rows(i)]
        assert rows.size > 2
        assert np.max(np.abs(rows - rows[0])) <= 1e-14


def _dense_dynamical_phase(traj, root):
    """Trapezoid rule over the dense <psi|H|psi> of every segment."""
    local = traj.local_times()
    total = 0.0
    for i, seg in enumerate(traj.schedule.segments):
        rows = traj.segment_rows(i)
        ts = local[rows]
        hs = generator_batch(seg, ts, corrected=root == "full")
        psi = traj.states[rows]
        expect = np.einsum("ni,nij,nj->n", psi.conj(), hs, psi).real
        total += np.sum(0.5 * (expect[1:] + expect[:-1]) * np.diff(ts))
    return -total


def _phase_schedules():
    out = []
    for corrected in (True, False):
        for rotation in (0.0, 0.7):
            loop = single_loop_schedule(replace(P, rotation=rotation), corrected).segments[0]
            out.append(SegmentSchedule((loop, PulseParams(20.0, "single"), loop.reversed())))
    for q in (P2, P2.reversed()):
        out.append(SegmentSchedule((q,)))
        out.append(SegmentSchedule((ExpLoopParams(q.omega_i, q.coupling, q.omega),)))
    # the exp echo keeps the id it had when zero-length idles sat between
    # its loops and pulses, so its cases stay under one name
    out.append(pytest.param(build_exp_two_qubit_sequence(P2), id="exp-loopTrue-idle-pi-pulse"))
    # a pi-I pulse into a loop on other cones, which misaligns the reference
    out.append(_misaligned_schedule())
    return out


@pytest.mark.parametrize("root", ["root", "full"])
@pytest.mark.parametrize(
    "sched", _phase_schedules(),
    # "True" marks a record with a scalar frame term, the exp loop
    ids=lambda s: "-".join(
        f"{seg.kind}{'True' if any(getattr(seg, 'frame', ())) else ''}" for seg in s.segments[:3]
    ),
)
def test_block_dynamical_phase_matches_dense_generators(sched, root):
    # a generic state, so every block term contributes
    rng = np.random.default_rng(SEED)
    psi = rng.normal(size=sched.dim) + 1j * rng.normal(size=sched.dim)
    traj = propagate_schedule(sched, psi / np.linalg.norm(psi), samples=64)
    got = dynamical_phase(traj, root=root)
    want = _dense_dynamical_phase(traj, root)
    assert abs(got - want) <= 1e-13 * abs(want)


# failure modes -----------------------------------------------------------------

def test_total_phase_rejects_lost_tracking():
    bare = single_loop_schedule(P, corrected=False)
    traj = evolve_eigenstate(bare, 0, POL, samples=128)
    with pytest.raises(ValueError, match="overlap"):
        total_phase(traj, 0)


def test_total_phase_rejects_sparse_sampling():
    traj = evolve_eigenstate(single_loop_schedule(P), 0, POL, samples=2)
    with pytest.raises(ValueError, match="samples"):
        total_phase(traj, 0)


def test_strict_reference_rejects_bad_control_pulse():
    """A pi-I pulse into a loop whose cones differ from the first loop's
    maps no eigenstate to an eigenstate, so the comoving reference
    refuses to continue."""
    traj = evolve_eigenstate(_misaligned_schedule(), (0, 0), StepPolicy(substeps=512), samples=16)
    with pytest.raises(ValueError, match="does not map eigenstates"):
        total_phase(traj, (0, 0))


def test_phase_analysis_requires_leading_loop():
    from tqdecho.propagate import propagate_schedule

    s = SegmentSchedule((IdleParams(2, 1.0),))
    t = propagate_schedule(
        s,
        initial_state=np.array([1.0, 0.0], dtype=complex),
        policy=StepPolicy(substeps=8),
        samples=4,
    )
    with pytest.raises(ValueError, match="starts with a loop"):
        total_phase(t, 0)
    with pytest.raises(ValueError, match="starts with a loop"):
        evolve_eigenstate(s, 0)


@pytest.mark.parametrize("label", [1.0, True, np.float64(0.0), "1"])
def test_evolve_eigenstate_takes_the_label_rule_of_every_phase_function(label):
    # evolve_eigenstate accepted 1.0, which the phase functions reject
    echo = build_echo_sequence(LoopParams(np.pi / 3, 1.0, 1.0))
    traj = evolve_eigenstate(echo, 1)
    loop = evolve_eigenstate(single_loop_schedule(P), 0)
    for call in (
        lambda: evolve_eigenstate(echo, label),
        lambda: tracking_fidelity(traj, label),
        lambda: total_phase(traj, label),
        lambda: echo_phase_decomposition(traj, label),
        lambda: loop_phase_decomposition(loop, label),
    ):
        with pytest.raises(ValueError, match="single-qubit label must be an int, 0 or 1"):
            call()


@pytest.mark.parametrize("label", [0, (1.0, 0), (True, 0), (0, 2), (0, 1, 0), "01"])
def test_two_qubit_labels_are_pairs_of_bits(label):
    # 0 raised TypeError, and (1.0, True) tracked the (1, 1) eigenstate
    sched = build_two_qubit_sequence(P2)
    traj = evolve_eigenstate(sched, [1, 0])
    for call in (
        lambda: evolve_eigenstate(sched, label),
        lambda: tracking_fidelity(traj, label),
    ):
        with pytest.raises(ValueError, match="two-qubit label must be a pair"):
            call()


@pytest.mark.parametrize("label", [2, -1, 1.0, True])
def test_loop_eigenvector_takes_the_same_label_rule(label):
    with pytest.raises(ValueError, match="single-qubit label must be an int, 0 or 1"):
        loop_eigenvector(P, label, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: loop_eigenvector(P2, 0, 0.0),
        lambda: eigenbasis_matrix(P, 0.0),
    ],
    ids=["loop-of-two-qubit", "basis-of-loop"],
)
def test_eigenvectors_take_a_record_of_their_dimension(call):
    # read from the record directly, a LoopParams gave the two-qubit
    # function a one-qubit vector
    with pytest.raises(ValueError, match="^expected a loop record of dimension"):
        call()


_EIGENVECTOR_CALLS = {
    "loop": lambda t: loop_eigenvector(P, 0, t),
    "loop-rotated": lambda t: loop_eigenvector(replace(P, rotation=0.7), 1, t),
    "basis": lambda t: eigenbasis_matrix(P2, t),
}


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "1", True], ids=repr)
@pytest.mark.parametrize("function", sorted(_EIGENVECTOR_CALLS))
def test_eigenvectors_take_a_finite_real_time(function, t):
    # nan and inf gave NaN components, and "1" was read as 1.0
    with pytest.raises(ValueError, match="^t must be a finite real number"):
        _EIGENVECTOR_CALLS[function](t)


@pytest.mark.parametrize("rotation", [True, np.nan, np.inf, "1"], ids=repr)
def test_loop_eigenvector_checks_its_rotation_as_a_loop_does(rotation):
    # True turned the vector by 1 rad, nan gave NaNs and "1" a TypeError
    with pytest.raises(ValueError, match="^rotation must be a finite real number"):
        loop_eigenvector(replace(P, rotation=rotation), 0, 0.0)


# one overlap series per trajectory and label ----------------------------------

def _count_reference_builds(monkeypatch) -> list:
    calls = []
    build = phases._reference_series

    def counted(traj, label):
        calls.append(label)
        return build(traj, label)

    monkeypatch.setattr(phases, "_reference_series", counted)
    return calls


def test_phase_functions_share_one_reference_build(monkeypatch):
    calls = _count_reference_builds(monkeypatch)
    traj = evolve_eigenstate(rotate_schedule(build_echo_sequence(P), 0.4), 1, samples=64)
    echo_phase_decomposition(traj, 1)
    tracking_fidelity(traj, 1)
    total_phase(traj, 1)
    dynamical_phase(traj)
    assert calls == [1]
    # a second label builds its own series once
    assert tracking_fidelity(traj, 0).max() < 1e-12
    tracking_fidelity(traj, 0)
    assert calls == [1, 0]


def test_two_qubit_labels_share_one_reference_build(monkeypatch):
    calls = _count_reference_builds(monkeypatch)
    traj = evolve_eigenstate(build_two_qubit_sequence(P2), (0, 1), samples=256)
    tracking_fidelity(traj, (0, 1))
    echo_phase_decomposition(traj, [0, 1])  # a list names the same label
    assert calls == [(0, 1)]


@pytest.mark.parametrize("label", [np.int64(1), (np.int64(0), np.uint8(1))], ids=repr)
def test_numpy_integer_labels_are_stored_as_python_ints(label, monkeypatch):
    # a numpy label reached PhaseDecomposition unchanged, and json.dumps
    # of its to_dict() raised "Object of type int64 is not JSON serializable"
    calls = _count_reference_builds(monkeypatch)
    sched = build_echo_sequence(P) if np.ndim(label) == 0 else build_two_qubit_sequence(P2)
    traj = evolve_eigenstate(sched, label, samples=64)
    dec = echo_phase_decomposition(traj, label)
    plain = int(label) if np.ndim(label) == 0 else tuple(map(int, label))
    assert json.loads(json.dumps(dec.to_dict()))["label"] == json.loads(json.dumps(plain))
    tracking_fidelity(traj, plain)
    assert calls == [plain]
    for key in (dec.label, calls[0]):
        assert all(type(k) is int for k in (key if isinstance(key, tuple) else (key,)))


def _bad_control_pulse_trajectory():
    return evolve_eigenstate(_misaligned_schedule(), (0, 0), StepPolicy(substeps=512), samples=16)


def test_strict_check_holds_after_a_lenient_call():
    """tracking_fidelity builds the series without the alignment check;
    a later total_phase on the same trajectory still refuses it."""
    traj = _bad_control_pulse_trajectory()
    fid = tracking_fidelity(traj, (0, 0))
    assert fid.min() < 0.9
    with pytest.raises(ValueError, match="does not map eigenstates"):
        total_phase(traj, (0, 0))
    with pytest.raises(ValueError, match="does not map eigenstates"):
        echo_phase_decomposition(traj, (0, 0))
    # and the lenient call still answers after the strict one refused
    assert np.array_equal(tracking_fidelity(traj, (0, 0)), fid)


def test_lost_tracking_is_refused_after_a_lenient_call():
    bare = single_loop_schedule(P, corrected=False)
    traj = evolve_eigenstate(bare, 0, POL, samples=128)
    assert tracking_fidelity(traj, 0).min() < 0.3
    with pytest.raises(ValueError, match="overlap"):
        total_phase(traj, 0)


def test_new_initial_state_starts_a_new_series():
    sched = rotate_schedule(build_echo_sequence(P), -0.9)
    first = evolve_eigenstate(sched, 0, samples=64)
    tracking_fidelity(first, 0)
    echo_phase_decomposition(first, 0)
    psi1 = loop_eigenvector(replace(P, rotation=-0.9), 1, 0.0)
    moved = first.with_initial_state(psi1)
    fresh = evolve_eigenstate(sched, 1, samples=64)
    for label in (0, 1):
        assert np.array_equal(tracking_fidelity(moved, label), tracking_fidelity(fresh, label))
    assert echo_phase_decomposition(moved, 1) == echo_phase_decomposition(fresh, 1)
    # the original trajectory keeps its own series
    assert tracking_fidelity(first, 0).min() >= 1.0 - 1e-12


def test_segment_rows_and_local_times_are_tabulated():
    sched = gapped_echo(P, (0.3, 0.0, 0.2))
    traj = evolve_eigenstate(sched, 0, samples=32)
    for i, seg in enumerate(sched.segments):
        rows = traj.segment_rows(i)
        assert np.all(traj.segment_index[rows] == i)
        assert rows.stop - rows.start == np.count_nonzero(traj.segment_index == i)
        # a segment's local times are its own grid, not absolute time minus
        # its start, and its absolute times are that grid from its start
        cps = rows.stop - rows.start - 1
        grid = seg.duration * np.arange(cps + 1) / cps
        assert traj.local_times()[rows].tobytes() == grid.tobytes()
        assert np.array_equal(traj.times[rows], traj.times[rows.start] + grid)
    assert not traj.local_times().flags.writeable


# generated echoes ----------------------------------------------------------------

@st.composite
def _drawn_echoes(draw):
    """Cone angle, |omega/omega0| log-uniform in [0.1, 10] with either
    sign, omega0 log-uniform in [0.2, 5], drive rotation and label."""
    omega0 = 10.0 ** draw(st.floats(np.log10(0.2), np.log10(5.0)))
    ratio = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 1.0))
    p = LoopParams(theta=draw(st.floats(0.0, np.pi)), omega=ratio * omega0, omega0=omega0)
    return p, draw(st.floats(-np.pi, np.pi)), draw(st.sampled_from([0, 1]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_echoes())
def test_echo_keeps_only_the_geometric_phase(draw):
    # bounds: criterion 2's 1e-11 on the geometric phase, and rounding
    # level on the residual dynamical phase and the tracking
    p, rotation, label = draw
    traj = evolve_eigenstate(rotate_schedule(build_echo_sequence(p), rotation), label)
    dec = echo_phase_decomposition(traj, label)
    expected = (1 - 2 * label) * 2.0 * np.pi * np.cos(p.theta)
    assert abs(wrap_angle(dec.geometric - expected)) <= 1e-11
    assert abs(dec.dynamical) / (p.omega0 * p.period) <= 1e-12
    assert 1.0 - tracking_fidelity(traj, label).min() <= 1e-12
    # the closed form of the turned loop is the echo's gate (worst over
    # 2000 random draws: 4.4e-16)
    turned = closed_form_echo_gate(replace(p, rotation=rotation))
    assert gate_distance(traj.final_propagator, turned) <= 1e-12


@pytest.mark.parametrize("rotation", [0.0, 0.7])
def test_echo_keeps_an_inhomogeneous_ensemble_pure(rotation):
    """41 spins with omega0 spread over [0.5, 1.5], each starting in an
    equal superposition of the two loop eigenstates: one loop dephases
    the ensemble, the echo refocuses it."""
    theta, omega = np.pi / 3, 1.0
    spins = [LoopParams(theta, omega, omega0) for omega0 in np.linspace(0.5, 1.5, 41)]
    turned = replace(spins[0], rotation=rotation)
    psi0 = (loop_eigenvector(turned, 0, 0.0) + loop_eigenvector(turned, 1, 0.0)) / np.sqrt(2.0)

    def purity(build):
        finals = np.array([
            propagate_schedule(rotate_schedule(build(p), rotation), psi0, samples=2).states[-1]
            for p in spins
        ])
        rho = np.einsum("ni,nj->ij", finals, finals.conj()) / len(spins)
        return float(np.trace(rho @ rho).real)

    assert purity(build_echo_sequence) >= 1.0 - 1e-12
    assert purity(single_loop_schedule) < 0.9
