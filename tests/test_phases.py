"""Phase decomposition: eigenvector gauges, dynamical and geometric parts,
echo cancellation, two-qubit conditional phases."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho import phases
from tqdecho.fields import LoopParams, TwoQubitParams
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
    two_qubit_eigenvector,
)
from tqdecho.propagate import StepPolicy, propagate_schedule
from tqdecho.qcore import unitarity_defect, wrap_angle
from tqdecho.schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    exp_loop_segment,
    loop_segment,
    pi_pulse_segment,
    rotate_schedule,
    single_loop_schedule,
    two_qubit_loop_segment,
)

from dense import generator, generator_batch

SEED = 20260816
P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
POL = StepPolicy(substeps=2048)


# eigenvector gauges ----------------------------------------------------------

def test_loop_eigenvectors_at_origin():
    lo, hi = loop_eigenvector(P, 0, 0.0), loop_eigenvector(P, 1, 0.0)
    half = P.theta / 2
    assert np.allclose(lo, [np.cos(half), np.sin(half)])
    assert np.allclose(hi, [-np.sin(half), np.cos(half)])


def test_loop_eigenvectors_solve_the_root_hamiltonian():
    """H0 phi_p = (+/-)(omega0/2) phi_p along the whole loop."""
    from tqdecho.schedule import loop_segment

    seg = loop_segment(P, corrected=False)
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
    from tqdecho.schedule import two_qubit_loop_segment

    seg = two_qubit_loop_segment(P2)
    rng = np.random.default_rng(SEED)
    for t in rng.uniform(0.0, P2.period, size=4):
        h0 = generator(seg, t, corrected=False)
        for p, q in LABELS4:
            v = two_qubit_eigenvector(P2, (p, q), t)
            hv = h0 @ v
            e = np.vdot(v, hv).real
            assert np.allclose(hv, e * v, atol=1e-12)
            assert np.isclose(abs(e), 0.5 * P2.rabi)


def test_eigenbasis_matrix_is_unitary():
    b = eigenbasis_matrix(P2)
    assert unitarity_defect(b) <= 1e-9


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
    loop = loop_segment(p, rotation=draw(st.floats(-np.pi, np.pi)))
    return SegmentSchedule((loop,)), draw(st.integers(0, 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_single_loops())
def test_loop_phases_match_closed_form_across_parameters(case):
    # worst over 3000 random draws: geometric 1.3e-13, dynamical 7.7e-16
    # relative to its closed form
    sched, label = case
    (seg,) = sched.segments
    theta, omega, omega0 = seg.params.theta, seg.params.omega, seg.params.omega0
    dec = loop_phase_decomposition(evolve_eigenstate(sched, label), label)
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
    assert correction_energy_check(P, n_samples=32) < 1e-12


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
@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=256)], ids=["exact", "midpoint"])
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
        if ts.size < 2:
            continue
        hs = generator_batch(seg, ts, corrected=root == "full")
        psi = traj.states[rows]
        expect = np.einsum("ni,nij,nj->n", psi.conj(), hs, psi).real
        total += np.sum(0.5 * (expect[1:] + expect[:-1]) * np.diff(ts))
    return -total


def _phase_schedules():
    out = []
    for corrected in (True, False):
        for rotation in (0.0, 0.7):
            out.append(SegmentSchedule((
                loop_segment(P, corrected, rotation),
                pi_pulse_segment(20.0),
                loop_segment(P.reversed(), corrected, rotation),
            )))
    for reverse in (False, True):
        out.append(SegmentSchedule((two_qubit_loop_segment(P2, reverse),)))
        for frame_term in (True, False):
            out.append(SegmentSchedule((exp_loop_segment(P2, reverse, frame_term),)))
    out.append(build_exp_two_qubit_sequence(P2))
    # a y half turn on the control alone, so every pulse axis is covered
    out.append(SegmentSchedule((
        two_qubit_loop_segment(P2),
        pi_pulse_segment(P2.omega_pi, target="II"),
        two_qubit_loop_segment(P2, True),
    )))
    return out


@pytest.mark.parametrize("root", ["root", "full"])
@pytest.mark.parametrize(
    "sched", _phase_schedules(),
    ids=lambda s: "-".join(f"{seg.kind}{getattr(seg.params, 'frame_term', '')}" for seg in s.segments[:3]),
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
    """A bare y pulse on the control alone permutes sectors without
    aligning eigenstates, so the comoving reference refuses to continue."""
    bad = SegmentSchedule(
        (
            two_qubit_loop_segment(P2),
            pi_pulse_segment(P2.omega_pi, target="II"),
            two_qubit_loop_segment(P2, reverse=True),
        )
    )
    traj = evolve_eigenstate(bad, (0, 0), StepPolicy(substeps=512), samples=16)
    with pytest.raises(ValueError, match="does not map eigenstates"):
        total_phase(traj, (0, 0))


def test_phase_analysis_requires_leading_loop():
    from tqdecho.propagate import propagate_schedule
    from tqdecho.schedule import idle_segment

    s = SegmentSchedule((idle_segment(1.0),))
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
        lambda: two_qubit_eigenvector(P2, label, 0.0),
    ):
        with pytest.raises(ValueError, match="two-qubit label must be a pair"):
            call()


@pytest.mark.parametrize("label", [2, -1, 1.0, True])
def test_loop_eigenvector_takes_the_same_label_rule(label):
    with pytest.raises(ValueError, match="single-qubit label must be an int, 0 or 1"):
        loop_eigenvector(P, label, 0.0)


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


def _bad_control_pulse_trajectory():
    bad = SegmentSchedule(
        (
            two_qubit_loop_segment(P2),
            pi_pulse_segment(P2.omega_pi, target="II"),
            two_qubit_loop_segment(P2, reverse=True),
        )
    )
    return evolve_eigenstate(bad, (0, 0), StepPolicy(substeps=512), samples=16)


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
    psi1 = loop_eigenvector(P, 1, 0.0, rotation=-0.9)
    moved = first.with_initial_state(psi1)
    fresh = evolve_eigenstate(sched, 1, samples=64)
    for label in (0, 1):
        assert np.array_equal(tracking_fidelity(moved, label), tracking_fidelity(fresh, label))
    assert echo_phase_decomposition(moved, 1) == echo_phase_decomposition(fresh, 1)
    # the original trajectory keeps its own series
    assert tracking_fidelity(first, 0).min() >= 1.0 - 1e-12


def test_segment_rows_and_local_times_are_tabulated():
    sched = build_echo_sequence(P, gaps=(0.3, 0.0, 0.2))
    traj = evolve_eigenstate(sched, 0, samples=32)
    starts = sched.boundaries[:-1]
    for i in range(len(sched.segments)):
        rows = traj.segment_rows(i)
        assert np.all(traj.segment_index[rows] == i)
        assert rows.stop - rows.start == np.count_nonzero(traj.segment_index == i)
    assert np.array_equal(traj.local_times(), traj.times - starts[traj.segment_index])
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


@pytest.mark.parametrize("rotation", [0.0, 0.7])
def test_echo_keeps_an_inhomogeneous_ensemble_pure(rotation):
    """41 spins with omega0 spread over [0.5, 1.5], each starting in an
    equal superposition of the two loop eigenstates: one loop dephases
    the ensemble, the echo refocuses it."""
    theta, omega = np.pi / 3, 1.0
    spins = [LoopParams(theta, omega, omega0) for omega0 in np.linspace(0.5, 1.5, 41)]
    psi0 = (loop_eigenvector(spins[0], 0, 0.0, rotation)
            + loop_eigenvector(spins[0], 1, 0.0, rotation)) / np.sqrt(2.0)

    def purity(build):
        finals = np.array([
            propagate_schedule(rotate_schedule(build(p), rotation), psi0, samples=2).final_state
            for p in spins
        ])
        rho = np.einsum("ni,nj->ij", finals, finals.conj()) / len(spins)
        return float(np.trace(rho @ rho).real)

    assert purity(build_echo_sequence) >= 1.0 - 1e-12
    assert purity(single_loop_schedule) < 0.9
