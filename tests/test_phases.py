"""Phase decomposition: eigenvector gauges, dynamical and geometric parts,
echo cancellation, two-qubit conditional phases."""
import numpy as np
import pytest

from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.phases import (
    LABELS4,
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
from tqdecho.propagate import StepPolicy
from tqdecho.qcore import is_unitary, wrap_angle
from tqdecho.schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_two_qubit_sequence,
    pi_pulse_segment,
    single_loop_schedule,
    two_qubit_loop_segment,
)

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
        h0 = seg.generator(t)
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
        h0 = seg.root_generator(t)
        for p, q in LABELS4:
            v = two_qubit_eigenvector(P2, (p, q), t)
            hv = h0 @ v
            e = np.vdot(v, hv).real
            assert np.allclose(hv, e * v, atol=1e-12)
            assert np.isclose(abs(e), 0.5 * P2.rabi)


def test_eigenbasis_matrix_is_unitary():
    b = eigenbasis_matrix(P2)
    assert is_unitary(b)


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
    # residual shift is integrator state error, second order in step size
    pol = StepPolicy(substeps=8192)
    traj = evolve_eigenstate(single_loop_schedule(P), 0, pol, samples=128)
    d_root = dynamical_phase(traj, root="root")
    d_full = dynamical_phase(traj, root="full")
    # the correction is purely off diagonal in the tracked basis
    assert abs(d_full - d_root) < 1e-6
    with pytest.raises(ValueError):
        dynamical_phase(traj, root="bogus")


def test_correction_energy_is_zero_on_eigenstates():
    assert correction_energy_check(P, n_samples=32) < 1e-12


# echo decomposition ------------------------------------------------------------

def test_echo_cancels_dynamical_phase():
    sched = build_echo_sequence(P)
    for label in (0, 1):
        traj = evolve_eigenstate(sched, label, POL, samples=128)
        dec = echo_phase_decomposition(traj, label)
        assert abs(dec.dynamical) < 1e-9
        assert dec.geometric_deviation < 1e-5
        # survivor is twice the loop geometric difference: 2*pi*cos(theta)
        expected = (1.0 - 2.0 * label) * 2.0 * np.pi * np.cos(P.theta)
        assert np.isclose(wrap_angle(dec.total - expected), 0.0, atol=1e-5)


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
