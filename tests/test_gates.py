"""Gate synthesis: closed forms, echo realizations, universality witness,
two-qubit conditional gate, experimental parameter map."""
import numpy as np
import pytest

from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.gates import (
    SingleGateSpec,
    closed_form_echo_gate,
    closed_form_single,
    reduced_model_deviation,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    universality_check,
    verify_exp_equivalence,
)
from tqdecho.propagate import StepPolicy
from tqdecho.qcore import gate_distance, is_unitary

SEED = 20260816
P2 = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)


# closed forms -----------------------------------------------------------------

def test_closed_form_single_named_gates():
    z = closed_form_single(SingleGateSpec(0.0, np.pi / 3))
    assert np.allclose(z, np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)]))
    x_half = closed_form_single(SingleGateSpec(np.pi / 2, np.pi / 2))
    assert np.allclose(x_half, [[0, -1j], [-1j, 0]])
    x_quarter = closed_form_single(SingleGateSpec(np.pi / 2, np.pi / 4))
    assert np.allclose(x_quarter, np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2))


def test_closed_form_single_periodicity():
    a = closed_form_single(SingleGateSpec(0.7, 1.1))
    b = closed_form_single(SingleGateSpec(0.7, 1.1 + 2.0 * np.pi))
    assert np.allclose(a, b)


def test_closed_form_echo_gate_matches_solid_angle():
    p = LoopParams(theta=np.pi / 2, omega=1.0, omega0=1.0)
    # solid angle 2*pi: a full turn, identity up to sign conventions
    assert gate_distance(closed_form_echo_gate(p), np.eye(2)) < 1e-12


# single-qubit synthesis ---------------------------------------------------------

POL = StepPolicy(substeps=2048)


@pytest.mark.parametrize(
    "axis,angle",
    [(0.0, np.pi / 3), (np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 4), (1.1, 2.3)],
)
def test_synthesize_single_gate(axis, angle):
    rep = synthesize_single_gate(SingleGateSpec(axis, angle), policy=POL)
    assert rep.distance < 1e-9
    assert 0.0 < rep.cone_angle < np.pi
    assert np.isclose(rep.cone_angle, np.arccos(1.0 - angle / (2.0 * np.pi)))


def test_synthesize_single_gate_angle_domain():
    with pytest.raises(ValueError):
        synthesize_single_gate(SingleGateSpec(0.0, 0.0))
    with pytest.raises(ValueError):
        synthesize_single_gate(SingleGateSpec(0.0, 4.0 * np.pi))
    with pytest.raises(ValueError):
        synthesize_single_gate(SingleGateSpec(0.0, -1.0))


def test_universality_witness_frozen_pair():
    rep = universality_check(
        SingleGateSpec(0.0, np.pi / 3), SingleGateSpec(np.pi / 2, np.pi / 2)
    )
    assert np.isclose(rep.witness, -np.sin(np.pi / 3))
    assert np.isclose(rep.predicted_norm, 2.0 * np.sqrt(2.0) * np.sin(np.pi / 3))
    assert rep.formula_consistent
    assert rep.generates_su2


def test_universality_witness_degenerate_pair():
    """Same axis never generates SU(2); the witness vanishes."""
    rep = universality_check(
        SingleGateSpec(0.3, 1.0), SingleGateSpec(0.3, 2.0)
    )
    assert abs(rep.witness) < 1e-15
    assert not rep.generates_su2
    assert rep.commutator_norm < 1e-12


def test_universality_norm_identity_random():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        g1 = SingleGateSpec(rng.uniform(-np.pi, np.pi), rng.uniform(0.1, 2 * np.pi))
        g2 = SingleGateSpec(rng.uniform(-np.pi, np.pi), rng.uniform(0.1, 2 * np.pi))
        rep = universality_check(g1, g2)
        assert abs(rep.commutator_norm - rep.predicted_norm) < 1e-9


# two-qubit synthesis -------------------------------------------------------------

def test_synthesize_two_qubit_gate():
    rep = synthesize_two_qubit_gate(P2, policy=StepPolicy(substeps=8192))
    assert np.isclose(rep.delta_omega, 2.0 * np.pi / np.sqrt(2.0), atol=1e-12)
    assert rep.leakage < 3e-7
    assert max(rep.phase_residuals) < 2e-7
    assert rep.distance < 1e-9
    assert len(rep.phase_residuals) == 4
    assert is_unitary(rep.realized)


def test_two_qubit_target_matches_block_closed_form():
    rep = synthesize_two_qubit_gate(P2, policy=StepPolicy(substeps=1024))
    # same conditional phases, stated in the coupled eigenbasis
    diag = np.exp(1j * np.array([1, -1, -1, 1]) * 2.0 * rep.delta_omega)
    from tqdecho.phases import eigenbasis_matrix

    b = eigenbasis_matrix(P2)
    target = b @ np.diag(diag) @ b.conj().T
    assert gate_distance(rep.target, target) < 1e-12


def test_exp_equivalence():
    rep = verify_exp_equivalence(
        P2, policy=StepPolicy(substeps=4096), field_draws=25
    )
    assert rep.max_field_deviation < 1e-12
    assert rep.gate_deviation < 1e-8
    assert rep.field_draws == 25


def test_control_z_field_refocuses():
    """Constant z drift on the control commutes with every loop generator
    block; the echo cancels it to numerical precision."""
    out = reduced_model_deviation(P2, (0.0, 0.0, 0.3))
    assert out["gate_deviation"] < 1e-12
    assert out["leakage"] < 1e-12


def test_control_transverse_field_breaks_gate():
    out = reduced_model_deviation(P2, (0.05, 0.0, 0.0))
    assert out["gate_deviation"] > 1e-3
    assert out["leakage"] > 0.05
