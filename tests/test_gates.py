"""Gate synthesis: closed forms, echo realizations, universality witness,
two-qubit conditional gate, experimental parameter map."""
import numpy as np
import pytest

from tqdecho import gates, propagate
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
from tqdecho.propagate import StepPolicy, propagate_schedule
from tqdecho.qcore import gate_distance, unitarity_defect
from tqdecho.schedule import build_exp_two_qubit_sequence, build_two_qubit_sequence

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
    assert unitarity_defect(rep.realized) <= 1e-9


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


def test_exp_equivalence_draws_cover_every_sector(monkeypatch):
    """The default 100 draws reach both orientations and both control
    states: a unit error planted in any one of the four exp-loop field
    sectors shows up in the field deviation."""
    assert verify_exp_equivalence(P2).max_field_deviation <= 1e-10
    real = gates.exp_loop_segment

    class Planted:
        def __init__(self, seg, block):
            self.seg, self.block = seg, block

        def block_fields(self, ts):
            c0, v = self.seg.block_fields(ts)
            v = v.copy()
            v[0, self.block] += 0.5  # block units: a unit field error
            return c0, v

    for reverse in (False, True):
        for control in (0, 1):
            def planted(p, rev, reverse=reverse, control=control):
                seg = real(p, rev)
                return Planted(seg, control) if rev == reverse else seg

            monkeypatch.setattr(gates, "exp_loop_segment", planted)
            assert verify_exp_equivalence(P2).max_field_deviation >= 0.5, (reverse, control)


@pytest.mark.parametrize("draws", [0, -3])
def test_exp_equivalence_rejects_no_field_draws(draws):
    # no draws would report a field deviation of 0.0: a vacuous pass
    with pytest.raises(ValueError, match="field_draws must be >= 1"):
        verify_exp_equivalence(P2, field_draws=draws)


# one full propagator per distinct segment ---------------------------------------

def _seeded_gates(count=8):
    """Gate requests of all three echo families at seeded parameters:
    (single-qubit spec, omega, omega0) and two-qubit parameters, which
    serve both the conditional and the exp-loop echo."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(count):
        spec = SingleGateSpec(rng.uniform(-np.pi, np.pi), rng.uniform(0.1, 4.0 * np.pi - 0.1))
        rates = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1)
        p = TwoQubitParams(
            10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1),
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 0),
        )
        out.append((spec, rates, p))
    return out


def _sampled_final(sched, policy, samples=16):
    return propagate_schedule(sched, policy=policy, samples=samples).final_propagator


def test_gate_entry_points_build_no_trajectory(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a gate entry point built a sampled trajectory")

    for module in (propagate, gates):
        monkeypatch.setattr(module, "propagate_schedule", refuse, raising=False)
    assert synthesize_single_gate(SingleGateSpec(0.3, 1.2)).distance <= 1e-12
    assert synthesize_two_qubit_gate(P2).leakage <= 1e-12
    assert verify_exp_equivalence(P2).gate_deviation <= 1e-12


@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=64)], ids=["exact", "midpoint"])
def test_gate_entry_points_propagate_each_distinct_segment_once(policy, monkeypatch):
    calls = []
    real = propagate.propagate_segment

    def counting(seg, policy=None, checkpoints=1):
        calls.append((seg.kind, checkpoints))
        return real(seg, policy, checkpoints)

    monkeypatch.setattr(propagate, "propagate_segment", counting)
    synthesize_single_gate(SingleGateSpec(0.3, 1.2), policy=policy)
    assert sorted(calls) == [("pi-pulse", 1), ("tqd-loop", 1), ("tqd-loop", 1)]
    calls.clear()
    synthesize_two_qubit_gate(P2, policy=policy)
    assert len(calls) == 4 and all(cps == 1 for _, cps in calls)
    calls.clear()
    verify_exp_equivalence(P2, policy=policy)
    assert len(calls) == 8  # four distinct segments per echo, two echoes


def test_gate_reports_count_one_checkpoint_per_segment():
    # the single-qubit echo: loop, idle, pulse, idle, loop, idle, pulse
    rep = synthesize_single_gate(SingleGateSpec(0.3, 1.2))
    assert rep.substeps_used == (0, 0, 1, 0, 0, 0, 1)
    rep = synthesize_single_gate(SingleGateSpec(0.3, 1.2), policy=StepPolicy(substeps=100))
    assert rep.substeps_used == (100, 0, 1, 0, 100, 0, 1)
    # the two-qubit echo: (loop, pulse, loop, control flip) twice, idles between
    rep = synthesize_two_qubit_gate(P2, policy=StepPolicy(substeps=100))
    assert rep.substeps_used == ((100, 0, 1, 0, 100, 0, 1, 0) * 2)[:15]


@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=256)], ids=["exact", "midpoint"])
def test_gates_match_sampled_trajectory(policy):
    """On the exact path every gate is byte-identical to the sampled
    trajectory's final propagator; under a midpoint policy (a substep
    count both paths use unrounded) it agrees to rounding."""
    def same(a, b):
        if policy is None:
            return a.tobytes() == b.tobytes()
        return np.max(np.abs(a - b)) <= 1e-13

    for spec, (omega, omega0), p in _seeded_gates():
        rep = synthesize_single_gate(spec, omega=omega, omega0=omega0, policy=policy)
        assert same(rep.realized, _sampled_final(rep.schedule, policy))
        rep = synthesize_two_qubit_gate(p, policy=policy)
        assert same(rep.realized, _sampled_final(rep.schedule, policy))
        u_cond = _sampled_final(build_two_qubit_sequence(p), policy, samples=4)
        u_exp = _sampled_final(build_exp_two_qubit_sequence(p), policy, samples=4)
        deviation = verify_exp_equivalence(p, policy=policy, field_draws=1).gate_deviation
        if policy is None:
            assert deviation == gate_distance(u_exp, u_cond)
        else:
            assert abs(deviation - gate_distance(u_exp, u_cond)) <= 1e-13


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
