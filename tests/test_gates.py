"""Gate synthesis: closed forms, echo realizations, universality witness,
two-qubit conditional gate, experimental parameter map, and the control
field probe of demo 05."""
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqdecho import gates, propagate
from tqdecho.fields import ExpLoopParams, LoopParams, TwoQubitParams
from tqdecho.gates import (
    SingleGateSpec,
    closed_form_echo_gate,
    closed_form_single,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    universality_check,
    verify_exp_equivalence,
)
from tqdecho.propagate import StepPolicy, propagate_schedule
from tqdecho.qcore import gate_distance, unitarity_defect
from tqdecho.schedule import build_exp_two_qubit_sequence, build_two_qubit_sequence

from spies import count_handed_segments

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


@st.composite
def _drawn_gate_targets(draw):
    """A target gate (axis in [-pi, pi], gate angle in
    [1e-3, 4*pi - 1e-3]) and the loop rates that synthesize it: omega0
    log-uniform in [0.2, 5] and |omega/omega0| log-uniform in [0.1, 10]
    with either sign."""
    spec = SingleGateSpec(draw(st.floats(-np.pi, np.pi)), draw(st.floats(1e-3, 4 * np.pi - 1e-3)))
    omega0 = 10.0 ** draw(st.floats(np.log10(0.2), np.log10(5.0)))
    ratio = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-1.0, 1.0))
    return spec, ratio * omega0, omega0


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_gate_targets())
def test_synthesize_single_gate_reaches_every_target(draw):
    # worst over 2000 random draws: 4.4e-16
    spec, omega, omega0 = draw
    rep = synthesize_single_gate(spec, omega=omega, omega0=omega0)
    assert rep.distance <= 1e-12


@pytest.mark.parametrize("value", [True, "1", np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("name", ["axis_angle", "gate_angle"])
def test_single_gate_spec_takes_finite_real_angles(name, value):
    # "1" built and made synthesis raise TypeError, True read as 1 rad,
    # and an infinite angle gave a NaN matrix
    angles = {"axis_angle": 0.3, "gate_angle": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        SingleGateSpec(**angles)


@pytest.mark.parametrize("dtype", [np.float32, np.float16], ids=lambda d: d.__name__)
def test_narrow_numpy_angles_synthesize_in_float64(dtype):
    # a float32 spec warned on its range test, kept its float32 angles and
    # computed the cone angle in float32, 4e-8 rad off, which the
    # second-order gate distance let pass at 1.6e-14
    narrow = SingleGateSpec(dtype(1.2), dtype(2.3))
    spec = SingleGateSpec(float(dtype(1.2)), float(dtype(2.3)))
    assert repr(narrow) == repr(spec) and type(narrow.gate_angle) is float
    got = synthesize_single_gate(narrow, omega=dtype(0.7))
    want = synthesize_single_gate(spec, omega=float(dtype(0.7)))
    assert got.cone_angle.hex() == want.cone_angle.hex()
    assert got.rotation.hex() == want.rotation.hex()
    assert got.realized.tobytes() == want.realized.tobytes()


@pytest.mark.parametrize("omega", [True, np.array(1.0), "1", None, [1.0], np.nan], ids=repr)
def test_synthesize_single_gate_takes_a_finite_real_omega(omega):
    # abs(omega) ran first: True and a 0-d array built a gate at rate 1,
    # and a string, None or a list raised TypeError
    with pytest.raises(ValueError, match="^omega must be a finite real number"):
        synthesize_single_gate(SingleGateSpec(0.3, 1.0), omega=omega)


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
    assert abs(rep.commutator_norm - rep.predicted_norm) <= 1e-12
    assert rep.generates_su2


def test_universality_witness_degenerate_pair():
    """Same axis never generates SU(2); the witness vanishes."""
    rep = universality_check(
        SingleGateSpec(0.3, 1.0), SingleGateSpec(0.3, 2.0)
    )
    assert abs(rep.witness) < 1e-15
    assert not rep.generates_su2
    assert rep.commutator_norm < 1e-12


def test_universality_check_reads_one_witness_floor():
    # a pair generates SU(2) when |w| exceeds 1e-9, the floor criterion 5
    # counts its generating pairs with; w = sin(1)**2 * sin(-tilt) here
    g = SingleGateSpec(0.3, 1.0)
    for tilt, generates in ((2e-9, True), (1e-9, False)):
        rep = universality_check(g, SingleGateSpec(0.3 + tilt, 1.0))
        assert rep.generates_su2 is generates
    with pytest.raises(TypeError):
        universality_check(g, g, 1e-9)


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


@st.composite
def _drawn_two_qubit_rates(draw):
    """Two-qubit loop rates and an echo pulse rate, each log-uniform:
    omega_i/J in [1e-2, 1e2], J in [0.2, 5], omega/J in [0.1, 10] with
    either sign, and the pulse rate in [5, 500]*|omega|."""
    coupling = 10.0 ** draw(st.floats(np.log10(0.2), np.log10(5.0)))
    omega_i = coupling * 10.0 ** draw(st.floats(-2.0, 2.0))
    omega = draw(st.sampled_from([-1.0, 1.0])) * coupling * 10.0 ** draw(st.floats(-1.0, 1.0))
    omega_pi = abs(omega) * 10.0 ** draw(st.floats(np.log10(5.0), np.log10(500.0)))
    return TwoQubitParams(omega_i, coupling, omega), omega_pi


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_drawn_two_qubit_rates())
def test_two_qubit_gates_hold_across_rates(draw):
    # worst over 2000 random draws (400 for the map): leakage 2.6e-15,
    # distance 7.8e-16, phase residual 1.5e-12 (it grows with the radians
    # turned, here at omega_i/J = 80, omega/J = 0.1), gate deviation
    # 1.1e-15, field deviation 9.4e-15 of the largest rate
    p, omega_pi = draw
    rep = synthesize_two_qubit_gate(p, omega_pi=omega_pi)
    assert rep.schedule.segments[1].omega_pi == omega_pi
    assert rep.leakage <= 1e-13
    assert rep.distance <= 1e-13
    assert max(rep.phase_residuals) <= 1e-11
    eq = verify_exp_equivalence(p)
    assert eq.gate_deviation <= 1e-13
    assert eq.max_field_deviation <= 1e-13 * max(p.omega_i, p.coupling, abs(p.omega))


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


@pytest.mark.parametrize("draws", [4, 100])
def test_exp_equivalence_draws_cover_every_sector(draws, monkeypatch):
    """Four draws already reach both orientations and both control
    states: a unit error planted in any one of the four exp-loop field
    sectors shows up in the field deviation."""
    assert verify_exp_equivalence(P2, field_draws=draws).max_field_deviation <= 1e-10
    real = ExpLoopParams.block_fields

    for reverse in (False, True):
        for control in (0, 1):
            # the draws read the exp echo's own loop records; P2 turns
            # forward, so its reversed loop has omega < 0
            def planted(self, ts, corrected=True, reverse=reverse, control=control):
                c0, v = real(self, ts, corrected)
                if (self.omega < 0) == reverse:
                    v = v.copy()
                    v[0, control] += 0.5  # block units: a unit field error
                return c0, v

            monkeypatch.setattr(ExpLoopParams, "block_fields", planted)
            rep = verify_exp_equivalence(P2, field_draws=draws)
            assert rep.max_field_deviation >= 0.5, (reverse, control)


@pytest.mark.parametrize("draws", [0, -3])
def test_exp_equivalence_rejects_no_field_draws(draws):
    # no draws would report a field deviation of 0.0: a vacuous pass
    with pytest.raises(ValueError, match="field_draws must be >= 1"):
        verify_exp_equivalence(P2, field_draws=draws)


def test_exp_records_are_refused_as_the_conditional_loop(monkeypatch):
    # an exp record built the exp echo as the conditional one, so the
    # check compared that echo with itself and read 0.0 at both levels
    exp = ExpLoopParams(P2.omega_i, P2.coupling, P2.omega)
    with pytest.raises(ValueError, match="^p must be a TwoQubitParams"):
        build_two_qubit_sequence(exp)

    def no_draws(*args):
        raise AssertionError("field draws before the record check")

    monkeypatch.setattr(gates, "_lattice", no_draws)
    with pytest.raises(ValueError, match="^p must be a TwoQubitParams"):
        verify_exp_equivalence(exp)


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


@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=64)], ids=["exact", "oracle"])
def test_gate_entry_points_propagate_each_distinct_segment_once(policy, monkeypatch):
    # the exact path stacks the pulses (the control flip included) beside
    # the loops in one kernel call; under a StepPolicy the loops take one
    # Magnus product tree and the pulses that kernel call alone
    def calls(loops, pulses):
        return [loops + pulses] if policy is None else [loops, pulses]

    segments, stacked = count_handed_segments(monkeypatch)
    synthesize_single_gate(SingleGateSpec(0.3, 1.2), policy=policy)
    assert sorted(segments) == [("pi-pulse", 1), ("tqd-loop", 1), ("tqd-loop", 1)]
    assert stacked == calls(2, 1)
    segments.clear()
    stacked.clear()
    synthesize_two_qubit_gate(P2, policy=policy)
    assert len(segments) == 4 and all(cps == 1 for _, cps in segments)
    assert stacked == calls(2, 2)
    segments.clear()
    stacked.clear()
    # both echoes in one walk: their four distinct loops in one stacked
    # call, and the pulse and the control flip they share once each
    verify_exp_equivalence(P2, policy=policy)
    assert sorted(segments) == sorted(
        [("two-qubit-loop", 1)] * 2 + [("exp-loop", 1)] * 2 + [("pi-pulse", 1), ("control-flip", 1)]
    )
    assert stacked == calls(4, 2)


def test_gate_reports_count_one_checkpoint_per_segment():
    # the single-qubit echo: loop, pulse, loop, pulse
    rep = synthesize_single_gate(SingleGateSpec(0.3, 1.2))
    assert rep.substeps_used == (0, 1, 0, 1)
    rep = synthesize_single_gate(SingleGateSpec(0.3, 1.2), policy=StepPolicy(substeps=100))
    assert rep.substeps_used == (100, 1, 100, 1)
    # the two-qubit echo: (loop, pulse, loop, control flip) twice
    rep = synthesize_two_qubit_gate(P2, policy=StepPolicy(substeps=100))
    assert rep.substeps_used == (100, 1, 100, 1) * 2


@pytest.mark.parametrize("policy", [None, StepPolicy(substeps=256)], ids=["exact", "oracle"])
def test_gates_match_sampled_trajectory(policy):
    """On the exact path every gate is byte-identical to the sampled
    trajectory's final propagator; under an oracle policy (a substep
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


def _reduced_model_deviation():
    demo = Path(__file__).resolve().parents[1] / "demos" / "05_two_qubit_gate.py"
    return runpy.run_path(str(demo), run_name="demo05")["reduced_model_deviation"]


def test_control_z_field_refocuses():
    """Constant z drift on the control commutes with every loop generator
    block; the echo cancels it to numerical precision."""
    out = _reduced_model_deviation()(P2, (0.0, 0.0, 0.3))
    assert out["gate_deviation"] < 1e-12
    assert out["leakage"] < 1e-12


def test_control_transverse_field_breaks_gate():
    out = _reduced_model_deviation()(P2, (0.05, 0.0, 0.0))
    assert out["gate_deviation"] > 1e-3
    assert out["leakage"] > 0.05
