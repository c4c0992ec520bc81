"""Transitionless-driving spin echo simulator and geometric gate synthesis.

The package simulates a spin driven along a closed cone by a circularly
precessing field, with the counterdiabatic correction that keeps the state
pinned to the instantaneous eigenstates at any sweep rate. Echo sequences
built from two counter-traversed loops and half-turn pulses cancel all
dynamical phase and leave purely geometric rotations, which the gates
module turns into a small synthesis toolkit, including the
control-conditioned two-qubit phase gate and its static-coupling
realization.
"""
from .qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    gate_distance,
    wrap_angle,
)
from .fields import (
    ExpParams,
    LoopParams,
    RootLoopParams,
    TwoQubitParams,
    experimental_params,
    theta_tilde,
    tqd_field_magnitude,
)
from .schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    field_timeline,
    rotate_schedule,
    single_loop_schedule,
    write_field_timeline_csv,
)
from .propagate import (
    StepPolicy,
    Trajectory,
    propagate_schedule,
    trajectory_to_csv,
)
from .phases import (
    LABELS4,
    PhaseDecomposition,
    correction_energy_check,
    delta_omega,
    dynamical_phase,
    echo_phase_decomposition,
    evolve_eigenstate,
    loop_phase_decomposition,
    solid_angle,
    total_phase,
    tracking_fidelity,
)
from .gates import (
    ExpEquivalenceReport,
    SingleGateReport,
    SingleGateSpec,
    TwoQubitGateReport,
    UniversalityReport,
    closed_form_echo_gate,
    closed_form_single,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    universality_check,
    verify_exp_equivalence,
)

__version__ = "0.1.0"
