"""Verification suite: eight numbered criteria, each with pinned
tolerances and a single pass/fail line.

The functions here are the authoritative checks; the test suite and the
CLI `verify-all` subcommand both delegate to them. Each criterion returns
a CriterionResult whose `checks` list records every gated quantity with
its bound, so failures state exactly which number went out of range, and
whose `notes` record the propagation it ran.

Criteria 1-7 test the physics on the exact propagator, so their bounds
sit near rounding level. Criterion 8 is the one place the oracle runs,
the fourth-order Magnus integrator of StepPolicy: it checks the exact
propagator against it on every schedule family the other criteria use.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fields import LoopParams, TwoQubitParams
from .gates import (
    SingleGateSpec,
    _lattice,
    _witness,
    closed_form_echo_gate,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    verify_exp_equivalence,
)
from .phases import (
    correction_energy_check,
    delta_omega,
    dynamical_phase,
    echo_phase_decomposition,
    evolve_eigenstate,
    loop_eigenvector,
    loop_phase_decomposition,
    tracking_fidelity,
)
from .propagate import StepPolicy, propagate_schedule
from .qcore import gate_distance, unitarity_defect
from .schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    loop_segment,
    rotate_schedule,
    single_loop_schedule,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

_THETA_GRID = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)
_RATIO_GRID = (0.1, 1.0, 10.0)
_EXACT = {"propagation": "exact"}


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)


@dataclass
class CriterionResult:
    index: int
    name: str
    runtime: float
    checks: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        worst = max(self.checks, key=lambda c: c.value / c.bound)
        return (
            f"[{verdict}] criterion {self.index} ({self.name}): "
            f"tightest {worst.name}={worst.value:.3e} vs bound {worst.bound:.0e}; "
            f"{len(self.checks)} checks, {self.runtime:.2f}s"
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "runtime": self.runtime,
            "checks": [
                {"name": c.name, "value": c.value, "bound": c.bound, "passed": c.passed}
                for c in self.checks
            ],
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _both_labels(p: LoopParams, samples: int) -> tuple:
    """((0, traj0), (1, traj1)): one corrected loop on p, propagated once
    and started from each labelled eigenstate."""
    traj = evolve_eigenstate(single_loop_schedule(p), 0, samples=samples)
    return (0, traj), (1, traj.with_initial_state(loop_eigenvector(p, 1, 0.0)))


def criterion_1() -> CriterionResult:
    """Corrected driving tracks eigenstates on the full parameter grid;
    the uncorrected drive visibly fails at resonance-scale rates."""
    t0 = time.perf_counter()
    checks, notes = [], dict(_EXACT)
    worst = 0.0
    for theta in _THETA_GRID:
        for ratio in _RATIO_GRID:
            p = LoopParams(theta=theta, omega=ratio, omega0=1.0)
            for label, traj in _both_labels(p, samples=64):
                deficit = float(1.0 - tracking_fidelity(traj, label).min())
                worst = max(worst, deficit)
    checks.append(Check("tracking_infidelity", worst, 1e-12))

    baseline_best = 0.0
    for theta in _THETA_GRID:
        p = LoopParams(theta=theta, omega=1.0, omega0=1.0)
        traj = evolve_eigenstate(single_loop_schedule(p, corrected=False), 0, samples=64)
        baseline_best = max(baseline_best, float(tracking_fidelity(traj, 0).min()))
    checks.append(Check("uncorrected_min_fidelity", baseline_best, 0.9))
    notes["grid"] = f"{len(_THETA_GRID)} angles x {len(_RATIO_GRID)} rate ratios x 2 labels"

    runtime = time.perf_counter() - t0
    checks.append(Check("runtime_seconds", runtime, 10.0))
    return CriterionResult(1, "transitionless tracking", runtime, checks, notes)


def criterion_2() -> CriterionResult:
    """One-loop geometric phase matches (2p-1)*pi*(1-cos theta), modulo
    2*pi, for both labels and both traversal orientations."""
    t0 = time.perf_counter()
    worst = 0.0
    for theta in _THETA_GRID:
        for orientation in (1.0, -1.0):
            p = LoopParams(theta=theta, omega=orientation, omega0=1.0)
            for label, traj in _both_labels(p, samples=512):
                dec = loop_phase_decomposition(traj, label)
                worst = max(worst, dec.geometric_deviation)
    checks = [Check("geometric_phase_deviation_mod_2pi", worst, 1e-11)]
    runtime = time.perf_counter() - t0
    return CriterionResult(2, "one-loop geometric phase", runtime, checks, dict(_EXACT))


def criterion_3() -> CriterionResult:
    """The correction adds no dynamical phase: integrating the full
    generator or the uncorrected one gives the same value, and the
    correction's diagonal energy vanishes."""
    t0 = time.perf_counter()
    p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    worst = 0.0
    for label in (0, 1):
        traj = evolve_eigenstate(single_loop_schedule(p), label, samples=512)
        d_root = dynamical_phase(traj, root="root")
        d_full = dynamical_phase(traj, root="full")
        worst = max(worst, abs(d_full - d_root))
    checks = [
        Check("dynamical_phase_shift_from_correction", worst, 1e-12),
        Check("correction_diagonal_energy", correction_energy_check(p, 128), 1e-10),
    ]
    runtime = time.perf_counter() - t0
    return CriterionResult(
        3, "correction leaves dynamical phase alone", runtime, checks, dict(_EXACT)
    )


def criterion_4() -> CriterionResult:
    """The echo realizes the closed-form geometric rotation with no
    residual dynamical phase, independent of drive strength and pulse
    rate."""
    t0 = time.perf_counter()
    base = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    target = closed_form_echo_gate(base)

    variants = {
        "base": (base, None),
        "triple_omega0": (LoopParams(base.theta, base.omega, 3.0), None),
        "double_pulse_rate": (base, 100.0 * abs(base.omega)),
    }
    checks = []
    for name, (p, omega_pi) in variants.items():
        traj = evolve_eigenstate(build_echo_sequence(p, omega_pi=omega_pi), 0, samples=256)
        checks.append(
            Check(f"echo_gate_distance_{name}", gate_distance(traj.final_propagator, target), 1e-12)
        )
        dec = echo_phase_decomposition(traj, 0)
        checks.append(Check(f"echo_residual_dynamical_{name}", abs(dec.dynamical), 1e-12))
    runtime = time.perf_counter() - t0
    return CriterionResult(4, "echo refocusing and invariance", runtime, checks, dict(_EXACT))


def criterion_5() -> CriterionResult:
    """Named gates synthesize to their matrices, and the commutator norm
    identity ties the universality witness to an observable on 100 gate
    pairs from a four-dimensional Kronecker lattice."""
    t0 = time.perf_counter()
    named = {
        "z_phase_pi3": (
            SingleGateSpec(0.0, np.pi / 3),
            np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)]),
        ),
        "x_half_turn": (
            SingleGateSpec(np.pi / 2, np.pi / 2),
            np.array([[0.0, -1j], [-1j, 0.0]]),
        ),
        "x_quarter_turn": (
            SingleGateSpec(np.pi / 2, np.pi / 4),
            np.array([[1.0, -1j], [-1j, 1.0]]) / np.sqrt(2.0),
        ),
    }
    checks = []
    for name, (spec, matrix) in named.items():
        rep = synthesize_single_gate(spec)
        checks.append(Check(f"gate_distance_{name}", gate_distance(rep.realized, matrix), 1e-12))

    # each row is (axis1, angle1, axis2, angle2), on [-pi, pi) x [0, 2*pi) twice
    low = np.array([-np.pi, 0.0, -np.pi, 0.0])
    pairs = low + (2.0 * np.pi) * _lattice(100, 4)
    w, norm, predicted = _witness(*pairs.T)
    worst = float(np.max(np.abs(norm - predicted)))
    checks.append(Check("witness_commutator_identity", worst, 1e-9))
    generating = int(np.count_nonzero(np.abs(w) > 1e-9))
    notes = {**_EXACT, "generating_pairs": f"{generating}/{len(pairs)}"}
    runtime = time.perf_counter() - t0
    return CriterionResult(5, "gate synthesis and universality witness", runtime, checks, notes)


def criterion_6() -> CriterionResult:
    """Two-qubit echo at omega_i = coupling: diagonal in the conditional
    eigenbasis with phases (-1)^(p+q) * 2*delta_omega, delta_omega =
    2*pi/sqrt(2)."""
    t0 = time.perf_counter()
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rep = synthesize_two_qubit_gate(p)
    checks = [
        Check("eigenbasis_leakage", rep.leakage, 1e-12),
        Check("conditional_phase_residual", max(rep.phase_residuals), 1e-12),
        Check(
            "delta_omega_closed_form",
            abs(delta_omega(p) - 2.0 * np.pi / np.sqrt(2.0)),
            1e-12,
        ),
    ]
    runtime = time.perf_counter() - t0
    checks.append(Check("runtime_seconds", runtime, 30.0))
    return CriterionResult(6, "conditional two-qubit phase gate", runtime, checks, dict(_EXACT))


def criterion_7() -> CriterionResult:
    """The static-coupling parametrization reproduces the conditional
    field exactly and the full echo gate once the control-frame term is
    included."""
    t0 = time.perf_counter()
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rep = verify_exp_equivalence(p, field_draws=100)
    checks = [
        Check("field_map_deviation", rep.max_field_deviation, 1e-10),
        Check("gate_equivalence_distance", rep.gate_deviation, 1e-12),
    ]
    runtime = time.perf_counter() - t0
    return CriterionResult(7, "experimental parameter map", runtime, checks, dict(_EXACT))


def _oracle_families() -> dict:
    """Every schedule family criteria 1-7 propagate, with the sample count
    and the Magnus oracle's substeps: corrected loops in both orientations
    inside a rotated echo, root loops in both orientations, and the two
    dim-4 echoes. At these substeps the oracle is within 1e-9 of the exact
    propagator, and at a quarter of them its error is still well above
    the rounding floor of about 2e-13, so the two runs measure its order."""
    p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    q = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    root = SegmentSchedule((
        loop_segment(p, corrected=False),
        loop_segment(p.reversed(), corrected=False),
    ))
    return {
        "rotated_echo": (rotate_schedule(build_echo_sequence(p), 0.4), 256, 1024),
        "root_loops": (root, 256, 1024),
        "two_qubit_echo": (build_two_qubit_sequence(q), 16, 2048),
        "exp_echo": (build_exp_two_qubit_sequence(q, frame_term=True), 16, 2048),
    }


def _oracle_error(sched, samples: int, substeps: int, exact) -> tuple:
    traj = propagate_schedule(sched, policy=StepPolicy(substeps=substeps), samples=samples)
    return traj, float(np.max(np.abs(traj.propagators - exact.propagators)))


def criterion_8() -> CriterionResult:
    """The exact propagator against the fourth-order Magnus oracle, on
    every schedule family: agreement at every sample, the oracle's
    fourth-order convergence to the exact propagator, unitarity at every
    sample, and bit-identical repeated runs on both paths."""
    t0 = time.perf_counter()
    checks, unitarity = [], 0.0
    notes = {
        "propagation": {},
        "observed_order": {},
        "order_window": "[3.7, 4.3]",
        "oracle": "two-point Gauss-Legendre Magnus, fourth order",
    }
    for name, (sched, samples, substeps) in _oracle_families().items():
        exact = propagate_schedule(sched, samples=samples)
        oracle, agreement = _oracle_error(sched, samples, substeps, exact)
        # the error against the exact propagator shrinks 4**order from
        # substeps/4 to substeps
        coarse = substeps // 4
        _, coarse_error = _oracle_error(sched, samples, coarse, exact)
        order = float(np.log2(coarse_error / agreement) / 2.0)
        checks.append(Check(f"convergence_order_offset_{name}", abs(order - 4.0), 0.3))
        checks.append(Check(f"exact_midpoint_agreement_{name}", agreement, 1e-9))
        unitarity = max(unitarity, unitarity_defect(oracle.propagators))
        notes["propagation"][name] = f"exact and Magnus at {coarse} and {substeps} substeps"
        notes["observed_order"][name] = order
        if name == "rotated_echo":
            again = propagate_schedule(sched, policy=StepPolicy(substeps=substeps), samples=samples)
            identical = oracle.propagators.tobytes() == again.propagators.tobytes()
            checks.append(Check("rerun_byte_difference", 0.0 if identical else 1.0, 0.5))
            again = propagate_schedule(sched, samples=samples)
            identical = exact.propagators.tobytes() == again.propagators.tobytes()
            checks.append(Check("exact_rerun_byte_difference", 0.0 if identical else 1.0, 0.5))
    checks.append(Check("unitarity_defect", unitarity, 1e-9))
    runtime = time.perf_counter() - t0
    return CriterionResult(8, "exact propagator against the Magnus oracle", runtime, checks, notes)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_criterion(index: int) -> CriterionResult:
    if not 1 <= index <= len(CRITERIA):
        raise ValueError(f"criterion index must be 1..{len(CRITERIA)}")
    return CRITERIA[index - 1]()


def run_all(stream=None) -> list:
    """Run every criterion, printing one line each. Returns the results."""
    results = []
    for func in CRITERIA:
        res = func()
        results.append(res)
        if stream is not None:
            print(res.line, file=stream)
        else:
            print(res.line)
    return results
