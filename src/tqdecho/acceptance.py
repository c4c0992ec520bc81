"""Verification suite: eight numbered criteria, each with pinned
tolerances and a single pass/fail line.

The functions here are the authoritative checks; the test suite and the
CLI `verify-all` subcommand both delegate to them. Each criterion returns
a CriterionResult whose `checks` list records every gated quantity with
its bound, so failures state exactly which number went out of range, and
whose `notes` record the propagation it ran; one wrapper (_criterion)
times each body and builds its result. The CLI records its checks as
Check too.

Criteria 1-7 test the physics on the exact propagator, so their bounds
sit near rounding level. Criterion 8 is the one place the oracle runs,
the fourth-order Magnus integrator of StepPolicy: it checks the exact
propagator against it on every schedule family the other criteria use.
"""
from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .fields import LoopParams, RootLoopParams, TwoQubitParams
from .gates import (
    _MIN_WITNESS,
    SingleGateSpec,
    _lattice,
    _witness,
    closed_form_echo_gate,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    verify_exp_equivalence,
)
from .phases import (
    _evolve_eigenstates,
    correction_energy_check,
    delta_omega,
    dynamical_phase,
    echo_phase_decomposition,
    loop_eigenvector,
    loop_phase_decomposition,
    tracking_fidelity,
)
from .propagate import StepPolicy, _propagate_schedules, propagate_schedule
from .qcore import gate_distance, unitarity_defect
from .schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
    rotate_schedule,
    single_loop_schedule,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

_THETA_GRID = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)
_RATIO_GRID = (0.1, 1.0, 10.0)
_EXACT = {"propagation": "exact"}

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Check:
    """One gated quantity; it passes when value <= bound."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound, "passed": self.passed}


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
            "checks": [c.to_dict() for c in self.checks],
            "notes": self.notes,
        }


def _error(exc: Exception) -> str:
    """An exception as one line: its type, then its message."""
    return f"{type(exc).__name__}: {' '.join(str(exc).split())}"


def _criterion(index: int, name: str, budget: float | None = None):
    """Make a body returning (checks, notes) criterion `index`: a
    zero-argument callable that times the body, checks its runtime
    against `budget` seconds if one is given, and returns the result. A
    body that raises fails its criterion: the result holds the failed
    check "raised" and the exception in notes["error"], so the other
    criteria still run."""

    def wrap(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            try:
                checks, notes = body()
            except Exception as exc:  # one criterion's fault must not stop the rest
                _log.debug("criterion %d raised", index, exc_info=True)
                checks = [Check("raised", 1.0, 0.5)]
                notes = {"error": _error(exc)}
            runtime = time.perf_counter() - t0
            if budget is not None:
                checks.append(Check("runtime_seconds", runtime, budget))
            return CriterionResult(index, name, runtime, checks, dict(notes))

        return criterion

    return wrap


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _both_labels(p: LoopParams, traj) -> tuple:
    """((0, traj), (1, traj1)): traj, the label-0 trajectory of one
    corrected loop on p, and its propagators started from label 1."""
    return (0, traj), (1, traj.with_initial_state(loop_eigenvector(p, 1, 0.0)))


@_criterion(1, "transitionless tracking", budget=10.0)
def criterion_1():
    """Corrected driving tracks eigenstates on the full parameter grid;
    the uncorrected drive visibly fails at resonance-scale rates."""
    grid = [
        LoopParams(theta=theta, omega=ratio, omega0=1.0)
        for theta in _THETA_GRID
        for ratio in _RATIO_GRID
    ]
    bare = [LoopParams(theta=theta, omega=1.0, omega0=1.0) for theta in _THETA_GRID]
    trajs = _evolve_eigenstates(
        [single_loop_schedule(p) for p in grid]
        + [single_loop_schedule(p, corrected=False) for p in bare],
        0,
        samples=64,
    )
    worst = 0.0
    for p, traj in zip(grid, trajs):
        for label, t in _both_labels(p, traj):
            deficit = float(1.0 - tracking_fidelity(t, label).min())
            worst = max(worst, deficit)

    baseline_best = 0.0
    for traj in trajs[len(grid):]:
        baseline_best = max(baseline_best, float(tracking_fidelity(traj, 0).min()))
    checks = [
        Check("tracking_infidelity", worst, 1e-12),
        Check("uncorrected_min_fidelity", baseline_best, 0.9),
    ]
    grid = f"{len(_THETA_GRID)} angles x {len(_RATIO_GRID)} rate ratios x 2 labels"
    return checks, {**_EXACT, "grid": grid}


@_criterion(2, "one-loop geometric phase")
def criterion_2():
    """One-loop geometric phase matches (2p-1)*pi*(1-cos theta), modulo
    2*pi, for both labels and both traversal orientations."""
    grid = [
        LoopParams(theta=theta, omega=orientation, omega0=1.0)
        for theta in _THETA_GRID
        for orientation in (1.0, -1.0)
    ]
    trajs = _evolve_eigenstates([single_loop_schedule(p) for p in grid], 0, samples=512)
    worst = 0.0
    for p, traj in zip(grid, trajs):
        for label, t in _both_labels(p, traj):
            dec = loop_phase_decomposition(t, label)
            worst = max(worst, dec.geometric_deviation)
    return [Check("geometric_phase_deviation_mod_2pi", worst, 1e-11)], _EXACT


@_criterion(3, "correction leaves dynamical phase alone")
def criterion_3():
    """The correction adds no dynamical phase: integrating the full
    generator or the uncorrected one gives the same value, and the
    correction's diagonal energy vanishes."""
    p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    (traj,) = _evolve_eigenstates([single_loop_schedule(p)], 0, samples=512)
    worst = 0.0
    for _, traj in _both_labels(p, traj):
        d_root = dynamical_phase(traj, root="root")
        d_full = dynamical_phase(traj, root="full")
        worst = max(worst, abs(d_full - d_root))
    checks = [
        Check("dynamical_phase_shift_from_correction", worst, 1e-12),
        Check("correction_diagonal_energy", correction_energy_check(p), 1e-10),
    ]
    return checks, _EXACT


@_criterion(4, "echo refocusing and invariance")
def criterion_4():
    """The echo realizes the closed-form geometric rotation with no
    residual dynamical phase, independent of drive strength and pulse
    rate. At theta = pi/3 the gate is -1 and at omega = omega0 the
    reversed loop cancels any pulse angle, so the generic variant
    (theta = pi/4, omega = 0.7: eigenphases +-1.84) is where an error of
    the pulses shows."""
    base = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    variants = {
        "base": (base, None),
        "triple_omega0": (LoopParams(base.theta, base.omega, 3.0), None),
        "double_pulse_rate": (base, 100.0 * abs(base.omega)),
        "generic": (LoopParams(theta=np.pi / 4, omega=0.7, omega0=1.0), None),
    }
    trajs = _evolve_eigenstates(
        [build_echo_sequence(p, omega_pi=omega_pi) for p, omega_pi in variants.values()],
        0,
        samples=256,
    )
    checks, notes = [], dict(_EXACT)
    for (name, (p, _)), traj in zip(variants.items(), trajs):
        distance = gate_distance(traj.final_propagator, closed_form_echo_gate(p))
        checks.append(Check(f"echo_gate_distance_{name}", distance, 1e-12))
        try:
            dec = echo_phase_decomposition(traj, 0)
        except ValueError as exc:  # its strict alignment check: keep the gate check
            checks.append(Check(f"echo_decomposition_raised_{name}", 1.0, 0.5))
            notes[f"error_{name}"] = _error(exc)
            continue
        checks.append(Check(f"echo_residual_dynamical_{name}", abs(dec.dynamical), 1e-12))
    return checks, notes


@_criterion(5, "gate synthesis and universality witness")
def criterion_5():
    """Named gates synthesize to their matrices, and the commutator norm
    identity ties the universality witness to an observable on 100 gate
    pairs from a four-dimensional Kronecker lattice."""
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
    generating = int(np.count_nonzero(np.abs(w) > _MIN_WITNESS))
    return checks, {**_EXACT, "generating_pairs": f"{generating}/{len(pairs)}"}


@_criterion(6, "conditional two-qubit phase gate", budget=30.0)
def criterion_6():
    """Two-qubit echo at omega_i = coupling: diagonal in the conditional
    eigenbasis with phases (-1)^(p+q) * 2*delta_omega, delta_omega =
    2*pi/sqrt(2)."""
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
    return checks, _EXACT


@_criterion(7, "experimental parameter map")
def criterion_7():
    """The static-coupling parametrization reproduces the conditional
    field exactly and the full echo gate once the control-frame term is
    included."""
    p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    rep = verify_exp_equivalence(p, field_draws=100)
    checks = [
        Check("field_map_deviation", rep.max_field_deviation, 1e-10),
        Check("gate_equivalence_distance", rep.gate_deviation, 1e-12),
    ]
    return checks, _EXACT


def _oracle_families() -> dict:
    """Every schedule family criteria 1-7 propagate, with the sample count
    and the Magnus oracle's substeps: corrected loops in both orientations
    inside a rotated echo, root loops in both orientations, and the two
    dim-4 echoes. At these substeps the oracle is within 1e-9 of the exact
    propagator, and at a quarter of them its error is still well above
    the rounding floor of about 2e-13, so the two runs measure its order."""
    p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
    q = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
    root = SegmentSchedule((RootLoopParams.of(p), RootLoopParams.of(p.reversed())))
    return {
        "rotated_echo": (rotate_schedule(build_echo_sequence(p), 0.4), 256, 1024),
        "root_loops": (root, 256, 1024),
        "two_qubit_echo": (build_two_qubit_sequence(q), 16, 2048),
        "exp_echo": (build_exp_two_qubit_sequence(q), 16, 2048),
    }


def _oracle_runs(families: dict) -> dict:
    """name -> (exact, oracle, coarse oracle) trajectories of each family:
    the families that share (samples, substeps) run each policy through
    one walk."""
    groups = {}
    for name, (sched, samples, substeps) in families.items():
        groups.setdefault((samples, substeps), {})[name] = sched
    runs = {}
    for (samples, substeps), scheds in groups.items():
        states = [None] * len(scheds)
        policies = (None, StepPolicy(substeps=substeps), StepPolicy(substeps=substeps // 4))
        walks = [
            _propagate_schedules(list(scheds.values()), states, policy, samples)
            for policy in policies
        ]
        runs.update(zip(scheds, zip(*walks)))
    return runs


def _max_deviation(traj, exact) -> float:
    return float(np.max(np.abs(traj.propagators - exact.propagators)))


@_criterion(8, "exact propagator against the Magnus oracle")
def criterion_8():
    """The exact propagator against the fourth-order Magnus oracle, on
    every schedule family: agreement at every sample, the oracle's
    fourth-order convergence to the exact propagator, unitarity at every
    sample, and bit-identical repeated runs on both paths."""
    checks, unitarity = [], 0.0
    notes = {
        "propagation": {},
        "observed_order": {},
        "order_window": "[3.7, 4.3]",
        "oracle": "two-point Gauss-Legendre Magnus, fourth order",
    }
    families = _oracle_families()
    runs = _oracle_runs(families)
    for name, (sched, samples, substeps) in families.items():
        exact, oracle, coarse_run = runs[name]
        agreement = _max_deviation(oracle, exact)
        # the error against the exact propagator shrinks 4**order from
        # substeps/4 to substeps
        coarse = substeps // 4
        order = float(np.log2(_max_deviation(coarse_run, exact) / agreement) / 2.0)
        checks.append(Check(f"convergence_order_offset_{name}", abs(order - 4.0), 0.3))
        checks.append(Check(f"exact_oracle_agreement_{name}", agreement, 1e-9))
        unitarity = max(unitarity, unitarity_defect(oracle.propagators))
        notes["propagation"][name] = f"exact and Magnus at {coarse} and {substeps} substeps"
        notes["observed_order"][name] = order
        if name == "rotated_echo":
            # reruns of the family alone, outside the batch
            again = propagate_schedule(sched, policy=StepPolicy(substeps=substeps), samples=samples)
            identical = oracle.propagators.tobytes() == again.propagators.tobytes()
            checks.append(Check("rerun_byte_difference", 0.0 if identical else 1.0, 0.5))
            again = propagate_schedule(sched, samples=samples)
            identical = exact.propagators.tobytes() == again.propagators.tobytes()
            checks.append(Check("exact_rerun_byte_difference", 0.0 if identical else 1.0, 0.5))
    checks.append(Check("unitarity_defect", unitarity, 1e-9))
    return checks, notes


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


def run_all() -> list:
    """Run every criterion, printing one line each. Returns the results."""
    results = []
    for func in CRITERIA:
        results.append(func())
        print(results[-1].line)
    return results
