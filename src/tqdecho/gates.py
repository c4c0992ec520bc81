"""Gate synthesis from echo sequences.

A full echo leaves no dynamical phase behind; what remains is a rotation
generated purely by the loop geometry. For a single qubit the echo
realizes exp(-i*Omega*(n.sigma)) up to global phase, where Omega is the
solid angle of the traversed cone and n its axis. Dialing the cone angle
sets the rotation angle; rotating the whole drive about y steers the
axis. Two such rotations about distinct directions, at generic angles,
generate all of SU(2), which the commutator witness below quantifies.

The two-qubit echo produces a control-conditioned phase gate, diagonal in
the conditional eigenbasis with phases (-1)^(p+q) * 2*delta_omega.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import LoopParams, TwoQubitParams, _check_real, _real_fields
from .phases import LABELS4, delta_omega, eigenbasis_matrix, solid_angle
from .propagate import StepPolicy, _final_propagators
from .qcore import SIGMA_X, SIGMA_Z, gate_distance, wrap_angle
from .schedule import (
    SegmentSchedule,
    _check_count,
    build_echo_sequence,
    build_exp_two_qubit_sequence,
    build_two_qubit_sequence,
)

__all__ = [
    "SingleGateSpec",
    "SingleGateReport",
    "TwoQubitGateReport",
    "UniversalityReport",
    "ExpEquivalenceReport",
    "closed_form_single",
    "closed_form_echo_gate",
    "synthesize_single_gate",
    "synthesize_two_qubit_gate",
    "universality_check",
    "verify_exp_equivalence",
]


@dataclass(frozen=True)
class SingleGateSpec:
    """Target rotation exp(-i * gate_angle * (n . sigma)) with axis
    n = (sin(axis_angle), 0, cos(axis_angle)) in the xz plane. Both
    angles must be finite real numbers; they are stored as Python
    floats."""

    axis_angle: float
    gate_angle: float

    def __post_init__(self):
        _real_fields(self)


def _rotations(axis_angle, gate_angle) -> np.ndarray:
    """cos(Omega) - i*sin(Omega)*(n.sigma) for arrays of axis and gate
    angles of one shape, as matrices of that shape + (2, 2)."""
    axis_angle = np.asarray(axis_angle, dtype=float)[..., None, None]
    gate_angle = np.asarray(gate_angle, dtype=float)[..., None, None]
    n_sigma = np.sin(axis_angle) * SIGMA_X + np.cos(axis_angle) * SIGMA_Z
    return np.cos(gate_angle) * np.eye(2) - 1j * np.sin(gate_angle) * n_sigma


def closed_form_single(spec: SingleGateSpec) -> np.ndarray:
    """cos(Omega) - i*sin(Omega)*(n.sigma); exactly 2*pi periodic in
    the gate angle."""
    return _rotations(spec.axis_angle, spec.gate_angle)


def closed_form_echo_gate(p: LoopParams) -> np.ndarray:
    """Gate produced by one full echo on these loop parameters, up to
    global phase: a rotation by the cone's solid angle about the axis
    tilted by theta in the xz plane, turned by the loop's orientation."""
    gate = closed_form_single(SingleGateSpec(p.theta, solid_angle(p.theta)))
    if p.orientation is None:
        return gate
    spin = p.orientation.spin
    return spin @ gate @ spin.conj().T


# ---------------------------------------------------------------------------
# single-qubit synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleGateReport:
    spec: SingleGateSpec
    cone_angle: float
    rotation: float
    target: np.ndarray
    realized: np.ndarray
    distance: float
    schedule: SegmentSchedule
    substeps_used: tuple


def synthesize_single_gate(
    spec: SingleGateSpec,
    omega: float = 1.0,
    omega0: float = 1.0,
    omega_pi: float | None = None,
    policy: StepPolicy | None = None,
) -> SingleGateReport:
    """Realize the target rotation with one echo sequence.

    The gate angle fixes the cone: Omega = 2*pi*(1 - cos(theta)) inverts
    to theta = arccos(1 - Omega/(2*pi)) for Omega in (0, 4*pi); the open
    interval excludes the degenerate poles. The axis is steered by
    rotating the whole drive by axis_angle - theta about y, which leaves
    the y pulses untouched. omega sets only the loop rate; the traversal
    orientation is fixed forward so the realized sign matches the target.
    policy None propagates exactly; StepPolicy(substeps=N) runs the
    Magnus oracle.
    """
    omega = _check_real("omega", omega)
    omega_total = spec.gate_angle
    if not (0.0 < omega_total < 4.0 * np.pi):
        raise ValueError("gate_angle must lie in the open interval (0, 4*pi)")
    theta = float(np.arccos(1.0 - omega_total / (2.0 * np.pi)))
    turn = spec.axis_angle - theta
    sched = build_echo_sequence(LoopParams(theta, abs(omega), omega0, turn), omega_pi=omega_pi)
    realized, substeps_used = _final_propagators([sched], policy)[0]
    target = closed_form_single(spec)
    return SingleGateReport(
        spec=spec,
        cone_angle=theta,
        rotation=turn,
        target=target,
        realized=realized,
        distance=gate_distance(realized, target),
        schedule=sched,
        substeps_used=substeps_used,
    )


@dataclass(frozen=True)
class UniversalityReport:
    witness: float
    commutator_norm: float
    predicted_norm: float
    generates_su2: bool


def _lattice(count: int, dim: int) -> np.ndarray:
    """Check points k = 1..count of the Kronecker sequence
    frac(0.5 + k * phi**-(j+1)), j < dim, with phi the generalized golden
    ratio, the positive root of x**(dim+1) = x + 1 (for dim 1 the golden
    ratio), as rows of shape (count, dim) in [0, 1). The points are
    deterministic and spread evenly over the unit cube at every count
    (Niederreiter, Random Number Generation and Quasi-Monte Carlo
    Methods, SIAM 1992).
    """
    k = np.arange(1, count + 1)
    return (0.5 + np.multiply.outer(k, _golden(dim) ** -np.arange(1.0, dim + 1))) % 1.0


@functools.cache
def _golden(dim: int) -> float:
    """The generalized golden ratio of _lattice, the positive root of
    x**(dim+1) = x + 1."""
    phi = 2.0
    for _ in range(64):  # a contraction: converged to rounding long before
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return phi


# a pair generates SU(2) when |w| exceeds this; below it, w is rounding
# of a commutator that vanishes
_MIN_WITNESS = 1e-9


def _witness(axis1, angle1, axis2, angle2) -> tuple:
    """Commutator witness of gate pairs given as arrays of one shape:
    (w, commutator norm, predicted norm), each of that shape.

    w = sin(O1) sin(O2) sin(axis1 - axis2); the commutator of the two
    closed-form rotations has Frobenius norm 2*sqrt(2)*|w| identically.
    """
    w = np.sin(angle1) * np.sin(angle2) * np.sin(axis1 - axis2)
    u1, u2 = _rotations(axis1, angle1), _rotations(axis2, angle2)
    norm = np.linalg.norm(u1 @ u2 - u2 @ u1, axis=(-2, -1))
    return w, norm, 2.0 * np.sqrt(2.0) * np.abs(w)


def universality_check(g1: SingleGateSpec, g2: SingleGateSpec) -> UniversalityReport:
    """Commutator witness for two synthesized rotations.

    w = sin(O1) sin(O2) sin(axis1 - axis2); the pair generates all of
    SU(2) iff w != 0, read as |w| > _MIN_WITNESS, and the commutator's
    Frobenius norm equals 2*sqrt(2)*|w| identically, which ties the
    witness to an observable.
    """
    w, norm, predicted = map(
        float, _witness(g1.axis_angle, g1.gate_angle, g2.axis_angle, g2.gate_angle)
    )
    return UniversalityReport(
        witness=w,
        commutator_norm=norm,
        predicted_norm=predicted,
        generates_su2=abs(w) > _MIN_WITNESS,
    )


# ---------------------------------------------------------------------------
# two-qubit synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoQubitGateReport:
    params: TwoQubitParams
    delta_omega: float
    target: np.ndarray
    realized: np.ndarray
    distance: float
    leakage: float
    phase_residuals: tuple
    schedule: SegmentSchedule
    substeps_used: tuple


def synthesize_two_qubit_gate(
    p: TwoQubitParams, omega_pi: float | None = None, policy: StepPolicy | None = None
) -> TwoQubitGateReport:
    """Run the two-qubit echo, its pulses at rate omega_pi (50*|omega|
    by default), and compare against its closed form.

    The realized gate is diagonal in the conditional eigenbasis at t=0
    with phases (-1)^(p+q) * 2*delta_omega; leakage is the largest
    off-diagonal magnitude there, and phase_residuals are the wrapped
    diagonal-phase errors after aligning one global phase. The target
    matrix is the closed form conjugated into that eigenbasis, which is
    where this gate lives; it is not a computational-basis diagonal
    unless omega_i is negligible against the coupling. policy None
    propagates exactly; StepPolicy(substeps=N) runs the Magnus oracle.
    """
    sched = build_two_qubit_sequence(p, omega_pi)
    realized, substeps_used = _final_propagators([sched], policy)[0]

    basis = eigenbasis_matrix(p, 0.0)
    in_eig = basis.conj().T @ realized @ basis
    off = in_eig - np.diag(np.diag(in_eig))
    leakage = float(np.max(np.abs(off)))

    dom = delta_omega(p)
    pattern = np.array([(-1) ** (pp + q) for pp, q in LABELS4], dtype=float)
    target_diag = np.exp(2j * dom * pattern)
    diag = np.diag(in_eig)
    global_phase = np.angle(np.sum(diag * target_diag.conj()))
    residuals = tuple(
        abs(wrap_angle(float(np.angle(d) - global_phase - np.angle(t))))
        for d, t in zip(diag, target_diag)
    )
    target = basis @ np.diag(target_diag) @ basis.conj().T
    return TwoQubitGateReport(
        params=p,
        delta_omega=dom,
        target=target,
        realized=realized,
        distance=gate_distance(realized, target),
        leakage=leakage,
        phase_residuals=residuals,
        schedule=sched,
        substeps_used=substeps_used,
    )


# ---------------------------------------------------------------------------
# experimental parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpEquivalenceReport:
    params: TwoQubitParams
    max_field_deviation: float
    gate_deviation: float
    field_draws: int


def verify_exp_equivalence(
    p: TwoQubitParams,
    policy: StepPolicy | None = None,
    field_draws: int = 100,
) -> ExpEquivalenceReport:
    """Check the static-coupling realization against the conditional model.

    Field level: on `field_draws` (orientation, control, time) check
    points, the exp-loop field of the mapped parameters must reproduce
    the two-qubit loop's root field plus its Berry correction, the two
    fields the propagator simulates; the map is algebraic, so the
    deviation (in field units) is rounding-level. Gate level: the full echo run from the
    mapped parameters, including the control-frame term omega*(1 x Sz)
    while loops run, must match the conditional-model echo. The frame
    term does not commute away pointwise; it cancels over the echo
    because the control flip reverses its sign pairing between the two
    halves. Both echoes pulse at the default rate 50*|omega| and run
    through one walk: policy None propagates them exactly,
    StepPolicy(substeps=N) runs the Magnus oracle. Draw
    k = 1, 2, ... takes orientation k % 2 and control (k // 2) % 2, so
    any four consecutive draws cover all four sectors, at the time
    period * x_k of the one-dimensional golden-ratio lattice x_k
    (_lattice). The fields are read from the two echoes' own loop
    records: orientation 0 is the loop at p's omega, orientation 1 the
    one at -omega.
    field_draws must be at least 1: with no draws the field check would
    pass vacuously, and it must be an integer. p must be a TwoQubitParams
    proper: an ExpLoopParams would compare the exp echo with itself.
    """
    _check_count("field_draws", field_draws, 1)
    cond, exp = build_two_qubit_sequence(p), build_exp_two_qubit_sequence(p)
    k = np.arange(1, field_draws + 1)
    orientation = k % 2
    control = (k // 2) % 2
    times = p.period * _lattice(field_draws, 1)[:, 0]
    worst = 0.0
    for reverse in (False, True):
        pick = orientation == reverse
        ts = times[pick]
        # segments 0 and 2 of an echo are its loops at omega > 0 and < 0
        loop = 2 * ((p.omega > 0) == reverse)
        got = exp.segments[loop].block_fields(ts)[1]
        want = cond.segments[loop].block_fields(ts)[1]
        at = (slice(None), control[pick], np.arange(ts.size))
        # block fields are half the field
        dev = 2.0 * np.abs(got[at] - want[at])
        worst = max(worst, float(np.max(dev, initial=0.0)))

    (u_cond, _), (u_exp, _) = _final_propagators([cond, exp], policy)
    return ExpEquivalenceReport(
        params=p,
        max_field_deviation=worst,
        gate_deviation=gate_distance(u_exp, u_cond),
        field_draws=field_draws,
    )
