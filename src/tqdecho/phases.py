"""Eigenstate tracking and phase decomposition.

The central objects are comoving reference vectors: the instantaneous
eigenstates of the uncorrected drive, continued smoothly through a
schedule. During loop segments the reference follows the analytic
eigenvector gauge. Through a pulse it is carried by the trajectory's own
pulse rows, ref(t) = U(t) U(t_start)^dag ref(t_start): that is the exact
pulse propagator under either policy, and since the state moves by the
same matrices, the overlap phase between reference and simulated state
changes only while a loop is running. Idles leave it unchanged. No
exponential is computed here.

The overlap series <ref(t)|psi(t)> is built once per trajectory and label
and shared by every function here: tracking fidelity is its squared
magnitude, and total phase is its unwrapped argument accumulated over the
schedule. The dynamical part is minus the time integral of the
uncorrected-generator expectation; the geometric part is their difference.
For the drives used here the dynamical integrand is constant on every
segment (the loop integrand is the tracked eigenenergy, and a constant
pulse conserves its own expectation), so the trapezoid rule integrates it
essentially exactly. Loop expectations are read from the real 2x2 block
fields (Segment.block_fields) and pulse expectations from the axis each
qubit turns about (the pulse record's `axes`), so no dense generator is
built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import LoopParams, TwoQubitParams, theta_tilde
from .propagate import StepPolicy, Trajectory, _propagate_schedules
from .qcore import PAULI, wrap_angle
from .schedule import _LOOP_KINDS, _PULSE_KINDS, SegmentSchedule, loop_segment

__all__ = [
    "LABELS4",
    "PhaseDecomposition",
    "loop_eigenvector",
    "two_qubit_eigenvector",
    "eigenbasis_matrix",
    "evolve_eigenstate",
    "tracking_fidelity",
    "dynamical_phase",
    "total_phase",
    "loop_phase_decomposition",
    "echo_phase_decomposition",
    "solid_angle",
    "delta_omega",
    "correction_energy_check",
]

# label order for the two-qubit eigenbasis: (energy label p, control q)
LABELS4 = ((0, 0), (1, 0), (0, 1), (1, 1))


# ---------------------------------------------------------------------------
# eigenvectors
# ---------------------------------------------------------------------------

def _spin_rotation_y(angle: float) -> np.ndarray:
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _loop_eigvecs(
    theta: float, omega: float, labels: tuple, ts: np.ndarray, rotation: float = 0.0
) -> np.ndarray:
    """Smooth-gauge eigenvectors of the cone drive, shape
    (len(labels), len(ts), 2).

    label 0 follows the field direction (energy +omega0/2), label 1 is
    antiparallel. The gauge puts the winding phase exp(i*omega*t) on the
    second component, which is periodic over a full loop.
    """
    half = 0.5 * theta
    phase = np.exp(1j * omega * ts)
    out = np.empty((len(labels), ts.size, 2), dtype=complex)
    for k, label in enumerate(labels):
        if label == 0:
            out[k, :, 0] = np.cos(half)
            out[k, :, 1] = phase * np.sin(half)
        else:
            out[k, :, 0] = -np.sin(half)
            out[k, :, 1] = phase * np.cos(half)
    if rotation != 0.0:
        out = out @ _spin_rotation_y(rotation).T
    return out


def loop_eigenvector(
    p: LoopParams, label: int, t: float, rotation: float = 0.0
) -> np.ndarray:
    label = _label_key(2, label)
    return _loop_eigvecs(p.theta, p.omega, (label,), np.array([float(t)]), rotation)[0, 0]


def _cond_eigvecs(p: TwoQubitParams, labels: tuple, ts: np.ndarray) -> np.ndarray:
    """Conditional eigenvectors, shape (len(labels), len(ts), 4)."""
    tt = theta_tilde(p)
    out = np.zeros((len(labels), ts.size, 4), dtype=complex)
    for k, (pp, q) in enumerate(labels):
        single = _loop_eigvecs(tt if q == 0 else np.pi - tt, p.omega, (pp,), ts)[0]
        out[k, :, 0 + q] = single[:, 0]
        out[k, :, 2 + q] = single[:, 1]
    return out


def two_qubit_eigenvector(p: TwoQubitParams, label: tuple, t: float) -> np.ndarray:
    """phi_{p,q}(t): the driven qubit's eigenvector for the cone selected
    by control state q, tensored with |q>."""
    return _cond_eigvecs(p, (_label_key(4, label),), np.array([float(t)]))[0, 0]


def eigenbasis_matrix(p: TwoQubitParams, t: float = 0.0) -> np.ndarray:
    """Columns are the conditional eigenvectors in LABELS4 order."""
    return _cond_eigvecs(p, LABELS4, np.array([float(t)]))[:, 0].T.copy()


# ---------------------------------------------------------------------------
# comoving reference series
# ---------------------------------------------------------------------------

def _segment_eigvecs(seg, labels: tuple, ts: np.ndarray) -> np.ndarray:
    p = seg.params
    if seg.dim == 2:
        return _loop_eigvecs(p.theta, p.omega, labels, ts, p.rotation)
    return _cond_eigvecs(p, labels, ts)


def _is_bit(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x in (0, 1)


def _label_key(dim: int, label):
    """The one label rule: an int 0 or 1 for one qubit, a pair (p, q) of
    them for two. Returns the label as a memo key, a pair as a tuple."""
    if dim == 2 and not _is_bit(label):
        raise ValueError("single-qubit label must be an int, 0 or 1")
    pair = isinstance(label, (tuple, list)) and len(label) == 2 and all(map(_is_bit, label))
    if dim == 4 and not pair:
        raise ValueError("two-qubit label must be a pair from {0,1} x {0,1}")
    return label if dim == 2 else tuple(label)


def _checked_label(sched: SegmentSchedule, label):
    """The label as a memo key (_label_key), after checking that phase
    analysis applies to the schedule."""
    if sched.segments[0].kind not in _LOOP_KINDS:
        raise ValueError("phase analysis needs a schedule that starts with a loop")
    return _label_key(sched.dim, label)


# a loop entered with a best eigenvector overlap below this is misaligned
_ALIGNMENT_FLOOR = 1.0 - 1e-6


def _reference_series(traj: Trajectory, label) -> tuple:
    """Comoving reference vectors at every trajectory sample.

    Returns (refs, misaligned). At each loop entry after the first the
    reference continues on the eigenvector it overlaps most; misaligned
    is None if every such overlap magnitude reaches _ALIGNMENT_FLOOR,
    else (segment index, segment label, magnitude) of the first entry
    that does not.
    """
    sched = traj.schedule
    dim = sched.dim
    candidates = (0, 1) if dim == 2 else LABELS4
    refs = np.empty((len(traj.times), dim), dtype=complex)
    misaligned = None
    ref_in = None
    local = traj.local_times()
    for i, seg in enumerate(sched.segments):
        rows = traj.segment_rows(i)
        if seg.kind in _LOOP_KINDS:
            ts = local[rows]
            if ref_in is None:
                detected = label
                eta = 0.0
            else:
                entry = _segment_eigvecs(seg, candidates, ts[:1])[:, 0]
                overlaps = [np.vdot(v, ref_in) for v in entry]
                best = int(np.argmax(np.abs(overlaps)))
                detected = candidates[best]
                mag = abs(overlaps[best])
                if misaligned is None and mag < _ALIGNMENT_FLOOR:
                    misaligned = (i, seg.label, mag)
                eta = float(np.angle(overlaps[best]))
            refs[rows] = _segment_eigvecs(seg, (detected,), ts)[0] * np.exp(1j * eta)
        elif seg.kind in _PULSE_KINDS:
            u = traj.propagators[rows]
            refs[rows] = u @ (u[0].conj().T @ ref_in)
        else:  # idle
            refs[rows] = ref_in
        ref_in = refs[rows.stop - 1]
    return refs, misaligned


def _overlap(traj: Trajectory, label, strict: bool) -> np.ndarray:
    """<ref(t)|psi(t)> against the comoving reference for `label`.

    Built once per trajectory and label, kept in Trajectory._overlaps,
    and shared by every phase function. Strict callers refuse a
    reference that lost eigenstate alignment at a loop entry, since
    phases against a drifting reference are not meaningful.
    """
    key = _checked_label(traj.schedule, label)
    memo = traj._overlaps.get(key)
    if memo is None:
        refs, misaligned = _reference_series(traj, key)
        ov = np.einsum("ni,ni->n", refs.conj(), traj.states)
        ov.setflags(write=False)
        memo = traj._overlaps[key] = ov, misaligned
    ov, misaligned = memo
    if strict and misaligned is not None:
        i, seg_label, mag = misaligned
        raise ValueError(
            f"reference lost eigenstate alignment entering segment {i} "
            f"({seg_label}): best overlap {mag:.6f}; the pulse between "
            "loops does not map eigenstates to eigenstates"
        )
    return ov


def evolve_eigenstate(
    s: SegmentSchedule,
    label,
    policy: StepPolicy | None = None,
    samples: int = 256,
) -> Trajectory:
    """Propagate the schedule starting from the labelled eigenstate of the
    first loop segment at t=0 (exact propagator unless a StepPolicy
    is given). The label obeys the rule of every phase function
    (_checked_label)."""
    return _evolve_eigenstates([s], label, policy, samples)[0]


def _evolve_eigenstates(
    scheds, label, policy: StepPolicy | None = None, samples: int = 256
) -> list:
    """evolve_eigenstate on each schedule in `scheds` with the one
    `label`, from one walk: one Trajectory per schedule."""
    states = []
    for s in scheds:
        key = _checked_label(s, label)
        states.append(_segment_eigvecs(s.segments[0], (key,), np.array([0.0]))[0, 0])
    return _propagate_schedules(scheds, states, policy, samples)


def tracking_fidelity(traj: Trajectory, label) -> np.ndarray:
    """|<ref(t)|psi(t)>|^2 against the comoving reference for `label`.

    Works for drives that fail to track (the whole point of the
    diagnostic), so no alignment strictness is enforced.
    """
    if traj.states is None:
        raise ValueError("attach an initial state before computing fidelities")
    return np.abs(_overlap(traj, label, strict=False)) ** 2


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def _block_expectation(seg, ts: np.ndarray, psi: np.ndarray, corrected: bool) -> np.ndarray:
    """<psi|H|psi> of a loop generator from its block fields: per block,
    with amplitudes a, b on its index pair,
    c0 (|a|^2 + |b|^2) + 2 vx Re(a* b) + 2 vy Im(a* b) + vz (|a|^2 - |b|^2)."""
    c0, (vx, vy, vz) = seg.block_fields(ts, corrected=corrected)
    blocks = c0.shape[0]
    a, b = psi[:, :blocks].T, psi[:, blocks:].T
    pa, pb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    ab = a.conj() * b
    terms = c0 * (pa + pb) + 2.0 * (vx * ab.real + vy * ab.imag) + vz * (pa - pb)
    return terms.sum(axis=0)


def _pulse_expectation(seg, psi: np.ndarray) -> np.ndarray:
    """<psi|H|psi> of a pulse, H = 0.5*omega_pi times sigma_k on each
    turned qubit (the record's `axes`): the sum of 0.5*omega_pi*<sigma_k> over
    those qubits, the driven qubit being the leading tensor factor."""
    half = 0.5 * seg.params.omega_pi
    axes = seg.params.axes
    if len(axes) == 1:
        return np.einsum("ni,ij,nj->n", psi.conj(), half * PAULI[axes[0]], psi).real
    pair = psi.reshape(-1, 2, 2)
    per_qubit = ("nac,ab,nbc->n", "nca,ab,ncb->n")
    return sum(
        np.einsum(spec, pair.conj(), half * PAULI[k], pair).real
        for spec, k in zip(per_qubit, axes)
        if k is not None
    )


def dynamical_phase(traj: Trajectory, root="root") -> float:
    """Minus the integrated expectation of the reference generator.

    root selects what is integrated: "root" (default) uses each segment's
    uncorrected generator, "full" the complete generator including
    corrections. Loops are read in block form, pulses from the axis each
    qubit turns about; idles contribute nothing.
    """
    if traj.states is None:
        raise ValueError("attach an initial state before computing phases")
    if root not in ("root", "full"):
        raise ValueError('root must be "root" or "full"')
    local = traj.local_times()
    total = 0.0
    for i, seg in enumerate(traj.schedule.segments):
        rows = traj.segment_rows(i)
        ts = local[rows]
        if ts.size < 2 or seg.kind == "idle":
            continue
        psi = traj.states[rows]
        if seg.kind in _LOOP_KINDS:
            expect = _block_expectation(seg, ts, psi, corrected=root == "full")
        else:
            expect = _pulse_expectation(seg, psi)
        total += np.sum(0.5 * (expect[1:] + expect[:-1]) * np.diff(ts))
    return float(-total)


def _unwrapped_overlap_phase(traj: Trajectory, label) -> np.ndarray:
    ov = _overlap(traj, label, strict=True)
    mag = np.abs(ov)
    if mag.min() < 0.99:
        raise ValueError(
            f"state does not track the labelled eigenstate (min overlap "
            f"{mag.min():.4f}); total phase against it is not defined"
        )
    raw = np.angle(ov)
    steps = np.diff(raw)
    wrapped = np.pi - np.mod(np.pi - steps, 2.0 * np.pi)
    if wrapped.size and np.max(np.abs(wrapped)) > 0.25 * np.pi:
        raise ValueError(
            "phase steps between samples exceed pi/4; raise `samples` to "
            "unwrap the overlap phase reliably"
        )
    out = np.empty_like(raw)
    out[0] = raw[0]
    out[1:] = raw[0] + np.cumsum(wrapped)
    return out


def total_phase(traj: Trajectory, label) -> float:
    """Unwrapped overlap phase accumulated against the comoving reference."""
    if traj.states is None:
        raise ValueError("attach an initial state before computing phases")
    f = _unwrapped_overlap_phase(traj, label)
    return float(f[-1] - f[0])


@dataclass(frozen=True)
class PhaseDecomposition:
    """total = dynamical + geometric, with closed-form targets.

    Geometric parts are angles and are compared modulo 2*pi; dynamical
    parts are genuine integrals and are compared as-is.
    """

    label: object
    total: float
    dynamical: float
    geometric: float
    expected_geometric: float
    expected_dynamical: float

    @property
    def geometric_deviation(self) -> float:
        return abs(wrap_angle(self.geometric - self.expected_geometric))

    @property
    def dynamical_deviation(self) -> float:
        return abs(self.dynamical - self.expected_dynamical)

    def to_dict(self) -> dict:
        return {
            "label": list(self.label) if isinstance(self.label, tuple) else self.label,
            "total": self.total,
            "dynamical": self.dynamical,
            "geometric": self.geometric,
            "expected_geometric": self.expected_geometric,
            "expected_dynamical": self.expected_dynamical,
            "geometric_deviation": self.geometric_deviation,
            "dynamical_deviation": self.dynamical_deviation,
        }


def solid_angle(theta: float) -> float:
    """Solid angle enclosed by the cone of opening angle theta."""
    return float(2.0 * np.pi * (1.0 - np.cos(theta)))


def delta_omega(p: TwoQubitParams) -> float:
    """Half the difference of the conditional solid angles,
    2*pi*J/sqrt(omega_i^2+J^2). Sets the conditional phase of the echo."""
    return float(2.0 * np.pi * p.coupling / p.rabi)


def loop_phase_decomposition(traj: Trajectory, label: int) -> PhaseDecomposition:
    """Phase decomposition for a single corrected loop.

    Closed forms: dynamical -(1-2p)*omega0*T/2 independent of orientation,
    geometric sign(omega)*(2p-1)*pi*(1-cos theta) modulo 2*pi.
    """
    s = traj.schedule
    label = _checked_label(s, label)
    if len(s.segments) != 1 or s.segments[0].kind != "tqd-loop":
        raise ValueError("expects a schedule with exactly one corrected loop")
    seg = s.segments[0]
    p = seg.params
    sgn = 1.0 if p.omega > 0 else -1.0
    expected_dyn = -(1 - 2 * label) * p.omega0 * seg.duration / 2.0
    expected_geo = sgn * (2 * label - 1) * np.pi * (1.0 - np.cos(p.theta))
    return _decomposition(traj, label, expected_geo, expected_dyn)


def echo_phase_decomposition(traj: Trajectory, label) -> PhaseDecomposition:
    """Phase decomposition over a full echo sequence.

    Dynamical phases refocus to zero. The surviving geometric phase is
    sign(omega_first)*(1-2p)*2*pi*cos(theta) for the single-qubit echo and
    (-1)^(p+q)*2*delta_omega for the two-qubit echo, both modulo 2*pi.
    """
    s = traj.schedule
    label = _checked_label(s, label)
    first = s.segments[0].params
    sgn = 1.0 if first.omega > 0 else -1.0
    if s.dim == 2:
        expected_geo = sgn * (1 - 2 * label) * 2.0 * np.pi * np.cos(first.theta)
    else:
        pp, q = label
        expected_geo = sgn * ((-1) ** (pp + q)) * 2.0 * delta_omega(first)
    return _decomposition(traj, label, expected_geo, 0.0)


def _decomposition(traj, label, expected_geo, expected_dyn) -> PhaseDecomposition:
    """The trajectory's total phase for `label`, split into its dynamical
    phase and the geometric rest, beside their closed-form values."""
    total, dyn = total_phase(traj, label), dynamical_phase(traj)
    return PhaseDecomposition(
        label, total, dyn, total - dyn, float(expected_geo), float(expected_dyn)
    )


def correction_energy_check(p: LoopParams, n_samples: int = 64) -> float:
    """Largest |<phi_p|H_correction|phi_p>| over one loop period and both
    labels, with H_correction the corrected minus the root generator. The
    correction never shifts the tracked level's energy, so this should
    vanish to rounding."""
    ts = np.linspace(0.0, p.period, n_samples)
    seg = loop_segment(p)
    v = seg.block_fields(ts)[1] - seg.block_fields(ts, corrected=False)[1]
    hc = np.einsum("kn,kij->nij", v[:, 0], PAULI)
    vecs = _loop_eigvecs(p.theta, p.omega, (0, 1), ts)
    energies = np.einsum("lni,nij,lnj->ln", vecs.conj(), hc, vecs).real
    return float(np.max(np.abs(energies), initial=0.0))
