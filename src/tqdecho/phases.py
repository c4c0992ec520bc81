"""Eigenstate tracking and phase decomposition.

The central objects are comoving reference vectors: the instantaneous
eigenstates of the uncorrected drive, continued smoothly through a
schedule. During a loop the reference follows the analytic eigenvector
gauge of the loop's record, built on its cones in its local frame and
turned by its orientation, the one frame its fields are built in.
Through a pulse it is carried by the trajectory's own pulse rows,
ref(t) = U(t) U(t_start)^dag ref(t_start): that is the exact pulse
propagator under either policy, and since the state moves by the same
matrices, the overlap phase between reference and simulated state
changes only while a loop is running. Idles leave it unchanged. No
exponential is computed here.

The overlap series <ref(t)|psi(t)> is built once per trajectory and label
and shared by every function here: tracking fidelity is its squared
magnitude. The dynamical phase is minus the time integral of the
uncorrected-generator expectation and carries the whole turns; the
geometric phase is the overlap's turn between the schedule's ends,
arg(ov[-1] conj(ov[0])), less it, wrapped to (-pi, pi] (Aharonov and
Anandan's cyclic phase); the total is their sum. No sample between the
ends is unwrapped, so the phases hold at any sample count where the
integral is exact. The trapezoid rule over the samples integrates it
exactly to rounding only where the integrand is constant on a segment:
on a loop tracking an eigenstate (its eigenenergy) and on a pulse (which
conserves its own expectation). Elsewhere it converges as samples^-2:
on an uncorrected loop at theta = pi/4, omega = 0.3, omega0 = 1 it is
off by 1.5e-5 at 256 samples and 9.4e-7 at 1024 (ROADMAP item 12 states
a closed form).
Every expectation is read from the record's real 2x2 block fields
(_Record.block_fields; a pulse is a frame turn at its own rate, with
K = 0), the control flip's in its control's y basis, so no dense
generator is built; dynamical_phase reads each distinct record once and
integrates all samples in one pass, keeping the bytes of a sum taken
segment by segment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import LoopParams, TwoQubitParams, _HalfTurn, _Loop, _check_real
from .propagate import StepPolicy, Trajectory, _propagate_schedules
from .qcore import PAULI, wrap_angle
from .schedule import SegmentSchedule

__all__ = [
    "LABELS4",
    "PhaseDecomposition",
    "loop_eigenvector",
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

def _eigvecs(p, labels: tuple, ts: np.ndarray) -> np.ndarray:
    """Smooth-gauge eigenvectors of loop record p's root field at local
    times ts, shape (len(labels), len(ts), dim). A label is an energy
    label, or for two blocks the pair (energy label, block q). In the
    local frame label 0 follows block q's root field on its cone
    p.cones()[q] (energy + above the block's frame term), label 1 is
    antiparallel, and the gauge puts the winding phase exp(i*omega*t),
    periodic over a loop, on the second component. The record's
    orientation then turns each vector on the driven qubit."""
    cones = p.cones()
    blocks = len(cones)
    phase = np.exp(1j * p.omega * ts)
    out = np.zeros((len(labels), ts.size, 2 * blocks), dtype=complex)
    vec = np.empty((ts.size, 2), dtype=complex)
    for k, label in enumerate(labels):
        energy, q = (label, 0) if blocks == 1 else label
        c, s = np.cos(0.5 * cones[q]), np.sin(0.5 * cones[q])
        a, b = (c, s) if energy == 0 else (-s, c)
        vec[:, 0] = a
        np.multiply(phase, b, out=vec[:, 1])
        out[k, :, q::blocks] = vec if p.orientation is None else vec @ p.orientation.spin.T
    return out


def _eigvecs_at(p, dim: int, labels: tuple, t) -> np.ndarray:
    """_eigvecs of loop record p, which must be of dimension dim, for the
    labels _label_key accepts at that dim, at the one local time t:
    shape (len(labels), dim)."""
    labels = tuple(_label_key(dim, label) for label in labels)
    t = _check_real("t", t)
    if p.dim != dim:
        raise ValueError(f"expected a loop record of dimension {dim}, got {p!r}")
    return _eigvecs(p, labels, np.array([t]))[:, 0]


def loop_eigenvector(p: LoopParams, label: int, t: float) -> np.ndarray:
    """phi_label(t) of loop p, turned by its orientation."""
    return _eigvecs_at(p, 2, (label,), t)[0]


def eigenbasis_matrix(p: TwoQubitParams, t: float = 0.0) -> np.ndarray:
    """Columns are the conditional eigenvectors in LABELS4 order."""
    return _eigvecs_at(p, 4, LABELS4, t).T.copy()


# ---------------------------------------------------------------------------
# comoving reference series
# ---------------------------------------------------------------------------

def _is_bit(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x in (0, 1)


def _label_key(dim: int, label):
    """The one label rule: an int 0 or 1 for one qubit, a pair (p, q) of
    them for two. Returns the label as a memo key of Python ints, a pair
    as a tuple, so a numpy integer label serializes like any other."""
    if dim == 2 and not _is_bit(label):
        raise ValueError("single-qubit label must be an int, 0 or 1")
    pair = isinstance(label, (tuple, list)) and len(label) == 2 and all(map(_is_bit, label))
    if dim == 4 and not pair:
        raise ValueError("two-qubit label must be a pair from {0,1} x {0,1}")
    return int(label) if dim == 2 else tuple(map(int, label))


def _checked_label(sched: SegmentSchedule, label):
    """The label as a memo key (_label_key), after checking that phase
    analysis applies to the schedule."""
    if not isinstance(sched.segments[0], _Loop):
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
        if isinstance(seg, _Loop):
            ts = local[rows]
            if ref_in is None:
                detected = label
                eta = 0.0
            else:
                # the entry candidates take a call of their own: a turned
                # loop's one-row product can round otherwise than row 0
                # of the series
                entry = _eigvecs(seg, candidates, ts[:1])[:, 0]
                overlaps = [np.vdot(v, ref_in) for v in entry]
                best = int(np.argmax(np.abs(overlaps)))
                detected = candidates[best]
                mag = abs(overlaps[best])
                if misaligned is None and mag < _ALIGNMENT_FLOOR:
                    misaligned = (i, seg.label, mag)
                eta = float(np.angle(overlaps[best]))
            np.multiply(_eigvecs(seg, (detected,), ts)[0], np.exp(1j * eta), out=refs[rows])
        elif isinstance(seg, _HalfTurn):
            u = traj.propagators[rows]
            np.matmul(u, u[0].conj().T @ ref_in, out=refs[rows])
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
        states.append(_eigvecs(s.segments[0], (key,), np.array([0.0]))[0, 0])
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

def dynamical_phase(traj: Trajectory, root="root") -> float:
    """Minus the integrated expectation of the reference generator, by the
    trapezoid rule: exact on tracking loops and pulses only (module docstring).

    root selects what is integrated: "root" (default) uses each segment's
    uncorrected generator, "full" the complete generator including
    corrections. Every record is read in block form (an idle's fields are
    zero), once per distinct record and local-time grid, into one array
    over all samples; the states of a record with a `_control_frame` F
    are first mapped by F^dag. Per block, with amplitudes a, b on its
    index pair, the expectation is
    c0 (|a|^2 + |b|^2) + 2 vx Re(a* b) + 2 vy Im(a* b) + vz (|a|^2 - |b|^2),
    evaluated once over all samples. Each segment's trapezoid terms are
    summed on their own, and the segment sums added in schedule order.
    """
    if traj.states is None:
        raise ValueError("attach an initial state before computing phases")
    if root not in ("root", "full"):
        raise ValueError('root must be "root" or "full"')
    local = traj.local_times()
    blocks = traj.schedule.dim // 2
    c0 = np.empty((blocks, local.size))
    v = np.empty((3, blocks, local.size))
    psi = traj.states
    read = {}
    for i, seg in enumerate(traj.schedule.segments):
        rows = traj.segment_rows(i)
        # a record and its grid: an echo holds its pulse records twice
        key = id(seg), rows.stop - rows.start
        if key not in read:
            read[key] = seg.block_fields(local[rows], corrected=root == "full")
        c0[:, rows], v[:, :, rows] = read[key]
        if seg._control_frame is not None:
            psi = psi.copy() if psi is traj.states else psi
            psi[rows] = traj.states[rows] @ seg._control_frame.conj()
    a, b = psi[:, :blocks].T, psi[:, blocks:].T
    pa, pb = a.real**2 + a.imag**2, b.real**2 + b.imag**2
    ab = a.conj() * b
    terms = c0 * (pa + pb) + 2.0 * (v[0] * ab.real + v[1] * ab.imag) + v[2] * (pa - pb)
    expect = terms.sum(axis=0)
    trapezoids = 0.5 * (expect[1:] + expect[:-1]) * np.diff(local)
    total = 0.0
    for rows in traj._rows:
        # a segment's terms end one row before its last sample; np.sum
        # is this reduction, behind a Python wrapper
        total += np.add.reduce(trapezoids[rows.start : rows.stop - 1])
    return float(-total)


def total_phase(traj: Trajectory, label) -> float:
    """Dynamical plus geometric phase against the comoving reference."""
    return _phases(traj, label)[0]


def _phases(traj: Trajectory, label) -> tuple:
    """(total, dynamical, geometric) for `label`, read at the schedule's
    ends (module docstring)."""
    if traj.states is None:
        raise ValueError("attach an initial state before computing phases")
    ov = _overlap(traj, label, strict=True)
    mag = np.abs(ov)
    # written so that a NaN fails it
    if not mag.min() >= 0.99:
        raise ValueError(
            f"state does not track the labelled eigenstate (min overlap "
            f"{mag.min():.4f}); total phase against it is not defined"
        )
    turn = np.angle(ov[-1] * ov[0].conj())
    dyn = dynamical_phase(traj)
    geo = wrap_angle(turn - dyn)
    return dyn + geo, dyn, geo


@dataclass(frozen=True)
class PhaseDecomposition:
    """total = dynamical + geometric, with closed-form targets.

    Geometric parts are angles in (-pi, pi] and are compared modulo 2*pi;
    dynamical parts are genuine integrals, carry the total's whole turns
    and are compared as-is. Where the geometric part sits on +-pi, its
    sign is a rounding decision (demo 04's echo reads -3.141593 against
    the closed form +pi), so `geometric` and `total` are compared modulo
    2*pi: at +-pi they may differ by 2*pi between numpy/BLAS builds.
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
    if len(s.segments) != 1 or type(s.segments[0]) is not LoopParams:
        raise ValueError("expects a schedule with exactly one corrected loop")
    p = s.segments[0]
    sgn = 1.0 if p.omega > 0 else -1.0
    expected_dyn = -(1 - 2 * label) * p.omega0 * p.duration / 2.0
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
    first = s.segments[0]
    sgn = 1.0 if first.omega > 0 else -1.0
    if s.dim == 2:
        expected_geo = sgn * (1 - 2 * label) * 2.0 * np.pi * np.cos(first.theta)
    else:
        pp, q = label
        expected_geo = sgn * ((-1) ** (pp + q)) * 2.0 * delta_omega(first)
    return _decomposition(traj, label, expected_geo, 0.0)


def _decomposition(traj, label, expected_geo, expected_dyn) -> PhaseDecomposition:
    """The trajectory's phases for `label` (_phases): its dynamical phase,
    the geometric rest in (-pi, pi] and their sum, the total, beside their
    closed-form values."""
    total, dyn, geo = _phases(traj, label)
    return PhaseDecomposition(label, total, dyn, geo, float(expected_geo), float(expected_dyn))


def correction_energy_check(p: LoopParams) -> float:
    """Largest |<phi_p|H_correction|phi_p>| at 128 times over one loop
    period, for both labels, with H_correction the corrected minus the
    root generator. The correction never shifts the tracked level's
    energy, so this should vanish to rounding."""
    if not isinstance(p, LoopParams):
        raise ValueError(f"expects a LoopParams, got {p!r}")
    ts = np.linspace(0.0, p.period, 128)
    v = p.block_fields(ts)[1] - p.block_fields(ts, corrected=False)[1]
    hc = np.einsum("kn,kij->nij", v[:, 0], PAULI)
    vecs = _eigvecs(p, (0, 1), ts)
    energies = np.einsum("lni,nij,lnj->ln", vecs.conj(), hc, vecs).real
    return float(np.max(np.abs(energies), initial=0.0))
