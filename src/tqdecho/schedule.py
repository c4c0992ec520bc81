"""Piecewise drive schedules.

A schedule is an ordered list of segments. Each segment is defined by a
`kind` plus a small JSON-serializable parameter dict, from which its
generator (the Hamiltonian, in angular-frequency units) follows
deterministically; no generator is ever built as a dense matrix. Every
loop generator is defined once, in its real 2x2 block form
(Segment.block_fields), which both propagators and the phase layer read.
Every pulse is defined once too, by the axis it turns each qubit about
(_pulse_axes), which the exact propagator and the dynamical phase both
read. A corrected loop is its root drive plus the transitionless
correction b x db/dt, derived with Berry's formula for a field precessing
about z (_berry_corrected); the exp-loop takes its field from the
static-coupling map instead. Keeping segments parametric rather than
storing bare callables makes schedules serializable and makes geometric
operations (axis rotation, orientation reversal) exact parameter
updates.

Segment kinds:

* ``tqd-loop`` / ``root-loop``: one full conical precession period of the
  corrected / uncorrected single-qubit drive.
* ``pi-pulse``: constant half-turn pulse about y, on a single qubit or on
  one qubit of a pair.
* ``control-flip``: simultaneous half turn, x on the driven qubit and y on
  the control. This is the refocusing pulse of the two-qubit echo.
* ``idle``: zero generator.
* ``two-qubit-loop``: control-conditioned corrected loop on the driven
  qubit (block-diagonal in the control basis).
* ``exp-loop``: the same conditional loop expressed through static
  couplings plus a rotating transverse drive, including the
  control-frame term omega * (1 x Sz) while the drive is on.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import LoopParams, TwoQubitParams, experimental_params

__all__ = [
    "Segment",
    "SegmentSchedule",
    "loop_segment",
    "pi_pulse_segment",
    "control_flip_segment",
    "idle_segment",
    "two_qubit_loop_segment",
    "exp_loop_segment",
    "single_loop_schedule",
    "build_echo_sequence",
    "build_two_qubit_sequence",
    "build_exp_two_qubit_sequence",
    "rotate_schedule",
    "schedule_to_json",
    "schedule_from_json",
    "field_timeline",
    "write_field_timeline_csv",
]

_LOOP_KINDS = ("tqd-loop", "root-loop", "two-qubit-loop", "exp-loop")
_PULSE_KINDS = ("pi-pulse", "control-flip")
_PARAM_KEYS = {
    "tqd-loop": {"theta", "omega", "omega0", "rotation"},
    "root-loop": {"theta", "omega", "omega0", "rotation"},
    "pi-pulse": {"omega_pi", "target"},
    "control-flip": {"omega_pi"},
    "idle": {"dim"},
    "two-qubit-loop": {"omega_i", "coupling", "omega"},
    "exp-loop": {"omega_i", "coupling", "omega", "frame_term"},
}


# ---------------------------------------------------------------------------
# loop block fields and pulse axes
# ---------------------------------------------------------------------------

def _rotation_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _berry_corrected(transverse: float, bz: float, omega: float) -> tuple:
    """Root field (transverse, 0, bz) plus its transitionless correction
    b x db/dt (Berry, J. Phys. A 42, 365303 (2009)), as (transverse, bz).

    For a root field precessing rigidly about z at rate omega,
    b x db/dt = omega (z - (z.b) b) with b = root / |root|. The rule
    commutes with rotations about z, so correcting the field at wt = 0,
    where it lies in the xz plane, corrects it at every t.
    """
    r = math.hypot(transverse, bz)
    b_x, b_z = transverse / r, bz / r
    return transverse - omega * (b_z * b_x), bz + omega * (1.0 - b_z * b_z)


def _block_amplitudes(kind: str, params: dict, corrected: bool) -> tuple:
    """Per-block (transverse, vz, c0) of a loop generator: block j is
    c0_j + (transverse_j cos wt, transverse_j sin wt, vz_j) . sigma, half
    the field seen by the driven qubit. Two-qubit loops have the control
    sectors q = 0, 1 as their blocks.

    Corrected tqd-loop and two-qubit-loop fields are their root fields
    plus the Berry correction; root-loop is never corrected. The exp-loop
    field comes from experimental_params, the realization that criterion
    7 checks against the corrected two-qubit loop. A block without a
    scalar term has c0 = -0.0, the exact additive identity, so its
    scalar contribution changes no value.
    """
    omega = params["omega"]
    if kind in ("tqd-loop", "root-loop"):
        theta, omega0 = params["theta"], params["omega0"]
        fields = [(omega0 * np.sin(theta), omega0 * np.cos(theta))]
        corrected = corrected and kind == "tqd-loop"
    else:
        omega_i, coupling = params["omega_i"], params["coupling"]
        fields = [(omega_i, coupling), (omega_i, -coupling)]
    if corrected and kind == "exp-loop":
        e = experimental_params(TwoQubitParams(omega_i, coupling, omega))
        fields = [
            (e.omega_i_prime * np.sin(e.theta_prime) + g * e.j_xz,
             e.omega_i_prime * np.cos(e.theta_prime) + omega + g * e.j_zz)
            for g in (1, -1)
        ]
    elif corrected:
        fields = [_berry_corrected(transverse, bz, omega) for transverse, bz in fields]
    # the exp-loop frame term omega * (1 x Sz) is +-omega/2 on the sectors
    c0 = (0.5 * omega, -0.5 * omega) if params.get("frame_term") else (-0.0, -0.0)
    return tuple(
        (0.5 * transverse, 0.5 * bz, c) for (transverse, bz), c in zip(fields, c0)
    )


def _pulse_axes(kind: str, params: dict) -> tuple:
    """The half turn each qubit of a pulse takes, in qubit order (the
    driven qubit first): the index into PAULI of its axis, or None for a
    qubit the pulse leaves alone. A pulse's generator is
    0.5*omega_pi times the sum of these terms."""
    if kind == "control-flip":
        return (0, 1)
    target = params["target"]
    if target == "single":
        return (1,)
    if target == "I":
        return (1, None)
    if target == "II":
        return (None, 1)
    raise ValueError(f"unknown pulse target {target!r}")


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

_REAL = (int, float, np.integer, np.floating)


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, _REAL) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _implied_dim(kind: str, params: dict) -> int:
    """Check a segment's parameter values and return the dimension they
    imply. Loop parameters go through LoopParams / TwoQubitParams, so
    they obey the same ranges as the typed constructors."""
    for key, value in params.items():
        if key == "frame_term":
            if not isinstance(value, bool):
                raise ValueError(f"frame_term must be a boolean, got {value!r}")
        elif key == "target":
            if value not in ("single", "I", "II"):
                raise ValueError(f'pulse target must be "single", "I" or "II", got {value!r}')
        elif key == "dim":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"idle dim must be an integer, got {value!r}")
        else:
            _check_real(key, value)
    if "theta" in params:
        LoopParams(params["theta"], params["omega"], params["omega0"])
        return 2
    if "omega_i" in params:
        TwoQubitParams(params["omega_i"], params["coupling"], params["omega"])
        return 4
    if kind in _PULSE_KINDS:
        if params["omega_pi"] <= 0.0:
            raise ValueError("omega_pi must be positive and finite")
        return 2 if params.get("target") == "single" else 4
    return params["dim"]  # idle


@dataclass(frozen=True)
class Segment:
    """One schedule segment: a kind, its parameters, and a duration.

    The generator follows from (kind, params) on demand: block_fields
    for a loop, _pulse_axes for a pulse, zero for an idle. Segments with
    equal fields produce bit-identical block fields.
    Construction rejects parameter values of the wrong type, outside the
    ranges LoopParams / TwoQubitParams accept, or implying a dimension
    other than `dim`.
    """

    kind: str
    duration: float
    dim: int
    label: str
    params: dict

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PARAM_KEYS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if set(self.params) != _PARAM_KEYS[self.kind]:
            raise ValueError(
                f"segment kind {self.kind!r} expects parameters "
                f"{sorted(_PARAM_KEYS[self.kind])}, got {sorted(self.params)}"
            )
        _check_real("duration", self.duration)
        if self.duration < 0.0:
            raise ValueError("segment duration must be finite and >= 0")
        if self.dim not in (2, 4):
            raise ValueError("segment dimension must be 2 or 4")
        if not isinstance(self.label, str):
            raise ValueError(f"segment label must be a string, got {self.label!r}")
        implied = _implied_dim(self.kind, self.params)
        if implied != self.dim:
            raise ValueError(
                f"segment kind {self.kind!r} with these parameters has dimension "
                f"{implied}, not {self.dim}"
            )

    # -- fields ---------------------------------------------------------------

    def block_fields(self, ts: np.ndarray, corrected: bool = True) -> tuple:
        """Real 2x2 block form of a loop generator at the given local times.

        Returns (c0, v), c0 of shape (blocks, len(ts)) and v of shape
        (3, blocks, len(ts)): block j of the generator is
        c0[j] + v[:, j] . sigma on rows and columns j and j + blocks. A
        dim-2 loop is one block; two-qubit loops are block-diagonal in the
        control basis, sector q on the index pair (q, q + 2).
        corrected=False drops the transitionless correction.
        """
        if self.kind not in _LOOP_KINDS:
            raise ValueError(f"segment kind {self.kind!r} is not a loop")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        amps = _block_amplitudes(self.kind, self.params, corrected)
        wt = self.params["omega"] * ts
        cos, sin = np.cos(wt), np.sin(wt)
        c0 = np.empty((len(amps), ts.size))
        v = np.empty((3,) + c0.shape)
        for j, (transverse, vz, c) in enumerate(amps):
            np.multiply(transverse, cos, out=v[0, j])
            np.multiply(transverse, sin, out=v[1, j])
            v[2, j] = vz
            c0[j] = c
        rot = self.params.get("rotation", 0.0)
        if rot != 0.0:
            v = (_rotation_y(rot) @ v[:, 0])[:, None]
        return c0, v

    def field_batch(self, ts: np.ndarray) -> np.ndarray:
        """Drive field rows (Bx, By, Bz) for dim-2 segments."""
        if self.dim != 2:
            raise ValueError("field form exists only for dim-2 segments")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        k = self.kind
        if k in _LOOP_KINDS:
            return 2.0 * self.block_fields(ts)[1][:, 0].T
        if k == "pi-pulse":
            out = np.zeros((ts.size, 3))
            out[:, 1] = self.params["omega_pi"]
            return out
        return np.zeros((ts.size, 3))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "dim": self.dim,
            "label": self.label,
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# segment constructors
# ---------------------------------------------------------------------------

def loop_segment(
    p: LoopParams, corrected: bool = True, rotation: float = 0.0
) -> Segment:
    """One full loop period of the (un)corrected single-qubit drive.

    The label records the traversal orientation: loop-C for omega > 0,
    loop-Cbar for omega < 0.
    """
    kind = "tqd-loop" if corrected else "root-loop"
    label = "loop-C" if p.omega > 0 else "loop-Cbar"
    params = {
        "theta": float(p.theta),
        "omega": float(p.omega),
        "omega0": float(p.omega0),
        "rotation": float(rotation),
    }
    return Segment(kind, p.period, 2, label, params)


def pi_pulse_segment(omega_pi: float, target: str = "single") -> Segment:
    """Half-turn pulse about y with generator 0.5*omega_pi*sigma_y and
    duration pi/omega_pi. target selects the qubit: "single" for a lone
    qubit, "I" or "II" for one qubit of a pair."""
    if omega_pi <= 0 or not np.isfinite(omega_pi):
        raise ValueError("omega_pi must be positive and finite")
    if target not in ("single", "I", "II"):
        raise ValueError('pulse target must be "single", "I" or "II"')
    dim = 2 if target == "single" else 4
    label = "pi" if target == "single" else f"pi-{target}"
    return Segment(
        "pi-pulse",
        np.pi / omega_pi,
        dim,
        label,
        {"omega_pi": float(omega_pi), "target": target},
    )


def control_flip_segment(omega_pi: float) -> Segment:
    """Simultaneous half turn: x on the driven qubit, y on the control.

    One constant segment with generator 0.5*omega_pi*(sx x 1 + 1 x sy).
    In the conditional eigenbasis this swaps the control sectors while
    preserving the energy label of the driven qubit, which is what lets
    the second half of the two-qubit echo undo the sector-dependent
    dynamical phases. A y half turn on the control alone does not do
    this; it scrambles sectors when the drive and coupling are comparable.
    """
    if omega_pi <= 0 or not np.isfinite(omega_pi):
        raise ValueError("omega_pi must be positive and finite")
    return Segment(
        "control-flip",
        np.pi / omega_pi,
        4,
        "pi-II",
        {"omega_pi": float(omega_pi)},
    )


def idle_segment(duration: float, dim: int = 2) -> Segment:
    return Segment("idle", float(duration), dim, "idle", {"dim": int(dim)})


def two_qubit_loop_segment(p: TwoQubitParams, reverse: bool = False) -> Segment:
    q = p.reversed() if reverse else p
    label = "loop-C" if q.omega > 0 else "loop-Cbar"
    params = {
        "omega_i": float(q.omega_i),
        "coupling": float(q.coupling),
        "omega": float(q.omega),
    }
    return Segment("two-qubit-loop", q.period, 4, label, params)


def exp_loop_segment(
    p: TwoQubitParams, reverse: bool = False, frame_term: bool = True
) -> Segment:
    """Conditional loop realized via the static-coupling parameters.

    The reversed segment is built from the reversed loop parameters, so
    its cross coupling and static tilt come from the parameter map
    evaluated at -omega.
    """
    q = p.reversed() if reverse else p
    label = "loop-C" if q.omega > 0 else "loop-Cbar"
    params = {
        "omega_i": float(q.omega_i),
        "coupling": float(q.coupling),
        "omega": float(q.omega),
        "frame_term": bool(frame_term),
    }
    return Segment("exp-loop", q.period, 4, label, params)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentSchedule:
    """Ordered segments of equal dimension."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        dims = {s.dim for s in segs}
        if len(dims) != 1:
            raise ValueError(f"mixed segment dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    @property
    def boundaries(self) -> np.ndarray:
        """Start times of each segment plus the final end time."""
        return np.concatenate([[0.0], np.cumsum([s.duration for s in self.segments])])

    def labels(self) -> list:
        return [s.label for s in self.segments]


def single_loop_schedule(p: LoopParams, corrected: bool = True) -> SegmentSchedule:
    return SegmentSchedule((loop_segment(p, corrected=corrected),))


def build_echo_sequence(
    p: LoopParams,
    omega_pi: float | None = None,
    gaps: Sequence[float] = (0.0, 0.0, 0.0),
) -> SegmentSchedule:
    """Single-qubit echo: loop-C, idle, pi, idle, loop-Cbar, idle, pi.

    The pulse rate defaults to 50*|omega|. Idle gaps default to zero but
    stay in the schedule so timing offsets can be dialed in.
    """
    if omega_pi is None:
        omega_pi = 50.0 * abs(p.omega)
    if len(gaps) != 3:
        raise ValueError("echo sequence takes exactly 3 idle gaps")
    fwd = p if p.omega > 0 else p.reversed()
    pulse = pi_pulse_segment(omega_pi, target="single")
    return SegmentSchedule((
        loop_segment(fwd),
        idle_segment(gaps[0], 2),
        pulse,
        idle_segment(gaps[1], 2),
        loop_segment(fwd.reversed()),
        idle_segment(gaps[2], 2),
        pulse,
    ))


def _interleave_idles(core: list, gaps: Sequence[float] | None, dim: int) -> tuple:
    if gaps is None:
        gaps = (0.0,) * (len(core) - 1)
    if len(gaps) != len(core) - 1:
        raise ValueError(f"expected {len(core) - 1} idle gaps, got {len(gaps)}")
    out = [core[0]]
    for seg, g in zip(core[1:], gaps):
        out.append(idle_segment(g, dim))
        out.append(seg)
    return tuple(out)


def build_two_qubit_sequence(
    p: TwoQubitParams, gaps: Sequence[float] | None = None
) -> SegmentSchedule:
    """Two-qubit echo, eight driven segments with idles interleaved:

        C, pi-I, Cbar, pi-II, C, pi-I, Cbar, pi-II

    pi-I is a y half turn on the driven qubit; pi-II is the combined
    control flip (see control_flip_segment). Fifteen segments total with
    the default zero-duration idles.
    """
    fwd = p if p.omega > 0 else p.reversed()
    pulse_i = pi_pulse_segment(fwd.omega_pi, target="I")
    flip = control_flip_segment(fwd.omega_pi)
    half = [
        two_qubit_loop_segment(fwd),
        pulse_i,
        two_qubit_loop_segment(fwd, reverse=True),
        flip,
    ]
    return SegmentSchedule(_interleave_idles(half + half, gaps, 4))


def build_exp_two_qubit_sequence(
    p: TwoQubitParams,
    frame_term: bool = True,
    gaps: Sequence[float] | None = None,
) -> SegmentSchedule:
    """Two-qubit echo with the loops in the static-coupling realization."""
    fwd = p if p.omega > 0 else p.reversed()
    pulse_i = pi_pulse_segment(fwd.omega_pi, target="I")
    flip = control_flip_segment(fwd.omega_pi)
    half = [
        exp_loop_segment(fwd, frame_term=frame_term),
        pulse_i,
        exp_loop_segment(fwd, reverse=True, frame_term=frame_term),
        flip,
    ]
    return SegmentSchedule(_interleave_idles(half + half, gaps, 4))


def rotate_schedule(s: SegmentSchedule, angle: float) -> SegmentSchedule:
    """Rotate every dim-2 loop field by `angle` about the y axis.

    Pulses about y and idles are invariant under this rotation, so the
    whole propagator transforms by exact conjugation with the spin-space
    half-angle rotation. Only defined for single-qubit schedules.
    """
    if s.dim != 2:
        raise ValueError("rotate_schedule is defined for single-qubit schedules")
    rotated = []
    for seg in s.segments:
        if seg.kind in _LOOP_KINDS:
            params = dict(seg.params)
            params["rotation"] = float(params.get("rotation", 0.0) + angle)
            rotated.append(Segment(seg.kind, seg.duration, 2, seg.label, params))
        else:
            rotated.append(seg)
    return SegmentSchedule(tuple(rotated))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def schedule_to_json(s: SegmentSchedule, indent: int = 2) -> str:
    doc = {"dim": s.dim, "segments": [seg.to_dict() for seg in s.segments]}
    return json.dumps(doc, indent=indent, sort_keys=True)


def _expected_duration(kind: str, params: dict, stated: float) -> float:
    if kind in _LOOP_KINDS:
        return 2.0 * np.pi / abs(params["omega"])
    if kind in _PULSE_KINDS:
        return np.pi / params["omega_pi"]
    return stated  # idle carries its own duration


_ENTRY_KEYS = {"kind", "duration", "dim", "label", "params"}


def schedule_from_json(text: str) -> SegmentSchedule:
    """Inverse of schedule_to_json, with strict validation.

    Unknown kinds or parameter keys are rejected, parameter values must
    have the right type and lie in the ranges the typed constructors
    accept, and stated durations and dimensions must match the ones
    implied by the parameters.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"dim", "segments"}:
        raise ValueError("schedule document must have exactly 'dim' and 'segments'")
    if not isinstance(doc["segments"], list):
        raise ValueError("schedule 'segments' must be a list")
    segs = []
    for entry in doc["segments"]:
        if not isinstance(entry, dict) or set(entry) != _ENTRY_KEYS:
            raise ValueError(f"malformed segment entry: {entry!r}")
        if not isinstance(entry["params"], dict):
            raise ValueError(f"segment params must be an object, got {entry['params']!r}")
        seg = Segment(
            entry["kind"], entry["duration"], entry["dim"], entry["label"],
            dict(entry["params"]),
        )
        expect = _expected_duration(seg.kind, seg.params, seg.duration)
        if abs(seg.duration - expect) > 1e-9 * max(1.0, expect):
            raise ValueError(
                f"segment duration {seg.duration} inconsistent with parameters "
                f"(expected {expect})"
            )
        segs.append(seg)
    s = SegmentSchedule(tuple(segs))
    if s.dim != doc["dim"]:
        raise ValueError("schedule dim does not match segment dims")
    return s


# ---------------------------------------------------------------------------
# field timeline export
# ---------------------------------------------------------------------------

def field_timeline(s: SegmentSchedule, samples_per_segment: int = 256) -> np.ndarray:
    """Sample the drive field over the schedule. Rows (t, Bx, By, Bz).

    Zero-duration segments contribute a single row; boundaries are
    duplicated (end of one segment, start of the next) so segmentwise
    consumers see closed intervals. Single-qubit schedules only.
    """
    if s.dim != 2:
        raise ValueError("field timeline is defined for single-qubit schedules")
    if samples_per_segment < 2:
        raise ValueError("need at least 2 samples per segment")
    rows = []
    t0 = 0.0
    for seg in s.segments:
        if seg.duration == 0.0:
            local = np.array([0.0])
        else:
            local = np.linspace(0.0, seg.duration, samples_per_segment)
        fields = seg.field_batch(local)
        block = np.empty((local.size, 4))
        block[:, 0] = t0 + local
        block[:, 1:] = fields
        rows.append(block)
        t0 += seg.duration
    return np.vstack(rows)


_CSV_SPECS = {"f": "%.17g", "i": "%d", "U": "%s"}
_CSV_CHUNK = 512


def _write_csv(path, header: Sequence[str], columns) -> None:
    """Write equal-length columns as CSV rows below `header`.

    Float columns print at 17 significant digits ("%.17g" % x is the
    routine behind format(x, ".17g")), integer columns as %d and string
    columns as they are. Each row is one % on a line template, taken a
    chunk of rows at a time, so there is no Python call per cell and no
    string holding the whole file.
    """
    cols = [np.asarray(c) for c in columns]
    line = ",".join(_CSV_SPECS[c.dtype.kind] for c in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(cols[0]), _CSV_CHUNK):
            rows = zip(*[c[i : i + _CSV_CHUNK].tolist() for c in cols])
            fh.writelines(map(line.__mod__, rows))


def write_field_timeline_csv(
    path, s: SegmentSchedule, samples_per_segment: int = 256
) -> None:
    """CSV with header t,Bx,By,Bz; floats at full precision for
    reproducible diffs."""
    _write_csv(path, ("t", "Bx", "By", "Bz"), field_timeline(s, samples_per_segment).T)
