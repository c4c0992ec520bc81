"""Piecewise drive schedules.

A schedule is an ordered list of segments. Each segment is a `kind`, a
label and a frozen parameter record of that kind, whose fields are the
JSON `params` keys and from which its dimension, its duration and its
generator (the Hamiltonian, in angular-frequency units) follow
deterministically; no generator is ever built as a dense matrix. A
loop's record is its parameter class from fields (LoopParams,
TwoQubitParams, ExpLoopParams), which states its frame: its root
fields precess about z on its `cones()` in a local frame, which its
`orientation` turns into the lab frame. Every loop generator is defined
once, in its real 2x2 block form
(Segment.block_fields, from that record), which both propagators and
the phase layer read. Every pulse is defined once too, by the axis it
turns each qubit about (its record's `axes`), which the exact
propagator and the dynamical phase both read. A corrected loop is its
root drive plus the transitionless correction b x db/dt, derived in
the local frame with Berry's formula (fields._berry_corrected); the
exp-loop takes its field from the static-coupling map instead. Keeping
segments parametric rather than storing bare callables makes schedules
serializable and makes geometric operations (axis rotation, traversal
reversal) exact parameter updates.

Segment kinds and their records:

* ``tqd-loop`` / ``root-loop`` (LoopParams): one full conical
  precession period of the corrected / uncorrected single-qubit drive,
  turned by the record's `rotation` about y.
* ``pi-pulse`` (PulseParams): constant half-turn pulse about y, on a
  single qubit or on one qubit of a pair.
* ``control-flip`` (FlipParams): simultaneous half turn, x on the driven
  qubit and y on the control. This is the refocusing pulse of the
  two-qubit echo.
* ``idle`` (IdleParams): zero generator for the record's `duration`.
* ``two-qubit-loop`` (TwoQubitParams): control-conditioned
  corrected loop on the driven qubit (block-diagonal in the control
  basis).
* ``exp-loop`` (ExpLoopParams): the same conditional loop expressed
  through static couplings plus a rotating transverse drive, including
  the control-frame term omega * (1 x Sz) while the drive is on.

The echo builders take the rate of their pulses, 50*|omega| by default
(_pulse_rate); no loop record holds it.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fields import ExpLoopParams, LoopParams, TwoQubitParams, _check_real, _real_fields

__all__ = [
    "Segment",
    "SegmentSchedule",
    "PulseParams",
    "FlipParams",
    "IdleParams",
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


def _check_count(name: str, value, least: int) -> None:
    """Accept a Python or numpy integer >= least; reject bools and floats."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# segment parameter records, one per kind (_RECORDS); the loop records
# live in fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _HalfTurn:
    """What the pulse records share: a half turn at rate omega_pi > 0.
    `axes` holds the index into PAULI of each qubit's axis, the driven
    qubit first, or None for a qubit left alone; the generator is
    0.5*omega_pi times the sum of these terms."""

    omega_pi: float
    dim = property(lambda self: 2 ** len(self.axes))
    duration = property(lambda self: np.pi / self.omega_pi)

    def __post_init__(self):
        _real_fields(self, positive=True)


@dataclass(frozen=True)
class FlipParams(_HalfTurn):
    """control-flip: x on the driven qubit, y on the control."""

    axes = (0, 1)


@dataclass(frozen=True)
class PulseParams(_HalfTurn):
    """pi-pulse: a half turn about y on a lone qubit (target "single") or
    on qubit "I" or "II" of a pair."""

    target: str
    _AXES = {"single": (1,), "I": (1, None), "II": (None, 1)}
    axes = property(lambda self: self._AXES[self.target])

    def __post_init__(self):
        if not isinstance(self.target, str) or self.target not in self._AXES:
            raise ValueError(f'pulse target must be "single", "I" or "II", got {self.target!r}')
        super().__post_init__()


@dataclass(frozen=True)
class IdleParams:
    """idle: a dimension, the integer 2 or 4, and a duration >= 0."""

    dim: int
    duration: float

    def __post_init__(self):
        _check_count("idle dim", self.dim, 2)
        if self.dim not in (2, 4):
            raise ValueError(f"idle dim must be 2 or 4, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        _real_fields(self)
        if self.duration < 0.0:
            raise ValueError(f"idle duration must be finite and >= 0, got {self.duration}")


_RECORDS = {
    "tqd-loop": LoopParams,
    "root-loop": LoopParams,
    "pi-pulse": PulseParams,
    "control-flip": FlipParams,
    "idle": IdleParams,
    "two-qubit-loop": TwoQubitParams,
    "exp-loop": ExpLoopParams,
}


def _record_class(kind) -> type:
    if not isinstance(kind, str) or kind not in _RECORDS:
        raise ValueError(f"unknown segment kind {kind!r}")
    return _RECORDS[kind]


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

_CSV_BREAKING = frozenset(',"\r\n\0')


def _check_csv_text(name: str, value) -> None:
    """Accept a string that fits in one unquoted CSV cell: no comma,
    quote, line break or NUL."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    if not _CSV_BREAKING.isdisjoint(value):
        raise ValueError(
            f"{name} must not contain a comma, quote, line break or NUL, got {value!r}"
        )


@dataclass(frozen=True)
class Segment:
    """One schedule segment: a kind, a label and its parameter record.

    The record is the one source of the segment's physics: its generator
    follows on demand (block_fields for a loop, the record's `axes` for
    a pulse, zero for an idle), and so do its `dim` and `duration` (a
    loop lasts one period, a pulse one half turn, an idle what its
    record states), which construction reads from it and stores.
    Segments with equal fields produce bit-identical block fields.
    Construction rejects a `params` other than the kind's record. The
    label is written into CSV cells as it is, so it may not contain a
    comma, quote, line break or NUL.
    """

    kind: str
    label: str
    params: LoopParams | TwoQubitParams | PulseParams | FlipParams | IdleParams
    dim: int = dataclasses.field(init=False, repr=False, compare=False)
    duration: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        record = _record_class(self.kind)
        if type(self.params) is not record:
            raise ValueError(
                f"segment kind {self.kind!r} takes params of type {record.__name__}, "
                f"got {self.params!r}"
            )
        _check_csv_text("segment label", self.label)
        object.__setattr__(self, "dim", self.params.dim)
        object.__setattr__(self, "duration", self.params.duration)

    # -- fields ---------------------------------------------------------------

    def block_fields(self, ts: np.ndarray, corrected: bool = True) -> tuple:
        """Real 2x2 block form of a loop generator at the given local times.

        Returns (c0, v), c0 of shape (blocks, len(ts)) and v of shape
        (3, blocks, len(ts)): block j of the generator is
        c0[j] + v[:, j] . sigma on rows and columns j and j + blocks. A
        dim-2 loop is one block; two-qubit loops are block-diagonal in the
        control basis, sector q on the index pair (q, q + 2). v[:, j] is
        half the field of the record's block j, turned from its local
        frame by its `orientation`, and c0[j] its `frame` term, -0.0
        (the exact additive identity) for none. corrected=False drops
        the transitionless correction.
        """
        if self.kind not in _LOOP_KINDS:
            raise ValueError(f"segment kind {self.kind!r} is not a loop")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        p = self.params
        # a root-loop is never corrected
        fields = p.corrected() if corrected and self.kind != "root-loop" else p.root()
        wt = p.omega * ts
        cos, sin = np.cos(wt), np.sin(wt)
        c0 = np.empty((len(fields), ts.size))
        v = np.empty((3,) + c0.shape)
        for j, ((transverse, bz), c) in enumerate(zip(fields, p.frame)):
            np.multiply(0.5 * transverse, cos, out=v[0, j])
            np.multiply(0.5 * transverse, sin, out=v[1, j])
            v[2, j] = 0.5 * bz
            c0[j] = c
        if p.orientation is not None:
            v = (p.orientation.matrix @ v.reshape(3, -1)).reshape(v.shape)
        return c0, v

    def field_batch(self, ts: np.ndarray) -> np.ndarray:
        """Drive field rows (Bx, By, Bz) for dim-2 segments."""
        if self.dim != 2:
            raise ValueError("field form exists only for dim-2 segments")
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.kind in _LOOP_KINDS:
            return 2.0 * self.block_fields(ts)[1][:, 0].T
        out = np.zeros((ts.size, 3))
        if self.kind in _PULSE_KINDS:
            (axis,) = self.params.axes
            out[:, axis] = self.params.omega_pi
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label, "params": dataclasses.asdict(self.params)}


# ---------------------------------------------------------------------------
# segment constructors
# ---------------------------------------------------------------------------

def loop_segment(p: LoopParams, corrected: bool = True) -> Segment:
    """One full loop period of the (un)corrected single-qubit drive p,
    turned by its `rotation`.

    The label records the traversal orientation: loop-C for omega > 0,
    loop-Cbar for omega < 0.
    """
    kind = "tqd-loop" if corrected else "root-loop"
    label = "loop-C" if p.omega > 0 else "loop-Cbar"
    return Segment(kind, label, p)


def pi_pulse_segment(omega_pi: float, target: str = "single") -> Segment:
    """Half-turn pulse about y with generator 0.5*omega_pi*sigma_y and
    duration pi/omega_pi. target selects the qubit: "single" for a lone
    qubit, "I" or "II" for one qubit of a pair."""
    params = PulseParams(omega_pi, target)
    label = "pi" if target == "single" else f"pi-{target}"
    return Segment("pi-pulse", label, params)


def control_flip_segment(omega_pi: float) -> Segment:
    """Simultaneous half turn: x on the driven qubit, y on the control.

    One constant segment with generator 0.5*omega_pi*(sx x 1 + 1 x sy).
    In the conditional eigenbasis this swaps the control sectors while
    preserving the energy label of the driven qubit, which is what lets
    the second half of the two-qubit echo undo the sector-dependent
    dynamical phases. A y half turn on the control alone does not do
    this; it scrambles sectors when the drive and coupling are comparable.
    """
    return Segment("control-flip", "pi-II", FlipParams(omega_pi))


def idle_segment(duration: float, dim: int = 2) -> Segment:
    return Segment("idle", "idle", IdleParams(dim, duration))


def two_qubit_loop_segment(p: TwoQubitParams, reverse: bool = False) -> Segment:
    return _conditional_loop("two-qubit-loop", p, reverse)


def exp_loop_segment(
    p: TwoQubitParams, reverse: bool = False, frame_term: bool = True
) -> Segment:
    """Conditional loop realized via the static-coupling parameters.

    The reversed segment is built from the reversed loop parameters, so
    its cross coupling and static tilt come from the parameter map
    evaluated at -omega.
    """
    return _conditional_loop("exp-loop", p, reverse, frame_term)


def _conditional_loop(kind: str, p: TwoQubitParams, reverse: bool, *extra) -> Segment:
    """One period of a two-qubit loop of `kind` on p's loop rates, or on
    p reversed, with the record fields in `extra` after the rates."""
    q = p.reversed() if reverse else p
    label = "loop-C" if q.omega > 0 else "loop-Cbar"
    return Segment(kind, label, _RECORDS[kind](q.omega_i, q.coupling, q.omega, *extra))


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
        for s in segs:
            if not isinstance(s, Segment):
                raise ValueError(f"schedule takes segments only, got {s!r}")
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


def _pulse_rate(p, omega_pi: float | None) -> float:
    """An echo's pulse rate: omega_pi, or by default 50*|omega|, fast
    enough that the pulses are short against the loop period."""
    return 50.0 * abs(p.omega) if omega_pi is None else omega_pi


def build_echo_sequence(
    p: LoopParams,
    omega_pi: float | None = None,
    gaps: Sequence[float] = (0.0, 0.0, 0.0),
) -> SegmentSchedule:
    """Single-qubit echo: loop-C, idle, pi, idle, loop-Cbar, idle, pi.

    The pulse rate defaults to 50*|omega|. Idle gaps default to zero but
    stay in the schedule so timing offsets can be dialed in.
    """
    fwd = p if p.omega > 0 else p.reversed()
    pulse = pi_pulse_segment(_pulse_rate(p, omega_pi), target="single")
    core = [loop_segment(fwd), pulse, loop_segment(fwd.reversed()), pulse]
    return SegmentSchedule(_interleave_idles(core, gaps))


def _interleave_idles(core: list, gaps: Sequence[float] | None) -> tuple:
    if gaps is None:
        gaps = (0.0,) * (len(core) - 1)
    if len(gaps) != len(core) - 1:
        raise ValueError(f"expected {len(core) - 1} idle gaps, got {len(gaps)}")
    out = [core[0]]
    for seg, g in zip(core[1:], gaps):
        out.append(idle_segment(g, seg.dim))
        out.append(seg)
    return tuple(out)


def _two_qubit_echo(p: TwoQubitParams, rate: float, loop, gaps) -> SegmentSchedule:
    """(C, pi-I, Cbar, pi-II) twice with idles interleaved, the pulses at
    `rate`, each loop built as loop(forward params, reverse)."""
    fwd = p if p.omega > 0 else p.reversed()
    pulse_i, flip = pi_pulse_segment(rate, target="I"), control_flip_segment(rate)
    half = [loop(fwd, False), pulse_i, loop(fwd, True), flip]
    return SegmentSchedule(_interleave_idles(half + half, gaps))


def build_two_qubit_sequence(
    p: TwoQubitParams, omega_pi: float | None = None, gaps: Sequence[float] | None = None
) -> SegmentSchedule:
    """Two-qubit echo, eight driven segments with idles interleaved:

        C, pi-I, Cbar, pi-II, C, pi-I, Cbar, pi-II

    pi-I is a y half turn on the driven qubit; pi-II is the combined
    control flip (see control_flip_segment), both at rate omega_pi, 50*|omega|
    by default. Fifteen segments total with the default zero-duration idles.
    """
    return _two_qubit_echo(p, _pulse_rate(p, omega_pi), two_qubit_loop_segment, gaps)


def build_exp_two_qubit_sequence(
    p: TwoQubitParams,
    frame_term: bool = True,
    gaps: Sequence[float] | None = None,
) -> SegmentSchedule:
    """Two-qubit echo with the loops in the static-coupling realization,
    its pulses at the default rate 50*|omega|."""
    loop = functools.partial(exp_loop_segment, frame_term=frame_term)
    return _two_qubit_echo(p, _pulse_rate(p, None), loop, gaps)


def rotate_schedule(s: SegmentSchedule, angle: float) -> SegmentSchedule:
    """Turn every loop of a single-qubit schedule by `angle` more about
    the y axis, by adding it to the loop's `rotation`.

    Pulses about y and idles are invariant under this rotation, so the
    whole propagator transforms by exact conjugation with the spin-space
    half-angle rotation. Only defined for single-qubit schedules.
    """
    if s.dim != 2:
        raise ValueError("rotate_schedule is defined for single-qubit schedules")
    _check_real("angle", angle)
    return SegmentSchedule(tuple(
        dataclasses.replace(seg, params=dataclasses.replace(
            seg.params, rotation=seg.params.rotation + angle))
        if seg.kind in _LOOP_KINDS else seg
        for seg in s.segments
    ))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def schedule_to_json(s: SegmentSchedule) -> str:
    """The schedule as JSON text, indented by 2 with sorted keys."""
    doc = {"segments": [seg.to_dict() for seg in s.segments]}
    return json.dumps(doc, indent=2, sort_keys=True)


_ENTRY_KEYS = {"kind", "label", "params"}


def schedule_from_json(text: str) -> SegmentSchedule:
    """Inverse of schedule_to_json, with strict validation.

    The document holds exactly `segments`, and each entry exactly
    `kind`, `label` and `params`: a segment's dimension and duration are
    its record's, so no entry states them again. Unknown kinds are
    rejected, and each `params` object must hold exactly the fields of
    its kind's record, which checks their types and ranges as the typed
    constructors do.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"segments"}:
        raise ValueError("schedule document must have exactly 'segments'")
    if not isinstance(doc["segments"], list):
        raise ValueError("schedule 'segments' must be a list")
    segs = []
    for entry in doc["segments"]:
        if not isinstance(entry, dict) or set(entry) != _ENTRY_KEYS:
            raise ValueError(f"malformed segment entry: {entry!r}")
        record, params = _record_class(entry["kind"]), entry["params"]
        if not isinstance(params, dict):
            raise ValueError(f"segment params must be a dict, got {params!r}")
        keys = {f.name for f in dataclasses.fields(record)}
        if set(params) != keys:
            raise ValueError(
                f"segment kind {entry['kind']!r} expects parameters {sorted(keys)}, "
                f"got {sorted(params)}"
            )
        segs.append(Segment(entry["kind"], entry["label"], record(**params)))
    return SegmentSchedule(tuple(segs))


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
    _check_count("samples_per_segment", samples_per_segment, 2)
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


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_CHUNK = 512  # rows formatted and written at a time
_KERNEL_MIN = 128  # below this many floats, per-cell '%.17g' is cheaper
_CELL = 25  # the longest '%.17g' of a float64 plus its comma: "-2.2250738585072014e-308,"
# decimal exponents the power table covers: those of 1e-250 <= |x| < 1e250,
# each estimate off by one either way
_X_LO, _X_HI = -252, 251
_TIE = 0.5 - 1e-6  # roundings closer than 1e-6 to a tie are declined
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# A cell's source row is 8 words from _G17Tables.words, 32 bytes: the
# 17 digits as "000d" and four 4-digit groups (digit i is byte 3 + i,
# bytes 0-2 are "0"), then ".-e,", the exponent's digits as "0hto", and
# "+" with NULs. The byte offsets the layouts use:
_ZERO, _DOT, _MINUS, _E, _COMMA, _HUNDREDS, _PLUS, _NUL = 0, 20, 21, 22, 23, 25, 28, 29
_PUNCT, _PLUS_WORD = 10000, 10001  # word indices of ".-e," and "+"


class _G17Tables(NamedTuple):
    pow10: np.ndarray  # (4, X): hi, lo and hi's Veltkamp halves of 10**(16 - X)
    words: np.ndarray  # uint32 "%04d" of 0..9999, then ".-e," and "+"
    tz4: np.ndarray  # trailing zeros of a 4-digit group, 4 for 0
    layout: np.ndarray  # (sign, X - _X_LO, digits - 1) -> layout; X past _X_HI: zero
    gather: np.ndarray  # layout -> source bytes of the cell, comma, NUL padding
    width: np.ndarray  # layout -> bytes up to and with the comma


@functools.cache
def _g17_tables() -> _G17Tables:
    """Tables of the '%.17g' kernel, built on first use in a few ms.
    The powers of ten are double-doubles from exact integers: hi is
    10**k correctly rounded and lo the remainder correctly rounded."""
    pow10, p, q = {}, 1, 10
    for k in range(17 - _X_LO):
        pow10[k] = (float(p), float(p - int(float(p))))
        p *= 10
    for k in range(1, _X_HI - 15):
        hi = 1 / q
        num, den = hi.as_integer_ratio()
        pow10[-k] = (hi, (den - num * q) / (den * q))
        q *= 10
    hi, lo = np.array([pow10[16 - X] for X in range(_X_LO, _X_HI + 1)]).T
    c = _SPLIT * hi
    hh = c - (c - hi)

    digits = np.indices((10, 10, 10, 10)).reshape(4, -1)  # of 0..9999, thousands first
    words = np.concatenate([
        (digits.T + ord("0")).astype(np.uint8).ravel(),
        np.frombuffer(b".-e,+\0\0\0", np.uint8),
    ]).view(np.uint32)
    tz4 = np.cumprod(digits[::-1] == 0, axis=0).sum(axis=0)

    def run(i, j):  # source bytes of digits i..j-1
        return list(range(3 + i, 3 + j))

    rows = []
    for X in range(-4, 17):  # fixed notation: layout (X + 4) * 17 + nd - 1
        for nd in range(1, 18):
            if X < 0:
                rows.append([_ZERO, _DOT] + [_ZERO] * (-1 - X) + run(0, nd))
            else:
                rows.append(run(0, X + 1) + ([_DOT] + run(X + 1, nd) if nd > X + 1 else []))
    for nd in range(1, 18):  # exponential: 357 + (nd - 1) * 4 + 2 * (X < 0) + (|X| >= 100)
        mantissa = run(0, 1) + ([_DOT] + run(1, nd) if nd > 1 else [])
        for sign in (_PLUS, _MINUS):
            exponent = mantissa + [_E, sign, _HUNDREDS + 1, _HUNDREDS + 2]
            rows += [exponent, exponent[:-2] + [_HUNDREDS] + exponent[-2:]]
    rows.append([_ZERO])
    width = np.array([len(r) + 1 for r in rows])
    gather = np.full((2, len(rows), _CELL), _NUL, dtype=np.intp)
    gather[0, np.arange(len(rows)), width - 1] = _COMMA
    gather[0][np.arange(_CELL) < width[:, None] - 1] = [b for r in rows for b in r]
    gather[1, :, 0] = _MINUS  # the signed layouts
    gather[1, :, 1:] = gather[0, :, :-1]
    gather, width = gather.reshape(-1, _CELL), np.concatenate([width, width + 1])

    X = np.arange(_X_LO, _X_HI + 1)[:, None]
    nd = np.arange(1, 18)
    layout = np.where(
        (X >= -4) & (X < 17),
        (X + 4) * 17 + nd - 1,
        357 + (nd - 1) * 4 + 2 * (X < 0) + (np.abs(X) >= 100),
    )
    layout = np.vstack([layout, np.full(17, len(rows) - 1)])
    layout = np.stack([layout, layout + len(rows)])
    tables = _G17Tables(np.stack([hi, lo, hh, hi - hh]), words, tz4, layout, gather, width)
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple:
    """(N, f) with a * 10**(16 - X) = N + f, N the nearest int64 and
    |f| <= 1/2, to about 1e-14: Dekker's exact product of a with the
    hi part of the power, plus a times its lo part, summed by two-sum."""
    hi, lo, hh, hl = _g17_tables().pow10[:, X - _X_LO]
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    low = err + a * lo
    s = p + low
    r = np.rint(s)
    f = (s - r) + (low - (s - p))
    r2 = np.rint(f)
    return r.astype(np.int64) + r2.astype(np.int64), f - r2


def _misplaced(N: np.ndarray, f: np.ndarray) -> tuple:
    """Cells whose N + f lies below 1e16, and those above 1e17 + 1/2: the
    decimal exponent X was one too large or too small. A value rounding
    to 1e17 is a carry into the next exponent, not a miss."""
    below = (N < 10**16) | ((N == 10**16) & (f < 0))
    return below, N > 10**17


def _padded(text: list, width: int = 0) -> np.ndarray:
    """Byte strings as the rows of a uint8 array, NUL-padded to the
    longest of them or to width, whichever is more."""
    width = max([width, *map(len, text)])
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in text), np.uint8).reshape(
        len(text), width
    )


def _one_by_one(x: np.ndarray) -> list:
    """'%.17g' % v plus a comma for each value, formatted on its own."""
    return [b"%.17g," % v for v in x.tolist()]


def _decimal(x: np.ndarray) -> tuple:
    """(X, N, placed): the decimal exponent X and the 17 significant
    digits N of each |v|, so |v| = N * 10**(X - 16) rounded to 17 digits,
    for the cells where placed holds. Zeros are placed with X = _X_HI + 1,
    the row of their own layout."""
    a = np.abs(x)
    zero = a == 0.0
    placed = (a >= 1e-250) & (a < 1e250)  # false for nan
    a[~placed] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    N, f = _scaled(a, X)
    below, above = _misplaced(N, f)
    redo = np.flatnonzero(below | above)
    if redo.size:  # log10 missed by one near a power of ten
        X[redo] += np.where(below[redo], -1, 1)
        N[redo], f[redo] = _scaled(a[redo], X[redo])
        below, above = _misplaced(N[redo], f[redo])
        placed[redo[below | above]] = False
    carry = N == 10**17
    N[carry] = 10**16
    X += carry
    placed &= np.abs(f) < _TIE
    X[zero] = _X_HI + 1
    return X, N, placed | zero


def _g17_cells(x: np.ndarray) -> np.ndarray:
    """Each float64 of x as '%.17g' % v plus a comma, NUL-padded: a
    uint8 array with one row per value.

    Per cell: the decimal exponent X = floor(log10|v|), corrected by
    one where it missed, and the 17 significant digits N, the nearest
    integer to |v| * 10**(16 - X) (_decimal); N split into a leading
    digit and four 4-digit groups, whose trailing zeros give the digit
    count; and one gather of the cell's bytes by a layout chosen from
    the sign, X and the digit count (%g's rules: fixed notation for
    -4 <= X < 17, else d.ddde+XX). Zeros have a layout of their own.
    The kernel declines non-finite values, |v| outside [1e-250, 1e250)
    and roundings within 1e-6 of a tie, so exactness never rests on its
    error estimate: a declined cell, like every cell of a block under
    _KERNEL_MIN, is formatted on its own by '%.17g'.
    """
    n = x.size
    if n < _KERNEL_MIN:
        return _padded(_one_by_one(x))
    t = _g17_tables()
    X, N, placed = _decimal(x)
    words = np.empty((n, 8), np.intp)  # the source row, as indices into t.words
    words[:, 0], rest = np.divmod(N, 10**16)
    high, low = np.divmod(rest, 10**8)
    np.divmod(high, 10**4, out=(words[:, 1], words[:, 2]))
    np.divmod(low, 10**4, out=(words[:, 3], words[:, 4]))
    words[:, 5] = _PUNCT
    np.minimum(np.abs(X), 9999, out=words[:, 6])
    words[:, 7] = _PLUS_WORD
    tz = t.tz4[words[:, 4]]
    for k in (3, 2, 1):  # a zero last group is rare: extend those cells only
        z = np.flatnonzero(tz == 4 * (4 - k))
        if not z.size:
            break
        tz[z] += t.tz4[words[z, k]]

    layout = t.layout[np.signbit(x).view(np.uint8), X - _X_LO, 16 - tz]
    declined = np.flatnonzero(~placed)
    layout[declined] = t.layout[0, -1, 0]  # zero's layout, the narrowest
    text = _one_by_one(x[declined])
    width = max([t.width.take(layout).max(), *map(len, text)])
    index = np.ascontiguousarray(t.gather[:, :width]).take(layout, axis=0)
    index += np.arange(0, 32 * n, 32)[:, None]
    cells = t.words.take(words).view(np.uint8).ravel().take(index, mode="clip")
    if text:
        cells[declined] = _padded(text, width)
    return cells


def _text_cells(col: np.ndarray) -> np.ndarray:
    """An integer or string column as cells like _g17_cells's: each run
    of equal values is formatted once and gathered."""
    new = np.ones(len(col), bool)
    np.not_equal(col[1:], col[:-1], out=new[1:])
    text = [str(v).encode("utf-8") + b"," for v in col[new].tolist()]
    return _padded(text)[np.cumsum(new) - 1]


def _csv_rows(cols: list) -> bytes:
    """The CSV lines of equal-length columns: the cells of each row side
    by side, the last comma made a newline, the NUL padding dropped."""
    floats = [c for c in cols if c.dtype.kind == "f"]
    if floats:
        cells = _g17_cells(np.stack(floats, axis=1).astype(np.float64, copy=False).ravel())
        cells = cells.reshape(len(cols[0]), len(floats), -1)
    parts, k = [], 0
    for c in cols:
        if c.dtype.kind == "f":
            parts.append(cells[:, k])
            k += 1
        else:
            parts.append(_text_cells(c))
    out = np.concatenate(parts, axis=1)
    # the last cell of a row ends in its comma, then NULs or nothing
    last = out[:, -parts[-1].shape[1]:]
    last[last == ord(",")] = ord("\n")
    out = out.ravel()
    return out[out != 0].tobytes()


def _write_csv(path, header: Sequence[str], columns) -> None:
    """Write equal-length columns as UTF-8 CSV rows below `header`.

    Float columns print as '%.17g' % x (the routine behind
    format(x, ".17g")) through the vectorized kernel _g17_cells,
    integer columns as %d and string columns as they are, each run of
    equal values formatted once. A header name holding a comma, quote,
    line break or NUL is rejected; string cells are segment labels,
    which Segment holds to the same rule. The file is streamed
    _CSV_CHUNK rows at a time, so no string holds the whole file.
    """
    for name in header:
        _check_csv_text("CSV column name", name)
    cols = [np.asarray(c) for c in columns]
    for c in cols:
        if c.dtype.kind not in "fiU":
            raise ValueError(f"cannot write a CSV column of dtype {c.dtype}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for i in range(0, len(cols[0]), _CSV_CHUNK):
            fh.write(_csv_rows([c[i : i + _CSV_CHUNK] for c in cols]))


def write_field_timeline_csv(
    path, s: SegmentSchedule, samples_per_segment: int = 256
) -> None:
    """CSV with header t,Bx,By,Bz; floats at full precision for
    reproducible diffs."""
    _write_csv(path, ("t", "Bx", "By", "Bz"), field_timeline(s, samples_per_segment).T)
