"""Piecewise drive schedules.

A schedule is an ordered list of segments, and each segment is a frozen,
validated drive record from fields: a loop (LoopParams, RootLoopParams,
TwoQubitParams, ExpLoopParams), a pulse (PulseParams, FlipParams) or an
idle (IdleParams), each with its generator in one real 2x2 block form
(_Record.block_fields), which both propagators and the phase layer read.
Keeping segments parametric rather than storing bare callables makes
geometric operations (axis rotation, traversal reversal) exact parameter
updates. This module holds the schedules, their builders and the field
timeline; the CSV writer is csvfile's. The echo builders take the rate of their
pulses, 50*|omega| by default (_pulse_rate); no loop record holds it.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .csvfile import _write_csv
from .fields import (
    ExpLoopParams,
    FlipParams,
    LoopParams,
    PulseParams,
    RootLoopParams,
    TwoQubitParams,
    _Loop,
    _Record,
    _check_count,
    _check_flag,
    _check_real,
)

__all__ = [
    "SegmentSchedule",
    "single_loop_schedule",
    "build_echo_sequence",
    "build_two_qubit_sequence",
    "build_exp_two_qubit_sequence",
    "rotate_schedule",
    "field_timeline",
    "write_field_timeline_csv",
]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentSchedule:
    """Ordered segments (drive records) of equal dimension."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for s in segs:
            if not isinstance(s, _Record):
                raise ValueError(f"schedule takes segments only, got {s!r}")
        dims = {s.dim for s in segs}
        if len(dims) != 1:
            raise ValueError(f"mixed segment dimensions {sorted(dims)}")
        if not math.isfinite(self.total_duration):
            raise ValueError("schedule duration overflows: its segments' durations sum to inf")

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def labels(self) -> list:
        return [s.label for s in self.segments]


def single_loop_schedule(p: LoopParams, corrected: bool = True) -> SegmentSchedule:
    """One loop p, or with corrected=False (a bool) its uncorrected twin."""
    _check_flag("corrected", corrected)
    return SegmentSchedule((p if corrected else RootLoopParams.of(p),))


def _pulse_rate(p, omega_pi: float | None) -> float:
    """An echo's pulse rate: omega_pi, or by default 50*|omega|, fast
    enough that the pulses are short against the loop period."""
    return 50.0 * abs(p.omega) if omega_pi is None else omega_pi


def build_echo_sequence(p: LoopParams, omega_pi: float | None = None) -> SegmentSchedule:
    """Single-qubit echo, four driven segments: loop-C, pi, loop-Cbar, pi,
    the pulses at rate omega_pi, 50*|omega| by default. A schedule with
    idles between them is built from the records (fields.IdleParams)."""
    fwd = p if p.omega > 0 else p.reversed()
    pulse = PulseParams(_pulse_rate(p, omega_pi), "single")
    return SegmentSchedule((fwd, pulse, fwd.reversed(), pulse))


def _two_qubit_echo(p: TwoQubitParams, rate: float) -> SegmentSchedule:
    """(C, pi-I, Cbar, pi-II) twice, the pulses at `rate`, from the loop
    record p traversed forward (omega > 0) first."""
    fwd = p if p.omega > 0 else p.reversed()
    half = (fwd, PulseParams(rate, "I"), fwd.reversed(), FlipParams(rate))
    return SegmentSchedule(half + half)


def build_two_qubit_sequence(p: TwoQubitParams, omega_pi: float | None = None) -> SegmentSchedule:
    """Two-qubit echo, eight driven segments:

        C, pi-I, Cbar, pi-II, C, pi-I, Cbar, pi-II

    pi-I is a y half turn on the driven qubit; pi-II is the combined
    control flip (see FlipParams), both at rate omega_pi, 50*|omega|
    by default. p must be a TwoQubitParams proper: an ExpLoopParams
    would build the static-coupling echo under this name.
    """
    if type(p) is not TwoQubitParams:
        raise ValueError(f"p must be a TwoQubitParams, the conditional loop record, got {p!r}")
    return _two_qubit_echo(p, _pulse_rate(p, omega_pi))


def build_exp_two_qubit_sequence(p: TwoQubitParams) -> SegmentSchedule:
    """Two-qubit echo with the loops in the static-coupling realization,
    its pulses at the default rate 50*|omega|. Each reversed loop is the
    forward one at -omega, so its cross coupling and static tilt come
    from the parameter map evaluated there."""
    return _two_qubit_echo(ExpLoopParams(p.omega_i, p.coupling, p.omega), _pulse_rate(p, None))


def rotate_schedule(s: SegmentSchedule, angle: float) -> SegmentSchedule:
    """Turn every loop of a single-qubit schedule by `angle` more about
    the y axis, by adding it to the loop's `rotation`.

    Pulses about y and idles are invariant under this rotation, so the
    whole propagator transforms by exact conjugation with the spin-space
    half-angle rotation. Only defined for single-qubit schedules.
    """
    if s.dim != 2:
        raise ValueError("rotate_schedule is defined for single-qubit schedules")
    angle = _check_real("angle", angle)
    return SegmentSchedule(tuple(
        dataclasses.replace(seg, rotation=seg.rotation + angle) if isinstance(seg, _Loop) else seg
        for seg in s.segments
    ))


# ---------------------------------------------------------------------------
# field timeline export
# ---------------------------------------------------------------------------

def field_timeline(s: SegmentSchedule, samples_per_segment: int = 256) -> np.ndarray:
    """Sample the drive field over the schedule. Rows (t, Bx, By, Bz),
    the field twice the block vector v of each record's block_fields.

    Boundaries are duplicated (end of one segment, start of the next) so
    segmentwise consumers see closed intervals. Single-qubit schedules
    only.
    """
    if s.dim != 2:
        raise ValueError("field timeline is defined for single-qubit schedules")
    _check_count("samples_per_segment", samples_per_segment, 2)
    rows = []
    t0 = 0.0
    for seg in s.segments:
        local = np.linspace(0.0, seg.duration, samples_per_segment)
        block = np.empty((local.size, 4))
        block[:, 0] = t0 + local
        block[:, 1:] = 2.0 * seg.block_fields(local)[1][:, 0].T
        rows.append(block)
        t0 += seg.duration
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_field_timeline_csv(
    path, s: SegmentSchedule, samples_per_segment: int = 256
) -> None:
    """CSV with header t,Bx,By,Bz; floats at full precision for
    reproducible diffs."""
    _write_csv(path, ("t", "Bx", "By", "Bz"), field_timeline(s, samples_per_segment).T)
