"""Piecewise drive schedules.

A schedule is an ordered list of segments, and each segment is a frozen,
validated drive record from fields: a loop (LoopParams, RootLoopParams,
TwoQubitParams, ExpLoopParams), a pulse (PulseParams, FlipParams) or an
idle (IdleParams), each with its generator in one real 2x2 block form
(_Record.block_fields), which both propagators and the phase layer read.
Keeping segments parametric rather than storing bare callables makes
geometric operations (axis rotation, traversal reversal) exact parameter
updates. This module holds the schedules, their builders, the field
timeline and the CSV writer. The echo builders take the rate of their
pulses, 50*|omega| by default (_pulse_rate); no loop record holds it.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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
    line break or NUL, or one named twice, is rejected; string cells are
    segment labels, fixed strings of the records that hold none of these.
    The file is streamed _CSV_CHUNK rows at a time, so no string holds the
    whole file.
    """
    for k, name in enumerate(header):
        _check_csv_text("CSV column name", name)
        if name in header[:k]:
            raise ValueError(f"CSV column name {name!r} is repeated")
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
