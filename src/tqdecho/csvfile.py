"""The CSV writer and its '%.17g' kernel.

Every CSV the package writes goes through _write_csv: float columns
through the vectorized kernel _g17_cells, integer and string columns
as text, below a checked header.
"""
from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np


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


_CHUNK_FLOATS = 3072  # floats per kernel call; sets the rows of a chunk
_FEW = 64  # a column of at most this many distinct values is formatted once
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
    # (byte, layout) -> source of that byte of the cell, comma, NUL padding;
    # byte-major, so a cell's first w bytes for every layout are one block
    gather: np.ndarray
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
    gather, width = gather.reshape(-1, _CELL).T.copy(), np.concatenate([width, width + 1])

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
    hi, lo, hh, hl = _g17_tables().pow10.take(X - _X_LO, axis=1)
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
    np.abs(X, out=words[:, 6])  # |X| <= _X_HI + 1
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
    index = t.gather[:width].take(layout, axis=1)
    index += np.arange(0, 32 * n, 32)
    cells = t.words.take(words).view(np.uint8).ravel().take(index, mode="clip").T
    if text:
        cells[declined] = _padded(text, width)
    return cells


def _text_cells(values) -> np.ndarray:
    """Integers or strings as cells like _g17_cells's."""
    return _padded([str(v).encode("utf-8") + b"," for v in values])


def _runs(col: np.ndarray) -> tuple:
    """(table, ids) of an integer or string column: the cells of its
    runs of equal values and each row's run."""
    new = np.ones(len(col), bool)
    np.not_equal(col[1:], col[:-1], out=new[1:])
    return _text_cells(col[new].tolist()), np.cumsum(new) - 1


def _once(col: np.ndarray):
    """(table, ids) of a column of at most _FEW distinct values, floats
    told apart by their bit pattern (0.0 and -0.0 print apart, and nans
    of two payloads count twice): the cells of the distinct values and
    each row's index among them. None for any other column, as soon as
    a strided sample of the rows or the column itself shows more than
    _FEW values."""
    keys = col.view(np.int64) if col.dtype.kind == "f" else col
    if len(set(keys[:: max(1, len(keys) // (_FEW + 1))].tolist())) > _FEW:
        return None
    ids = np.zeros(len(keys), np.uint8)  # _FEW < 256
    values = [keys[0]]
    rest = np.flatnonzero(keys != values[0])  # the rows of no value yet
    while rest.size:
        if len(values) == _FEW:
            return None
        same = keys[rest] == keys[rest[0]]
        ids[rest[same]] = len(values)
        values.append(keys[rest[0]])
        rest = rest[~same]
    if col.dtype.kind == "f":
        return _g17_cells(np.array(values).view(np.float64)), ids
    return _text_cells(values), ids


def _chunk_rows(kernel_columns: int) -> int:
    """Rows per chunk: _CHUNK_FLOATS floats per kernel call over the
    float columns the kernel formats."""
    return _CHUNK_FLOATS // max(1, kernel_columns)


def _csv_rows(cols: list, once: list, rows: slice) -> np.ndarray:
    """The CSV lines of `rows` of the columns, as a uint8 array: the
    cells of each row side by side, the last comma made a newline, the
    NUL padding dropped. A column with a table in `once` gathers its
    cells from it; the kernel formats the other float columns in one
    call, and each run of an integer or string column is formatted
    once."""
    floats = [c[rows] for c, o in zip(cols, once) if o is None and c.dtype.kind == "f"]
    if floats:
        cells = _g17_cells(np.stack(floats, axis=1).ravel()).reshape(len(floats[0]), len(floats), -1)
    parts, k = [], 0
    for c, o in zip(cols, once):
        if o is None and c.dtype.kind == "f":
            parts.append(cells[:, k])
            k += 1
        else:
            table, ids = _runs(c[rows]) if o is None else (o[0], o[1][rows])
            parts.append(table.take(ids, axis=0))
    out = np.concatenate(parts, axis=1)
    # the last cell of a row ends in its comma, then NULs or nothing
    last = out[:, -parts[-1].shape[1]:]
    last[last == ord(",")] = ord("\n")
    out = out.ravel()
    return out[out != 0]


def _write_csv(path, header: Sequence[str], columns) -> None:
    """Write equal-length columns as UTF-8 CSV rows below `header`.

    Float columns print as '%.17g' % x (the routine behind
    format(x, ".17g")), integer columns as %d and string columns as they
    are. A column of at most _FEW distinct values is formatted once per
    value for the whole file (_once). The other float columns go through
    the vectorized kernel _g17_cells, _CHUNK_FLOATS floats per call,
    which sets the rows of a chunk (_chunk_rows), and the other integer
    and string columns by runs of equal values. Each chunk is written as
    it is made, so no string holds the whole file.

    Before the file is opened, the input is checked: a header name
    holding a comma, quote, line break or NUL, or one named twice, no
    column, a header of another length than the columns, and columns
    that are not 1-d of one length raise ValueError. String cells are segment labels,
    fixed strings of the records that hold none of these characters.
    """
    for k, name in enumerate(header):
        _check_csv_text("CSV column name", name)
        if name in header[:k]:
            raise ValueError(f"CSV column name {name!r} is repeated")
    cols = [np.asarray(c) for c in columns]
    for c in cols:
        if c.dtype.kind not in "fiU":
            raise ValueError(f"cannot write a CSV column of dtype {c.dtype}")
    if not cols:
        raise ValueError("CSV needs at least one column")
    if len(cols) != len(header):
        raise ValueError(f"CSV header names {len(header)} columns, but {len(cols)} are given")
    shapes = [c.shape for c in cols]
    if any(len(s) != 1 for s in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"CSV columns must be 1-d and of one length, got shapes {shapes}")
    cols = [c.astype(np.float64, copy=False) if c.dtype.kind == "f" else c for c in cols]
    once = [_once(c) if len(c) else None for c in cols]
    step = _chunk_rows(sum(o is None and c.dtype.kind == "f" for c, o in zip(cols, once)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for i in range(0, len(cols[0]), step):
            fh.write(_csv_rows(cols, once, slice(i, i + step)))
