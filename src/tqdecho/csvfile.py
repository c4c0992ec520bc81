"""The CSV writer and its '%.17g' kernel.

Every CSV the package writes goes through _write_csv, below a checked
header. Integer and string columns, and float columns of few distinct
values, are tabled once per file (by runs of equal values, or by
value); the other float columns go through the vectorized kernel
_g17_cells, a chunk of rows at a time. Each chunk's cells are copied
once into a row buffer, the last column's made with the newline.
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


_CHUNK_FLOATS = 6144  # floats per kernel call; sets the rows of a chunk
_GATHER_CELLS = 512  # cells per gather; its index takes 8 bytes per byte of a cell
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
# bytes 0-2 are "0"), then ".-e" and the cell's end (a comma, or a
# newline for the last cell of a line), the exponent's digits as
# "0hto", and "+" with NULs. The byte offsets the layouts use:
_ZERO, _DOT, _MINUS, _E, _END, _HUNDREDS, _PLUS, _NUL = 0, 20, 21, 22, 23, 25, 28, 29
_PUNCT, _PUNCT_NL, _PLUS_WORD = 10000, 10001, 10002  # ".-e,", ".-e\n" and "+"


class _G17Tables(NamedTuple):
    pow10: np.ndarray  # (4, X): hi, lo and hi's Veltkamp halves of 10**(16 - X)
    words: np.ndarray  # uint32 "%04d" of 0..9999, then ".-e,", ".-e\n" and "+"
    tz4: np.ndarray  # trailing zeros of a 4-digit group, 4 for 0
    layout: np.ndarray  # (sign, X - _X_LO, digits - 1) -> layout; X past _X_HI: zero
    gather: np.ndarray  # (layout, byte) -> source of that byte of the cell, its end, NULs
    offsets: np.ndarray  # (cell, byte) -> 32 * cell: its source row's start in a gather


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
        np.frombuffer(b".-e,.-e\n+\0\0\0", np.uint8),
    ]).view(np.uint32)
    tz4 = np.cumprod(digits[::-1] == 0, axis=0).sum(axis=0).astype(np.uint8)

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
    gather[0, np.arange(len(rows)), width - 1] = _END
    gather[0][np.arange(_CELL) < width[:, None] - 1] = [b for r in rows for b in r]
    gather[1, :, 0] = _MINUS  # the signed layouts
    gather[1, :, 1:] = gather[0, :, :-1]
    offsets = np.repeat(np.arange(0, 32 * _GATHER_CELLS, 32), _CELL).reshape(-1, _CELL)

    X = np.arange(_X_LO, _X_HI + 1)[:, None]
    nd = np.arange(1, 18)
    layout = np.where(
        (X >= -4) & (X < 17),
        (X + 4) * 17 + nd - 1,
        357 + (nd - 1) * 4 + 2 * (X < 0) + (np.abs(X) >= 100),
    )
    layout = np.vstack([layout, np.full(17, len(rows) - 1)])
    layout = np.stack([layout, layout + len(rows)]).astype(np.int16)
    tables = _G17Tables(
        np.stack([hi, lo, hh, hi - hh]), words, tz4, layout, gather.reshape(-1, _CELL), offsets
    )
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple:
    """(N, f) with a * 10**(16 - X) = N + f, N the nearest int64 and
    |f| <= 1/2, to about 1e-14: Dekker's exact product of a with the
    hi part of the power, plus a times its lo part, summed by two-sum."""
    hi, lo, hh, hl = _g17_tables().pow10.take(X - _X_LO, axis=1, mode="clip")
    p = a * hi
    ah = _SPLIT * a  # Veltkamp's split of a: ah = c - (c - a) with c = _SPLIT * a
    ah -= ah - a
    al = a - ah
    # err = ((ah * hh - p) + ah * hl + al * hh) + al * hl = a * hi - p, exactly,
    # and low = err + a * lo, in place
    err = ah * hh
    err -= p
    err += np.multiply(ah, hl, out=ah)
    err += np.multiply(al, hh, out=hh)
    err += np.multiply(al, hl, out=hl)
    low = np.add(err, np.multiply(a, lo, out=lo), out=err)
    del hi, lo, hh, hl, ah, al  # freed early: the largest arrays a chunk holds
    s = p + low
    r = np.rint(s)
    low -= np.subtract(s, p, out=p)  # f = (s - r) + (low - (s - p)), in place
    f = np.add(np.subtract(s, r, out=s), low, out=s)
    r2 = np.rint(f)
    N = r.astype(np.int64)
    N += r2.astype(np.int64)
    return N, np.subtract(f, r2, out=f)


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


def _split(a: np.ndarray, d: int, out=None) -> np.ndarray:
    """a // d, returned, and a % d, left in a, for a >= 0: a floor
    division by a constant is a multiply and shift in numpy, where
    np.divmod divides."""
    q = np.floor_divide(a, d, out=out)
    a -= q * d
    return q


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


def _ended(x: np.ndarray, at: np.ndarray, lines: int) -> list:
    """_one_by_one of the values x[at], the cell of each that ends a
    line of `lines` cells (at % lines == lines - 1) ending in a newline
    instead of its comma."""
    text = _one_by_one(x[at])
    if lines:
        for i in np.flatnonzero(at % lines == lines - 1).tolist():
            text[i] = text[i][:-1] + b"\n"
    return text


def _g17_cells(x: np.ndarray, lines: int = 0) -> np.ndarray:
    """Each float64 of x as '%.17g' % v plus a comma, NUL-padded: a
    uint8 array with one row per value. With lines = k > 0, x holds lines
    of k values, and the last cell of each line ends in a newline in
    place of its comma.

    Per cell: the decimal exponent X = floor(log10|v|), corrected by
    one where it missed, and the 17 significant digits N, the nearest
    integer to |v| * 10**(16 - X) (_decimal); N split into a leading
    digit and four 4-digit groups, whose trailing zeros give the digit
    count, and written as the cell's 32 source bytes; and one gather of
    the cell's bytes from them by a layout chosen from the sign, X and
    the digit count (%g's rules: fixed notation for -4 <= X < 17, else
    d.ddde+XX). Zeros have a layout of their own. The kernel declines
    non-finite values, |v| outside [1e-250, 1e250) and roundings within
    1e-6 of a tie, so exactness never rests on its error estimate: a
    declined cell, like every cell of a block under _KERNEL_MIN, is
    formatted on its own by '%.17g'.
    """
    n = x.size
    if n < _KERNEL_MIN:
        return _padded(_ended(x, np.arange(n), lines))
    t = _g17_tables()
    X, N, placed = _decimal(x)
    source = np.empty((n, 8), np.uint32)  # each cell's source row, as words
    source[:, 5] = t.words[_PUNCT]
    if lines:
        source[lines - 1 :: lines, 5] = t.words[_PUNCT_NL]
    source[:, 6] = t.words.take(np.abs(X))  # |X| <= _X_HI + 1
    source[:, 7] = t.words[_PLUS_WORD]
    # the digits, in place: N's leading digit, then its 4-digit groups
    first = _split(N, 10**16)
    source[:, 0] = t.words.take(first)
    _split(N, 10**8, out=first)
    groups = [_split(first, 10**4), first, _split(N, 10**4), N]
    for k, group in enumerate(groups, 1):
        source[:, k] = t.words.take(group)
    tz = t.tz4[groups[3]]
    for k in (2, 1, 0):  # a zero last group is rare: extend those cells only
        z = np.flatnonzero(tz == 4 * (3 - k))
        if not z.size:
            break
        tz[z] += t.tz4[groups[k][z]]
    del N, first, groups

    # layout = t.layout[sign, X - _X_LO, 16 - tz], by its flat index, in X
    layout = np.multiply(X, 17, out=X)
    layout += 16 - 17 * _X_LO
    layout -= tz
    layout += np.signbit(x) * t.layout[0].size
    layout = t.layout.ravel().take(layout)
    del X, tz
    declined = np.flatnonzero(~placed)
    layout[declined] = t.layout[0, -1, 0]  # zero's layout, the narrowest
    text = _ended(x, declined, lines)
    cells = np.empty((n, _CELL), np.uint8)
    source = source.view(np.uint8).ravel()
    index = np.empty((min(n, _GATHER_CELLS), _CELL), np.intp)
    for i in range(0, n, _GATHER_CELLS):  # each cell's source bytes, then its bytes
        part = layout[i : i + _GATHER_CELLS]
        at = index[: len(part)]
        t.gather.take(part, axis=0, out=at, mode="clip")
        at += t.offsets[: len(part)]
        source[32 * i :].take(at, mode="clip", out=cells[i : i + _GATHER_CELLS])
    if text:
        cells[declined] = _padded(text, _CELL)
    return cells


def _runs(col: np.ndarray, last: bool = False) -> tuple:
    """(table, ids) of an integer or string column: the cells of its
    runs of equal values, like _g17_cells's, and each row's run. The
    cells of the last column end in a newline."""
    new = np.empty(len(col), bool)
    new[0] = True
    np.not_equal(col[1:], col[:-1], out=new[1:])
    end = b"\n" if last else b","
    return _padded([str(v).encode("utf-8") + end for v in col[new].tolist()]), np.cumsum(new) - 1


def _once(col: np.ndarray, last: bool = False):
    """(table, ids) of a float column of at most _FEW distinct values,
    told apart by their bit pattern (0.0 and -0.0 print apart, and nans
    of two payloads count twice): the cells of the distinct values, each
    ending in a newline if the column is the last, and each row's index
    among them. None as soon as a strided sample of the rows or the
    column itself shows more than _FEW values."""
    keys = col.view(np.int64)
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
    return _g17_cells(np.array(values).view(np.float64), int(last)), ids


def _chunk_rows(kernel_columns: int) -> int:
    """Rows per chunk: _CHUNK_FLOATS floats per kernel call over the
    float columns the kernel formats."""
    return _CHUNK_FLOATS // max(1, kernel_columns)


def _csv_rows(cols: list, tables: list, rows: slice) -> np.ndarray:
    """The CSV lines of `rows` of the columns, as a uint8 array. The
    kernel formats the float columns without a table in one call; its
    cells and the table cells of each other column, taken by the rows'
    ids, are copied once into a row buffer. The last column's cells end
    in a newline already, so only the NUL padding is dropped."""
    kernel = [k for k, tab in enumerate(tables) if tab is None]
    if kernel:
        x = np.stack([cols[k][rows] for k in kernel], axis=1).ravel()
        lines = len(kernel) if kernel[-1] == len(cols) - 1 else 0
        cells = _g17_cells(x, lines).reshape(x.size // len(kernel), -1)
        width = cells.shape[1] // len(kernel)
    widths = [width if tab is None else tab[0].shape[1] for tab in tables]
    out = np.empty((len(cols[0][rows]), sum(widths)), np.uint8)
    start = k = 0  # the bytes of a row filled and the kernel columns copied
    for tab, w in zip(tables, widths):
        if tab is None:
            out[:, start : start + w] = cells[:, k * w : (k + 1) * w]
            k += 1
        else:
            table, ids = tab
            out[:, start : start + w] = table.take(ids[rows], axis=0)
        start += w
    out = out.ravel()
    return out[out != 0]


def _write_csv(path, header: Sequence[str], columns) -> None:
    """Write equal-length columns as UTF-8 CSV rows below `header`.

    Float columns print as '%.17g' % x (the routine behind
    format(x, ".17g")), integer columns as %d and string columns as they
    are. Every integer and string column gets a table of the cells of
    its runs of equal values (_runs), and every float column of at most
    _FEW distinct values one of the cells of its values (_once), once
    per file; a row takes its cell from the table. The other float
    columns go through the vectorized kernel _g17_cells, _CHUNK_FLOATS
    floats per call, which sets the rows of a chunk (_chunk_rows). The
    last column's cells end in a newline as they are made. Each chunk is
    written as it is made, so no string holds the whole file.

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
    last = len(cols) - 1
    tables = [
        (_once if c.dtype.kind == "f" else _runs)(c, k == last) if len(c) else None
        for k, c in enumerate(cols)
    ]
    step = _chunk_rows(tables.count(None))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for i in range(0, len(cols[0]), step):
            fh.write(_csv_rows(cols, tables, slice(i, i + step)))
