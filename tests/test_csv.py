"""CSV artifacts are pinned byte for byte to a per-cell reference writer:
every float cell is format(float(v), ".17g"), the segment index is
str(int(i)), and the label is written as it is, in UTF-8. The vectorized
'%.17g' kernel behind the writer is checked cell by cell over all of
float64."""
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tqdecho.csvfile
from tqdecho.cli import main
from tqdecho.csvfile import (
    _FEW,
    _KERNEL_MIN,
    _chunk_rows,
    _g17_cells,
    _once,
    _runs,
    _scaled,
    _write_csv,
)
from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.phases import evolve_eigenstate, tracking_fidelity
from tqdecho.propagate import propagate_schedule, trajectory_to_csv
from tqdecho.schedule import (
    SegmentSchedule,
    build_echo_sequence,
    build_two_qubit_sequence,
    field_timeline,
    rotate_schedule,
    single_loop_schedule,
    write_field_timeline_csv,
)

from echoes import gapped_echo

P = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)
P2 = TwoQubitParams(omega_i=1.3, coupling=1.0, omega=0.5)
SPECIAL = [
    -0.0, 5e-324, 1e-300, 1e17, 123456789012345678.0, 3.0, -42.0, 0.1, 1.0 / 3.0,
]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    return "".join(line + "\n" for line in lines).encode()


def _reference_trajectory(traj, extra) -> bytes:
    header = ["t", "segment", "label"]
    if traj.states is not None:
        for k in range(traj.schedule.dim):
            header += [f"re_psi{k}", f"im_psi{k}"]
    header += list(extra)
    labels = traj.schedule.labels()
    rows = []
    for row in range(len(traj.times)):
        cells = [
            _fmt(traj.times[row]),
            str(int(traj.segment_index[row])),
            labels[traj.segment_index[row]],
        ]
        if traj.states is not None:
            for amp in traj.states[row]:
                cells += [_fmt(amp.real), _fmt(amp.imag)]
        cells += [_fmt(extra[name][row]) for name in extra]
        rows.append(cells)
    return _reference(header, rows)


def _extras(n: int) -> dict:
    special = np.resize(np.array(SPECIAL), n)
    return {
        "special": special,
        "negated": -special,
        "count": np.arange(n, dtype=np.int64) * 123456789012345,
        "flag": np.arange(n) % 3 == 0,
    }


def _trajectories():
    echo = build_echo_sequence(P)
    two = build_two_qubit_sequence(P2)
    return {
        "dim2": propagate_schedule(echo, samples=24),
        "dim2-state": propagate_schedule(
            echo, initial_state=np.array([0.6, 0.8j]), samples=24
        ),
        "dim4": propagate_schedule(two, samples=12),
        "dim4-state": propagate_schedule(
            two, initial_state=np.array([0.5, 0.5, 0.5j, -0.5]), samples=12
        ),
    }


@pytest.mark.parametrize("case", ["dim2", "dim2-state", "dim4", "dim4-state"])
@pytest.mark.parametrize("with_extra", [False, True])
def test_trajectory_csv_bytes(tmp_path, case, with_extra):
    traj = _trajectories()[case]
    extra = _extras(len(traj.times)) if with_extra else {}
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
    assert path.read_bytes() == _reference_trajectory(traj, extra)


def _chunks(monkeypatch) -> list:
    """The row slices the writer formats, recorded as it calls _csv_rows."""
    seen, real = [], tqdecho.csvfile._csv_rows

    def recording(cols, tables, rows):
        seen.append(range(*rows.indices(len(cols[0]))))
        return real(cols, tables, rows)

    monkeypatch.setattr(tqdecho.csvfile, "_csv_rows", recording)
    return seen


def test_trajectory_csv_bytes_across_chunks(tmp_path, monkeypatch):
    # the kernel formats t, the four amplitude parts and `count`; the
    # segment and the label are tabled by their runs and the few-valued
    # extras by their values, once per file
    step = _chunk_rows(6)
    traj = propagate_schedule(
        single_loop_schedule(P), initial_state=np.array([1.0, 0.0]), samples=2 * step + 37,
    )
    n = len(traj.times)
    extra = _extras(n)
    chunks = _chunks(monkeypatch)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
    assert [len(c) for c in chunks] == [step, step, n - 2 * step] and n - 2 * step < step
    assert path.read_bytes() == _reference_trajectory(traj, extra)


def test_field_timeline_csv_bytes(tmp_path):
    sched = rotate_schedule(gapped_echo(P, (0.25, 0.0, 1.5)), 0.7)
    assert [seg.duration for seg in sched.segments if seg.kind == "idle"] == [0.25, 1.5]
    path = tmp_path / "timeline.csv"
    write_field_timeline_csv(path, sched, samples_per_segment=9)
    data = field_timeline(sched, 9)
    expected = _reference(["t", "Bx", "By", "Bz"], [map(_fmt, row) for row in data])
    assert path.read_bytes() == expected


def test_cli_fields_csv_bytes(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"theta": 1.1, "omega": -0.4, "omega0": 1.3, "samples": 700}))
    out = tmp_path / "out"
    assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
    data = field_timeline(single_loop_schedule(LoopParams(1.1, -0.4, 1.3)), 700)
    mag = np.linalg.norm(data[:, 1:], axis=1)
    rows = [[_fmt(v) for v in (*row, m)] for row, m in zip(data, mag)]
    expected = _reference(["t", "Bx", "By", "Bz", "Bmag"], rows)
    assert (out / "fields.csv").read_bytes() == expected


def test_cli_echo_trajectory_csv_bytes(tmp_path):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"theta": 1.1, "omega": -0.4, "omega0": 1.3, "label": 1,
                               "samples": 90}))
    out = tmp_path / "out"
    assert main(["echo", "--config", str(cfg), "--out", str(out)]) == 0
    traj = evolve_eigenstate(build_echo_sequence(LoopParams(1.1, -0.4, 1.3)), 1, samples=90)
    expected = _reference_trajectory(traj, {"fidelity": tracking_fidelity(traj, 1)})
    assert (out / "trajectory.csv").read_bytes() == expected


def test_cli_scan_csv_bytes(tmp_path):
    ratios = [0.2, 1.0, 5.0, 1.0 / 3.0]
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"theta": 1.1, "omega0": 1.0, "ratios": ratios}))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    # the scan propagates every point in one walk; each row must match
    # the point's loops propagated on their own
    rows = []
    for r in ratios:
        p = LoopParams(1.1, r, 1.0)
        fids = [
            tracking_fidelity(evolve_eigenstate(single_loop_schedule(p, c), 0, samples=64), 0)
            for c in (True, False)
        ]
        rows.append([_fmt(r), *(_fmt(f.min()) for f in fids)])
    header = ["ratio", "min_fidelity_corrected", "min_fidelity_uncorrected"]
    assert (out / "scan.csv").read_bytes() == _reference(header, rows)
    notes = json.loads((out / "summary.json").read_text())["notes"]
    assert sorted(notes["uncorrected_min_fidelities"]) == sorted(map(_fmt, ratios))


# the '%.17g' kernel ----------------------------------------------------------

def _cell_texts(cells) -> list:
    """The text of each row of _g17_cells: NULs dropped, comma stripped."""
    texts = [row[row != 0].tobytes().decode() for row in cells]
    assert all(t.endswith(",") for t in texts)
    return [t[:-1] for t in texts]


def _assert_kernel_matches(values, declines=None):
    """The kernel's cells equal format(v, ".17g"); with declines given,
    exactly that many values went to the per-cell route."""
    x = np.asarray(values, dtype=np.float64)
    assert x.size >= _KERNEL_MIN  # the vectorized path, not the per-cell one
    declined = []
    real = tqdecho.csvfile._one_by_one

    def recording(v):
        declined.extend(v.tolist())
        return real(v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tqdecho.csvfile, "_one_by_one", recording)
        got = _cell_texts(_g17_cells(x))
    expected = [_fmt(v) for v in x.tolist()]
    wrong = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:5]
    if declines is not None:
        assert len(declined) == declines, declined[:5]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
@example([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308])
@example([1.7976931348623157e308, -1.7976931348623157e308, 1e-250, 1e250, 9.999999999999999e249])
@example([1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5, 1e-4, 1e-5, 0.5, 5e-324])
def test_kernel_matches_format_over_all_float64(values):
    # repeated up to a full kernel block, so each drawn value is formatted
    # by the vectorized path
    _assert_kernel_matches(np.resize(np.array(values), max(_KERNEL_MIN, len(values))))


def test_kernel_matches_format_on_raw_bit_patterns_of_every_exponent():
    # 2048 biased exponents x 2 signs x 25 mantissas: the mantissa
    # extremes 0, 1 and 2**52 - 1, and 22 drawn at a fixed seed
    rng = np.random.default_rng(17)
    mantissa = np.concatenate([[0, 1, 2**52 - 1], rng.integers(0, 2**52, 22)]).astype(np.uint64)
    exponent = np.arange(2048, dtype=np.uint64)
    bits = (exponent[:, None, None] << np.uint64(52)) | mantissa[None, None, :]
    bits = bits | (np.array([0, 1], dtype=np.uint64)[None, :, None] << np.uint64(63))
    x = bits.ravel().view(np.float64)
    assert x.size >= 100_000
    _assert_kernel_matches(x)


def test_kernel_matches_format_at_powers_of_ten():
    # the doubles nearest 10**m and their neighbours cover the exponent
    # correction where log10 misses by one and the carry where 17 digits
    # round up to the next power (1e-14, 1e98 and eleven more lie within
    # 5e-18 below their power); the kernel declines only the exact tie
    # 999999999999999.875, once per sign
    powers = np.array([float(f"1e{m}") for m in range(-249, 250)])
    x = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    _assert_kernel_matches(np.concatenate([x, -x]), declines=2)


def test_kernel_declines_only_what_it_cannot_place():
    # zeros are formatted by the kernel; non-finite values and
    # magnitudes outside [1e-250, 1e250) go to '%.17g' one by one
    normal = np.linspace(-1e3, 1e3, _KERNEL_MIN)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 9e-251, 1e250, 1.7976931348623157e308]
    _assert_kernel_matches(np.concatenate([normal, special]), declines=len(special) - 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.floats(min_value=1e-250, max_value=9.999999999999999e249))
def test_scaled_digits_are_exact_to_far_below_the_tie_margin(v):
    # the kernel's 17 digits N and remainder f against exact rational
    # arithmetic: f is accurate to 1e-12, far inside the 1e-6 margin
    # around ties that the kernel declines
    X = int(np.floor(np.log10(v)))
    N, f = _scaled(np.array([v]), np.array([X]))
    exact = Fraction(v) * Fraction(10) ** (16 - X)
    assert abs((exact - int(N[0])) - Fraction(float(f[0]))) < Fraction(1, 10**12)


def _exact_ties() -> list:
    """Floats whose exact decimal value has 18 significant digits, the
    last a 5, which '%.17g' must round half to even: k * 2**-n with k
    odd is k * 5**n * 10**-n, a tie when k * 5**n has 18 digits."""
    ties = []
    for n in (4, 14, 20, 24, 25):
        lo = -(-10**17 // 5**n) | 1
        for k in range(lo, min(lo + 2000, 10**18 // 5**n), 250):
            assert len(str(k * 5**n)) == 18 and k % 2
            ties += [k * 2.0**-n, -k * 2.0**-n]
    return ties


def test_kernel_rounds_exact_ties_half_to_even():
    # the kernel declines roundings within 1e-6 of a tie and leaves them
    # to '%.17g', so both directions of half-to-even must come out
    ties = _exact_ties()
    assert len(ties) >= 30
    last = {_fmt(abs(v)).split("e")[0][-1] for v in ties}
    assert len(last) > 1  # ties rounded down and up
    near = np.concatenate([np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf)])
    _assert_kernel_matches(np.resize(near, max(_KERNEL_MIN, near.size)))


# the writer: chunks and column mixes ---------------------------------------

@pytest.mark.parametrize(
    "rows",
    # 1536 and 3109 are one chunk and two chunks plus 37 rows at 3072
    # floats a chunk, kept beside the rows of the current chunk size
    sorted({1, 5, _KERNEL_MIN, 512, 1061, 1536, 3109, _chunk_rows(2), 2 * _chunk_rows(2) + 37}),
)
def test_mixed_columns_across_chunks(tmp_path, rows):
    # float, integer and label columns in one file, in rows that fill
    # part of a chunk, end a chunk exactly, cross chunk boundaries and
    # leave a last chunk below the kernel's block size; the kernel
    # formats the two ramps, the last of them with its newline, the 14
    # special values are formatted once, and the integer and label
    # columns by their runs, once per file
    special = np.resize(np.array(SPECIAL + [np.inf, -np.inf, np.nan, 1e-280, 3e300]), rows)
    ramp = np.linspace(-3.0, 7.0, rows)
    index = np.arange(rows) // 7 - 2
    labels = np.array(["loop-C", "pi", "Schleife-Ω", "idle"])[np.arange(rows) // 5 % 4]
    header = ["t", "segment", "label", "special", "ramp"]
    path = tmp_path / "mixed.csv"
    _write_csv(path, header, [ramp / 3.0, index, labels, special, ramp])
    rows_text = [
        [_fmt(t / 3.0), str(int(i)), lab, _fmt(v), _fmt(t)]
        for t, i, lab, v in zip(ramp, index, labels, special)
    ]
    assert path.read_bytes() == _reference(header, rows_text)


def _bits(*patterns) -> list:
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


def test_few_valued_columns_across_chunks(tmp_path, monkeypatch):
    # columns formatted once per file, each distinct bit pattern once,
    # beside kernel columns, in rows that cross two chunk boundaries
    step = _chunk_rows(3)  # the kernel formats t, `above` and `spread`
    n = 2 * step + 37
    k = np.arange(n)
    nans = _bits(0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000002)
    declined = _exact_ties()[:8] + [1e-300, -5e-324, 9e-251]
    cols = {
        "t": np.linspace(0.0, 9.0, n),
        "constant": np.full(n, 1.0 / 3.0),
        "zeros": np.array([0.0, -0.0, 0.0, 1.0, -0.0])[k % 5],
        "nans": np.array(nans + [np.inf, -np.inf])[k * 7 % 6],
        "declined": np.array(declined)[k % len(declined)],
        "at": 0.1 * (k * 5 % _FEW) - 2.0,  # _FEW distinct values
        "above": 0.1 * (k * 7 % (_FEW + 1)) - 2.0,  # one more
        "spread": np.where(k % 4 == 0, np.array(declined)[k % len(declined)], k / 7.0),
        "label": np.array(["loop-C", "pi", "idle"])[k // 100 % 3],
        "segment": k // 3,  # tabled by its runs, like the label
    }
    assert {name: _once(c) is None for name, c in cols.items() if c.dtype.kind == "f"} == {
        "t": True, "constant": False, "zeros": False, "nans": False, "declined": False,
        "at": False, "above": True, "spread": True,
    }
    chunks = _chunks(monkeypatch)
    path = tmp_path / "few.csv"
    _write_csv(path, list(cols), list(cols.values()))
    assert [len(c) for c in chunks] == [step, step, 37]
    rows = [
        [str(v) if c.dtype.kind in "iU" else _fmt(v) for c, v in zip(cols.values(), row)]
        for row in zip(*[c.tolist() for c in cols.values()])
    ]
    assert path.read_bytes() == _reference(list(cols), rows)


@pytest.mark.parametrize("others", [["t"], []], ids=["t-and-last", "last-alone"])
@pytest.mark.parametrize("tail", [37, 200], ids=["per-cell-tail", "kernel-tail"])
def test_kernel_last_column_across_chunks(tmp_path, monkeypatch, others, tail):
    # the last column is one the kernel formats: each of its cells ends
    # in the newline, those the kernel declines and formats one by one
    # too, in chunks before and after two boundaries and in a last chunk
    # below the kernel's block (37 rows) or above it (200 rows)
    step = _chunk_rows(len(others) + 1)
    n = 2 * step + tail
    k = np.arange(n)
    declined = _exact_ties()[:6] + [np.nan, np.inf, -np.inf, 1e-300, -5e-324, 0.0, -0.0]
    cols = {
        "label": np.array(["loop-C", "pi", "idle"])[k // 1000 % 3],
        **{name: np.linspace(0.0, 9.0, n) for name in others},
        "last": np.where(k % 5 == 0, np.array(declined)[k % len(declined)], np.sin(k) * 3e-5),
    }
    chunks = _chunks(monkeypatch)
    path = tmp_path / "last.csv"
    _write_csv(path, list(cols), list(cols.values()))
    assert [len(c) for c in chunks] == [step, step, tail]
    rows = [
        [v if c.dtype.kind == "U" else _fmt(v) for c, v in zip(cols.values(), row)]
        for row in zip(*[c.tolist() for c in cols.values()])
    ]
    assert path.read_bytes() == _reference(list(cols), rows)


@pytest.mark.parametrize("reverse", [False, True], ids=["integer-last", "string-last"])
def test_integer_and_string_columns_by_runs(tmp_path, monkeypatch, reverse):
    # each integer and string column is tabled once per file by its runs
    # of equal values: one run, four, more than _FEW and one per row,
    # across two chunk boundaries, with the last column's cells ending
    # in the newline
    step = _chunk_rows(1)
    n = 2 * step + 37
    k = np.arange(n)
    names = np.array(["loop-C", "pi", "Schleife-Ω", "idle", "pi-II"])
    text = {
        "one": np.full(n, 7),
        "four_labels": names[np.minimum(k * 4 // n, 3)],
        "many": k // 9 - 50,
        "many_labels": names[k // 11 % 5],
        "per_row_labels": names[k % 5],
        "per_row": k * 1000003 - 10**9,
    }
    runs = {"one": 1, "four_labels": 4, "many": -(-n // 9), "many_labels": -(-n // 11),
            "per_row_labels": n, "per_row": n}
    assert {name: len(_runs(c)[0]) for name, c in text.items()} == runs
    assert min(runs["many"], runs["many_labels"]) > _FEW
    names_order = list(text)[::-1] if reverse else list(text)
    cols = {"t": np.linspace(-1.0, 1.0, n), **{name: text[name] for name in names_order}}
    chunks = _chunks(monkeypatch)
    path = tmp_path / "runs.csv"
    _write_csv(path, list(cols), list(cols.values()))
    assert [len(c) for c in chunks] == [step, step, 37]
    rows = [
        [_fmt(v) if c.dtype.kind == "f" else str(v) for c, v in zip(cols.values(), row)]
        for row in zip(*[c.tolist() for c in cols.values()])
    ]
    assert path.read_bytes() == _reference(list(cols), rows)


@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_trajectory_rows_at_a_chunk_boundary(tmp_path, monkeypatch, extra_rows):
    # a trajectory of the CLI's columns: the kernel formats t and the four
    # amplitude parts, so a chunk is _chunk_rows(5) rows; one row short of
    # it, exactly it and one row past it
    step = _chunk_rows(5)
    traj = propagate_schedule(  # a loop sampled at s points has s + 1 rows
        single_loop_schedule(P), initial_state=np.array([0.6, 0.8j]), samples=step + extra_rows - 1,
    )
    assert len(traj.times) == step + extra_rows
    extra = {"fidelity": np.resize([1.0, 0.9999999999999999, 0.99999999999999978], len(traj.times))}
    chunks = _chunks(monkeypatch)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
    assert [len(c) for c in chunks] == ([step, 1] if extra_rows > 0 else [step + extra_rows])
    assert path.read_bytes() == _reference_trajectory(traj, extra)


@pytest.mark.parametrize(
    "header, columns, match",
    [
        (["a", "b", "c"], [np.zeros(2), np.ones(2)], "header names 3 columns, but 2 are given"),
        (["a", "b"], [np.zeros(2), np.ones(2), np.ones(2)], "header names 2 columns, but 3"),
        ([], [], "needs at least one column"),
        (["a", "b"], [np.zeros(2), np.ones(3)], r"of one length, got shapes \[\(2,\), \(3,\)\]"),
        (["a"], [np.zeros((2, 2))], r"must be 1-d"),
        (["a"], [np.float64(1.0)], r"must be 1-d"),
    ],
    ids=["short-header", "long-header", "empty", "unequal", "two-d", "scalar"],
)
def test_csv_checks_its_columns_before_it_opens_the_file(tmp_path, header, columns, match):
    # a header of 3 names over 2 columns wrote a,b,c then rows of two
    # cells, and columns of unequal length raised numpy's shape error
    # after the header line was written
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=match):
        _write_csv(path, header, columns)
    assert not path.exists()


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n", "\0"])
def test_csv_rejects_a_column_name_that_breaks_the_csv(tmp_path, bad):
    traj = _trajectories()["dim2"]
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="column name"):
        trajectory_to_csv(traj, path, {f"extra{bad}x": np.zeros(len(traj.times))})
    assert not path.exists()


@pytest.mark.parametrize("name", ["t", "re_psi0"])
def test_csv_rejects_a_repeated_column_name(tmp_path, name):
    # the header read t,segment,label,re_psi0,im_psi0,re_psi1,im_psi1,t,
    # and a reader keyed by name saw one of the two columns
    traj = _trajectories()["dim2-state"]
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=f"^CSV column name '{name}' is repeated$"):
        trajectory_to_csv(traj, path, {name: np.zeros(len(traj.times))})
    with pytest.raises(ValueError, match="^CSV column name 'Bx' is repeated$"):
        _write_csv(path, ("t", "Bx", "By", "Bx"), [np.zeros(2)] * 4)
    assert not path.exists()


@pytest.mark.parametrize(
    "column, match",
    [
        (lambda n: np.ones(n, dtype=complex), "must hold bool, integer or float"),
        (lambda n: np.ones(n, dtype=str), "must hold bool, integer or float"),
        (lambda n: 1.0, "has shape"),
        (lambda n: np.ones((n, 2)), "has shape"),
        (lambda n: np.ones(n + 1), "has shape"),
    ],
    ids=["complex", "string", "scalar", "two-columns", "too-long"],
)
def test_csv_rejects_an_extra_column_that_is_not_one_real_per_sample(tmp_path, column, match):
    # a complex column lost its imaginary part with only a ComplexWarning,
    # and a scalar or 2-d column raised TypeError or numpy's shape error
    traj = _trajectories()["dim2"]
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=f"^extra column 'bad' {match}"):
        trajectory_to_csv(traj, path, {"bad": column(len(traj.times))})
    assert not path.exists()


@dataclasses.dataclass(frozen=True)
class _Schleife(LoopParams):
    """A loop record whose label is not ASCII."""

    label = property(lambda self: LoopParams.label.fget(self).replace("loop", "Schleife-Ω"))


def test_non_ascii_label_is_written_as_utf8(tmp_path):
    echo = build_echo_sequence(P)
    renamed = SegmentSchedule(tuple(
        _Schleife(seg.theta, seg.omega, seg.omega0) if isinstance(seg, LoopParams) else seg
        for seg in echo.segments
    ))
    traj = propagate_schedule(renamed, initial_state=np.array([0.6, 0.8j]), samples=24)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    assert "Schleife-Ω-C".encode() in path.read_bytes()
    assert path.read_bytes() == _reference_trajectory(traj, {})
