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

import tqdecho.schedule
from tqdecho.cli import main
from tqdecho.fields import LoopParams, TwoQubitParams
from tqdecho.phases import evolve_eigenstate, tracking_fidelity
from tqdecho.propagate import propagate_schedule, trajectory_to_csv
from tqdecho.schedule import (
    _CSV_CHUNK,
    _KERNEL_MIN,
    SegmentSchedule,
    _g17_cells,
    _scaled,
    _write_csv,
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


def test_trajectory_csv_bytes_across_chunks(tmp_path):
    traj = propagate_schedule(
        single_loop_schedule(P), initial_state=np.array([1.0, 0.0]),
        samples=2 * _CSV_CHUNK + 37,
    )
    n = len(traj.times)
    assert n > _CSV_CHUNK and n % _CSV_CHUNK != 0
    extra = _extras(n)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, extra)
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
    real = tqdecho.schedule._one_by_one

    def recording(v):
        declined.extend(v.tolist())
        return real(v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tqdecho.schedule, "_one_by_one", recording)
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

@pytest.mark.parametrize("rows", [1, 5, _KERNEL_MIN, _CSV_CHUNK, 2 * _CSV_CHUNK + 37])
def test_mixed_columns_across_chunks(tmp_path, rows):
    # float, integer and label columns in one file, in rows that end a
    # chunk exactly, cross chunk boundaries and leave a last chunk below
    # the kernel's block size
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


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n", "\0"])
def test_csv_rejects_a_column_name_that_breaks_the_csv(tmp_path, bad):
    traj = _trajectories()["dim2"]
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="column name"):
        trajectory_to_csv(traj, path, {f"extra{bad}x": np.zeros(len(traj.times))})
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
