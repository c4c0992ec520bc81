"""Design guards: each test keeps one removed structure out of the
package, by a regex over the text of its *.py files or by inspecting
what it exports. A failure names the lines that brought it back."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import tqdecho
import tqdecho.cli
from tqdecho.fields import _Loop
from tqdecho.schedule import IdleParams, _HalfTurn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tqdecho"


def _sources(names=None, exclude=(), root=PACKAGE) -> list:
    """The files `names` of `root`, default every *.py file but those in
    `exclude`."""
    if names is not None:
        return [root / name for name in names]
    return [p for p in sorted(root.rglob("*.py")) if p.name not in exclude]


def _hits(pattern: str, names=None, exclude=(), root=PACKAGE) -> list:
    """`file:line: text` of each line of _sources(names, exclude, root)
    that matches `pattern`."""
    return [f"{path.name}:{n}: {line.strip()}"
            for path in _sources(names, exclude, root)
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


def test_block_fields_only_in_the_package():
    # src/tqdecho builds no dense generator and runs no eigendecomposition
    assert _hits(r"np\.kron|linalg\.eigh|expm_hermitian|generator_batch|root_generator"
                 r"|reduced_model_deviation") == []


def test_segment_parameters_read_by_field_only():
    # a segment wraps no record: the drive records are the segments
    assert _hits(r"\.params\b|class Segment\b") == []


def test_one_propagation_path_in_the_package():
    # the segment kernels are named in propagate.py only; everything else
    # propagates through the schedule walk
    assert _hits(r"_loop_propagators|_segment_partials", exclude=("propagate.py",)) == []


def _subclasses(base) -> list:
    """The package's subclasses of `base`, at any depth (tests may define
    their own)."""
    subs = [c for sub in base.__subclasses__() for c in [sub] + _subclasses(sub)]
    return [c for c in subs if c.__module__.startswith("tqdecho.")]


def test_every_driven_record_is_in_block_form():
    # the control flip is in block form in its control's y basis, so it
    # has no kernel or expectation of its own, and the walk and the phase
    # layer read each record's attributes, never the flip's class; its
    # control frame is written out by its entries (np.kron is kept out by
    # test_block_fields_only_in_the_package)
    assert _hits(r"_flip_propagators|_pulse_expectation") == []
    assert _hits(r"\bFlipParams\b", ("propagate.py", "phases.py")) == []
    records = _subclasses(_Loop) + _subclasses(_HalfTurn)
    assert {c.__name__ for c in records} == {
        "LoopParams", "RootLoopParams", "TwoQubitParams", "ExpLoopParams",
        "PulseParams", "FlipParams",
    }
    for record in records:
        for name in ("block_fields", "axis", "_frame_rate", "_control_frame"):
            assert hasattr(record, name), (record.__name__, name)
    assert [c.__name__ for c in records + [IdleParams] if c._control_frame is not None] == [
        "FlipParams"
    ]


def test_no_pulse_axis_tables():
    # a y pulse is a block-form record that states its frame axis; no
    # record holds indices into PAULI, and no kernel reads them
    assert _hits(r"\baxes\b|_AXES|PAULI\[", ("schedule.py", "fields.py", "propagate.py")) == []


def test_one_frame_per_loop_record():
    # a loop's frame is read from its record (orientation, axis, cones()),
    # never rebuilt from a rotation angle
    assert _hits(r"\.rotation\b",
                 ("propagate.py", "phases.py", "gates.py", "acceptance.py")) == []
    assert _hits(r"theta_tilde|_rotation_y|_spin_rotation_y|_cond_eigvecs",
                 ("phases.py",)) == []


def test_one_class_per_loop():
    # a loop's parameter class is its record and holds its rotation, so no
    # second class and no rotation argument on the loop builders
    assert _hits(r"LoopSegmentParams|_LoopRecord|\b_Conditional\b") == []
    turned = re.compile(r"def (loop_segment|loop_eigenvector)\([^)]*\brotation\b")
    assert [p.name for p in _sources() if turned.search(p.read_text(encoding="utf-8"))] == []


def test_one_class_per_two_qubit_loop():
    # TwoQubitParams is the two-qubit record, and the echo builders, not
    # the record, take the pulse rate omega_pi
    assert _hits(r"ConditionalLoopParams") == []
    assert _hits(r"omega_pi", ("fields.py",)) == []


def test_one_segment_per_record():
    # schedules have no entry point beside their records, and the echo's
    # segments are the records it was built from
    assert _hits(r"schedule_(to|from)_json") == []
    assert _hits(r"def to_dict", ("schedule.py",)) == []
    modules = [tqdecho] + [importlib.import_module(f"tqdecho.{m.name}")
                           for m in pkgutil.iter_modules(tqdecho.__path__)]
    assert [m.__name__ for m in modules if hasattr(m, "Segment")] == []
    p = tqdecho.LoopParams(theta=1.0, omega=0.5)
    assert tqdecho.build_echo_sequence(p).segments[0] is p


def test_no_option_without_a_caller():
    # the exp loop always carries its frame term, FlipParams is the pi-II
    # pulse, echoes take no gaps (an idle is an IdleParams record), and
    # local times come from each segment's own grid
    assert _hits(r'frame_term|"II"') == []
    assert _hits(r"\bgaps\b|\.boundaries\b") == []
    signatures = {
        tqdecho.build_echo_sequence: ["p", "omega_pi"],
        tqdecho.build_two_qubit_sequence: ["p", "omega_pi"],
        tqdecho.build_exp_two_qubit_sequence: ["p"],
        tqdecho.universality_check: ["g1", "g2"],
        tqdecho.correction_energy_check: ["p"],
    }
    assert {f.__name__: list(inspect.signature(f).parameters) for f in signatures} == {
        f.__name__: names for f, names in signatures.items()
    }
    two = tqdecho.build_two_qubit_sequence(tqdecho.TwoQubitParams(1.0, 1.0, 0.5))
    assert len(two.segments) == 8
    assert len(tqdecho.build_echo_sequence(tqdecho.LoopParams(1.0, 0.5)).segments) == 4
    # every segment lasts some time
    with pytest.raises(ValueError):
        IdleParams(2, 0.0)


def test_one_segment_table_per_trajectory():
    # the builder hands a trajectory its row slices and local times, and
    # dataclasses.replace carries them over; nothing derives them again
    # from the segment index
    assert "__post_init__" not in vars(tqdecho.Trajectory)
    assert _hits(r"searchsorted", ("propagate.py",)) == []


def test_lattice_check_points_only_in_the_package():
    # the package draws no random numbers; check points come from a
    # deterministic lattice (gates._lattice)
    assert _hits(r"random") == []


def test_one_spelling_per_capability():
    # the field rows are field_timeline's, the universality bound is
    # criterion 5's, the two-qubit eigenvectors are eigenbasis_matrix
    # columns, the final state is states[-1], and --substeps alone selects
    # the CLI's oracle
    restated = r"\b(field_batch|formula_consistent|two_qubit_eigenvector|final_state)\b"
    assert _hits(restated) + _hits(restated, root=ROOT / "demos") == []
    assert [kind for kind, schema in tqdecho.cli._SCHEMAS.items() if "substeps" in schema] == []
