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
from tqdecho.schedule import IdleParams

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tqdecho"


def _sources(names=None, exclude=()) -> list:
    """The package files `names`, default every *.py file but those in
    `exclude`."""
    if names is not None:
        return [PACKAGE / name for name in names]
    return [p for p in sorted(PACKAGE.rglob("*.py")) if p.name not in exclude]


def _hits(pattern: str, names=None, exclude=()) -> list:
    """`file:line: text` of each line of _sources(names, exclude) that
    matches `pattern`."""
    return [f"{path.name}:{n}: {line.strip()}"
            for path in _sources(names, exclude)
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
    assert _hits(r"_loop_propagators|_segment_partials|_pulse_propagators",
                 exclude=("propagate.py",)) == []


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


def test_lattice_check_points_only_in_the_package():
    # the package draws no random numbers; check points come from a
    # deterministic lattice (gates._lattice)
    assert _hits(r"random") == []
