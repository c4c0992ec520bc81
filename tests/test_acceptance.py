"""Acceptance gate: each numbered criterion runs at its pinned tolerances
and must pass on its own pytest line; the criteria share their work."""
import numpy as np
import pytest

import tqdecho.acceptance
import tqdecho.phases
import tqdecho.propagate
from tqdecho.acceptance import CRITERIA, run_criterion
from tqdecho.gates import SingleGateSpec, universality_check

ORACLE_FAMILIES = ("rotated_echo", "root_loops", "two_qubit_echo", "exp_echo")


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1))
def test_criterion(index):
    result = run_criterion(index)
    print(result.line)
    detail = "; ".join(
        f"{c.name}={c.value:.3e} (bound {c.bound:.0e})" for c in result.checks
    )
    assert result.passed, f"{result.line}\n{detail}"


@pytest.mark.parametrize("index", [True, 2.0, "1", 0, 3], ids=repr)
def test_run_criterion_takes_an_integer_index_in_range(monkeypatch, index):
    monkeypatch.setattr(tqdecho.acceptance, "CRITERIA", (lambda: "first", lambda: "second"))
    assert run_criterion(np.int64(2)) == "second"
    with pytest.raises(ValueError, match=r"criterion index must be 1\.\.2"):
        run_criterion(index)


def test_physics_criteria_never_run_the_magnus_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("Magnus oracle ran")

    monkeypatch.setattr(tqdecho.propagate, "_segment_partials", oracle)
    for index in range(1, 8):
        result = run_criterion(index)
        assert result.passed, result.line
        assert result.notes["propagation"] == "exact"


def test_criterion_8_covers_every_schedule_family():
    result = run_criterion(8)
    names = {c.name for c in result.checks}
    for family in ORACLE_FAMILIES:
        assert f"convergence_order_offset_{family}" in names
        assert f"exact_oracle_agreement_{family}" in names
    assert set(result.notes["propagation"]) == set(ORACLE_FAMILIES)
    assert set(result.notes["observed_order"]) == set(ORACLE_FAMILIES)
    assert {"unitarity_defect", "rerun_byte_difference", "exact_rerun_byte_difference"} <= names


@pytest.mark.parametrize("index, calls", [(1, 16), (2, 8), (3, 1), (4, 6)])
def test_loop_criteria_propagate_each_loop_once(index, calls, monkeypatch):
    # criterion 1 runs 12 corrected loops and 4 uncorrected ones,
    # criterion 2 runs 8 loops, criterion 3 one loop and criterion 4 the
    # six distinct loops of its four echoes; each criterion hands its
    # loops to one stacked kernel call, and each label reuses its loop's
    # propagators
    batches = []
    real = tqdecho.propagate._loop_propagators

    def counting(segs, ts):
        batches.append(segs)
        return real(segs, ts)

    monkeypatch.setattr(tqdecho.propagate, "_loop_propagators", counting)
    assert run_criterion(index).passed
    assert [len(segs) for segs in batches] == [calls]
    assert len(set(batches[0])) == calls


def test_generic_echo_variant_sees_a_pulse_over_rotation(monkeypatch):
    # at theta = pi/3 the echo gate is -1, and at omega = omega0 the
    # reversed loop cancels any pulse angle, so a 1 % pi-pulse
    # over-rotation leaves the base variant at rounding; the generic
    # variant (theta = pi/4, omega = 0.7) must fail on it
    real = tqdecho.propagate._pulse_propagators
    monkeypatch.setattr(
        tqdecho.propagate, "_pulse_propagators", lambda seg, ts: real(seg, ts * 1.01)
    )
    checks = {c.name: c for c in run_criterion(4).checks}
    assert checks["echo_gate_distance_base"].passed
    generic = checks["echo_gate_distance_generic"]
    assert not generic.passed and generic.value > 1e-4


def _lattice_witness_draws():
    """Criterion 5's 100 gate pairs, rows (axis1, angle1, axis2, angle2),
    from the Kronecker lattice frac(0.5 + k * phi**-(j+1)), k = 1..100,
    with phi the root of x**5 = x + 1 found by bisection."""
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid**5 < mid + 1.0 else (lo, mid)
    alpha = lo ** -np.arange(1.0, 5.0)
    unit = np.array([[(0.5 + k * a) % 1.0 for a in alpha] for k in range(1, 101)])
    return np.array([-np.pi, 0.0, -np.pi, 0.0]) + 2.0 * np.pi * unit


def test_witness_draws_are_the_kronecker_lattice(monkeypatch):
    seen = []
    real = tqdecho.acceptance._witness

    def recording(*columns):
        seen.append(np.stack(columns, axis=1))
        return real(*columns)

    monkeypatch.setattr(tqdecho.acceptance, "_witness", recording)
    result = run_criterion(5)
    assert result.passed
    assert result.notes["generating_pairs"] == "100/100"
    assert len(seen) == 1
    # k * alpha carries the root's last-bit rounding at most 100-fold
    assert np.max(np.abs(seen[0] - _lattice_witness_draws())) <= 1e-12


def test_universality_check_is_the_array_formula_pair_by_pair():
    from tqdecho.gates import _witness

    pairs = _lattice_witness_draws()
    w, norm, predicted = _witness(*pairs.T)
    for k, (a1, o1, a2, o2) in enumerate(pairs):
        rep = universality_check(SingleGateSpec(a1, o1), SingleGateSpec(a2, o2))
        assert (rep.witness, rep.commutator_norm, rep.predicted_norm) == (
            w[k], norm[k], predicted[k]
        )
