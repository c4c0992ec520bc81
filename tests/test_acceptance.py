"""Acceptance gate: each numbered criterion runs at its pinned tolerances
and must pass on its own pytest line; the criteria share their work."""
import numpy as np
import pytest

import tqdecho.acceptance
import tqdecho.phases
import tqdecho.propagate
from tqdecho.acceptance import _SEED, CRITERIA, run_criterion
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


def test_physics_criteria_never_run_the_midpoint_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("midpoint oracle ran")

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
        assert f"exact_midpoint_agreement_{family}" in names
    assert set(result.notes["propagation"]) == set(ORACLE_FAMILIES)
    assert set(result.notes["observed_order"]) == set(ORACLE_FAMILIES)
    assert {"unitarity_defect", "rerun_byte_difference", "exact_rerun_byte_difference"} <= names


@pytest.mark.parametrize("index, calls", [(1, 16), (2, 8)])
def test_loop_criteria_propagate_each_loop_once(index, calls, monkeypatch):
    # criterion 1 runs 12 corrected loops and 4 uncorrected ones,
    # criterion 2 runs 8 loops; each label reuses its loop's propagators
    seen = []
    real = tqdecho.propagate.propagate_schedule

    def counting(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tqdecho.phases, "propagate_schedule", counting)
    monkeypatch.setattr(tqdecho.acceptance, "propagate_schedule", counting)
    assert run_criterion(index).passed
    assert len(seen) == calls


def _scalar_witness_draws():
    """The 100 gate pairs drawn one scalar at a time from criterion 5's
    seed, as rows (axis1, angle1, axis2, angle2)."""
    rng = np.random.default_rng(_SEED)
    return np.array([
        [rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 2 * np.pi),
         rng.uniform(-np.pi, np.pi), rng.uniform(0.0, 2 * np.pi)]
        for _ in range(100)
    ])


def test_witness_draws_match_the_scalar_stream(monkeypatch):
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
    assert seen[0].tobytes() == _scalar_witness_draws().tobytes()


def test_universality_check_is_the_array_formula_pair_by_pair():
    from tqdecho.gates import _witness

    pairs = _scalar_witness_draws()
    w, norm, predicted = _witness(*pairs.T)
    for k, (a1, o1, a2, o2) in enumerate(pairs):
        rep = universality_check(SingleGateSpec(a1, o1), SingleGateSpec(a2, o2))
        assert (rep.witness, rep.commutator_norm, rep.predicted_norm) == (
            w[k], norm[k], predicted[k]
        )
