"""Acceptance gate: each numbered criterion runs at its pinned tolerances
and must pass on its own pytest line."""
import pytest

import tqdecho.propagate
from tqdecho.acceptance import CRITERIA, run_criterion

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
