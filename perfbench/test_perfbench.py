"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import benchenv

benchenv.prepare()

import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tqdecho as tq  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
SEEDED = [name for name in workloads.WORKLOADS if name != "acceptance"]


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_every_workload_and_metric():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert _declared("per_layer") == {k: u for k, (u, _) in metrics.PER_LAYER.items()}
    assert "setup_s" in _declared("end_to_end")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(name, tmp_path):
    """One input, one pass, traced and untraced: every declared metric appears
    with the declared unit."""
    w = workloads.WORKLOADS[name]
    pool = w.inputs(1)[:1]
    ctx = workloads.OpContext(workdir=tmp_path)
    plain, _, _ = run.run_passes(w, pool, ctx, 0.0)
    tracer = Tracer()
    traced, untraced, _ = run.run_passes(w, pool, ctx, 0.0, tracer)
    assert all(r.outcome.passed for r in plain + traced + untraced)

    e2e = metrics.end_to_end(plain, 0.1, 1.0)
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")
    layers = metrics.per_layer(traced, untraced, tracer.spans)
    assert {k: u for k, (_, u) in layers.items()} == _declared("per_layer")
    assert all(isinstance(v, (int, float)) for v, _ in {**e2e, **layers}.values())


def test_traced_counts_repeat_exactly(tmp_path):
    w = workloads.WORKLOADS["cli-export"]
    pool = w.inputs(3)[:5]
    ctx = workloads.OpContext(workdir=tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        traced, untraced, _ = run.run_passes(w, pool, ctx, 0.0, tracer)
        layers = metrics.per_layer(traced, untraced, tracer.spans)
        counts.append({k: v for k, (v, u) in layers.items() if "/pass" in u})
    assert counts[0] == counts[1]
    assert counts[0]["propagate.substeps"] > 0
    assert counts[0]["cli.bytes"] > 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_counts_out_of_bound_value_as_failure():
    def op():
        return [oracle.Check("leakage", "gates", 2e-6, oracle.LEAKAGE)], {}

    outcome, _ = oracle.judge(op)
    assert not outcome.passed
    assert outcome.wrong
    assert outcome.margin("gates") == pytest.approx(2.0)


def test_oracle_counts_nan_as_failure():
    outcome, _ = oracle.judge(lambda: ([oracle.Check("x", "phases", float("nan"), 1.0)], {}))
    assert not outcome.passed


def test_oracle_counts_raised_exception_as_failure_not_wrong_output():
    def op():
        raise RuntimeError("step budget exhausted: test")

    outcome, extra = oracle.judge(op)
    assert not outcome.passed
    assert not outcome.wrong
    assert outcome.error.startswith("RuntimeError: step budget exhausted")
    assert extra is None


def test_echo_op_fails_on_wrong_phase_and_on_exception(monkeypatch, tmp_path):
    ctx = workloads.OpContext(workdir=tmp_path)
    inp = workloads.WORKLOADS["echo-default"].warmup
    outcome, _ = oracle.judge(workloads.echo_op, inp, ctx)
    assert outcome.passed

    real = tq.echo_phase_decomposition

    def skewed(traj, label):
        dec = real(traj, label)
        return type(dec)(dec.label, dec.total, dec.dynamical, dec.geometric + 1e-4,
                         dec.expected_geometric, dec.expected_dynamical)

    monkeypatch.setattr(tq, "echo_phase_decomposition", skewed)
    outcome, _ = oracle.judge(workloads.echo_op, inp, ctx)
    assert outcome.wrong
    assert [c.name for c in outcome.checks if not c.passed] == ["geometric_deviation"]

    def broken(*args, **kwargs):
        raise ValueError("broken propagator")

    monkeypatch.setattr(tq, "evolve_eigenstate", broken)
    outcome, _ = oracle.judge(workloads.echo_op, inp, ctx)
    assert not outcome.passed and outcome.error == "ValueError: broken propagator"


def test_failed_op_misses_every_latency_percentile():
    ok = metrics.OpRecord(0, 0, 0, 5.0, oracle.Outcome())
    bad = metrics.OpRecord(1, 0, 1, 1.0, oracle.Outcome(error="RuntimeError: x"))
    assert metrics.op_p50_ms([ok, bad, bad]) == float("inf")
    assert metrics.op_mean_ms([ok, bad]) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_echo_inputs_stay_in_the_draw_box():
    for seed in range(20):
        for inp in workloads.echo_inputs(seed):
            assert 0.1 <= inp["theta"] < 3.1415926 - 0.1
            assert 0.1 <= abs(inp["omega"]) <= 10.0
            assert inp["label"] in (0, 1)


def test_acceptance_inputs_ignore_the_seed():
    assert workloads.acceptance_inputs(1) == workloads.acceptance_inputs(2) == [{}]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_nested_spans_of_one_layer_count_once_and_threads_find_their_parent():
    tracer = Tracer(targets=())
    inner = tracer.wrap(lambda: None, "propagate")
    outer = tracer.wrap(inner, "propagate")
    with tracer.span("op", 0), tracer.span("cli.scan"):
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = [(sp.name, sp.nested) for sp in tracer.spans]
    assert by_name == [("op", False), ("cli.scan", False), ("propagate", False),
                       ("propagate", True), ("propagate", False)]
    scan = tracer.spans[1]
    assert tracer.spans[-1].parent == scan.span_id
    assert all(sp.op_id == 0 for sp in tracer.spans)


def test_tracer_restores_every_patched_function():
    before = (tq.evolve_eigenstate, tq.phases.evolve_eigenstate, tq.cli.evolve_eigenstate)
    tracer = Tracer()
    with tracer.installed():
        assert tq.cli.evolve_eigenstate is not before[2]
    assert (tq.evolve_eigenstate, tq.phases.evolve_eigenstate,
            tq.cli.evolve_eigenstate) == before


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_run_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
