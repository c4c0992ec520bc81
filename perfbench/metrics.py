"""End-to-end and per-layer metrics from op records and spans.

Op times of failed ops count as infinite in percentiles: a failed op
misses every latency limit. Per-layer times are medians over the ops
that reach the layer, of the op's summed non-nested spans of that layer.
Counts (substeps, samples, segments, bytes) and margins are taken over
the first pass only, so they repeat exactly for a given seed.
"""
from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from oracle import Outcome


@dataclass
class OpRecord:
    op_id: int
    pass_index: int
    input_index: int
    ms: float
    outcome: Outcome
    extra: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.ms if self.outcome.passed else math.inf


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_p50_ms(records: list) -> float:
    return statistics.median(r.latency for r in records)


def op_mean_ms(records: list) -> float:
    """Mean over the pool's inputs of each input's median op time.

    The median over repeats of one input removes timing noise; the mean
    over a pass weighs every input once, so it is the expected cost of an
    op over the draw distribution. Unlike the median over all ops, it does
    not jump between the cost levels of a heterogeneous pool when the seed
    changes. A failed op counts with the time it took to fail.
    """
    by_input = defaultdict(list)
    for r in records:
        by_input[r.input_index].append(r.ms)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def end_to_end(records: list, setup_s: float, peak_mem_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_mean_ms": (op_mean_ms(records), "ms"),
        "peak_mem_mb": (peak_mem_mb, "MB"),
    }


def report_lines(records: list) -> list:
    """The figures that are printed but not gated: op count, p90 and the
    failure ratio with its counts."""
    n = len(records)
    failed = sum(not r.outcome.passed for r in records)
    p90 = (f"{percentile([r.latency for r in records], 0.9):.4f} ms" if n >= 100
           else f"n/a ({n} ops < 100)")
    retries = sum(r.extra.get(k, 0) for r in records
                  for k in ("propagate_retries", "gates_retries", "cli_retries"))
    lines = [f"ops: {n}", f"op_p50_ms: {op_p50_ms(records):.4f} ms", f"op_p90_ms: {p90}",
             f"fail_ratio: {failed / n:.4f} ({failed} failed / {n} attempted)",
             f"retried ops: {retries}"]
    for r in records:
        if r.outcome.error:
            lines.append(f"  op {r.op_id} raised {r.outcome.error}")
        elif not r.outcome.passed:
            bad = [c.name for c in r.outcome.checks if not c.passed]
            lines.append(f"  op {r.op_id} out of bound: {', '.join(bad)}")
    return lines


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("fields", "evolve", "echo", "gate", "scan")
ACCEPTANCE_CRITERIA = range(1, 9)

# name -> (unit, better); the order here is the order printed
PER_LAYER = {
    "propagate.ms": ("ms", "lower"),
    "propagate.substeps": ("count/pass", "lower"),
    "propagate.substeps_per_s": ("1/s", "higher"),
    "propagate.samples": ("count/pass", "lower"),
    "propagate.share": ("ratio", "lower"),
    "propagate.retries": ("count/pass", "lower"),
    "phases.ms": ("ms", "lower"),
    "phases.share": ("ratio", "lower"),
    "phases.margin": ("ratio", "lower"),
    "gates.margin": ("ratio", "lower"),
    "gates.synth_ms": ("ms", "lower"),
    "gates.synth_substeps": ("count/pass", "lower"),
    "gates.expmap_ms": ("ms", "lower"),
    "gates.retries": ("count/pass", "lower"),
    "schedule.build_ms": ("ms", "lower"),
    "schedule.segments": ("count/pass", "lower"),
    **{f"cli.{c}_ms": ("ms", "lower") for c in CLI_COMMANDS},
    "cli.bytes": ("bytes/pass", "lower"),
    "cli.retries": ("count/pass", "lower"),
    **{f"acceptance.c{k}_ms": ("ms", "lower") for k in ACCEPTANCE_CRITERIA},
    "acceptance.margin": ("ratio", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def _per_op(spans: list, name: str) -> dict:
    """op id -> (summed ms, summed counts) of the non-nested spans `name`."""
    out = defaultdict(lambda: [0.0, defaultdict(int)])
    for sp in spans:
        if sp.name == name and not sp.nested:
            acc = out[sp.op_id]
            acc[0] += sp.ms
            for k, v in sp.counts.items():
                acc[1][k] += v
    return out


def per_layer(traced: list, untraced: list, spans: list) -> dict:
    """Per-layer metrics of a traced run. `traced` and `untraced` hold the
    records of the same inputs run with and without the tracer."""
    first = {r.op_id for r in traced if r.pass_index == 0}
    total_ms = sum(r.ms for r in traced)
    values = {}

    def median_ms(name: str) -> float:
        times = [ms for ms, _ in _per_op(spans, name).values()]
        return statistics.median(times) if times else 0.0

    def first_pass_count(name: str, count: str) -> int:
        return sum(c.get(count, 0) for op, (_, c) in _per_op(spans, name).items()
                   if op in first)

    def first_pass_extra(key: str) -> int:
        return sum(r.extra.get(key, 0) for r in traced if r.op_id in first)

    def share(name: str) -> float:
        busy = sum(ms for ms, _ in _per_op(spans, name).values())
        return busy / total_ms if total_ms > 0 else 0.0

    def margin(layer_name: str) -> float:
        ms = [r.outcome.margin(layer_name) for r in traced if r.op_id in first]
        ms = [m for m in ms if m is not None]
        return max(ms) if ms else 0.0

    prop = _per_op(spans, "propagate")
    prop_s = sum(ms for ms, _ in prop.values()) / 1e3
    prop_substeps = sum(c.get("substeps", 0) for _, c in prop.values())
    values["propagate.ms"] = median_ms("propagate")
    values["propagate.substeps"] = first_pass_count("propagate", "substeps")
    values["propagate.substeps_per_s"] = prop_substeps / prop_s if prop_s > 0 else 0.0
    values["propagate.samples"] = first_pass_count("propagate", "samples")
    values["propagate.share"] = share("propagate")
    values["propagate.retries"] = first_pass_extra("propagate_retries")
    values["phases.ms"] = median_ms("phases")
    values["phases.share"] = share("phases")
    values["phases.margin"] = margin("phases")
    values["gates.margin"] = margin("gates")
    values["gates.synth_ms"] = median_ms("gates.synth")
    values["gates.synth_substeps"] = first_pass_count("gates.synth", "substeps")
    values["gates.expmap_ms"] = median_ms("gates.expmap")
    values["gates.retries"] = first_pass_extra("gates_retries")
    values["schedule.build_ms"] = median_ms("schedule")
    values["schedule.segments"] = first_pass_count("schedule", "segments")
    for c in CLI_COMMANDS:
        values[f"cli.{c}_ms"] = median_ms(f"cli.{c}")
    values["cli.bytes"] = first_pass_extra("bytes")
    values["cli.retries"] = first_pass_extra("cli_retries")
    for k in ACCEPTANCE_CRITERIA:
        values[f"acceptance.c{k}_ms"] = median_ms(f"acceptance.c{k}")
    values["acceptance.margin"] = margin("acceptance")
    values["trace.overhead_ms"] = (statistics.median(r.ms for r in traced)
                                   - statistics.median(r.ms for r in untraced))
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
