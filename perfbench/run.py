"""tqdecho benchmark: one command, seeded workloads, oracle-checked ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``. Each workload runs as a closed loop: one caller in one process,
each op starting after the previous one returns. Whole passes over the
seeded input pool repeat until --seconds have elapsed.

--trace 0 measures the end-to-end metrics with tracing off, after timing
the set-up (process start to first op ready) in fresh processes.
--trace 1 runs every input twice, untraced and traced, in alternating
order, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with "correct", "attempted", "failed" and "metrics". Spans and a
run record are written under .perfbench_out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchenv
import metrics
from oracle import judge
from tracing import Tracer, spans_from_dicts

SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def measure_setup(workload: str) -> float:
    """Median over fresh processes of process start to "ready"."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("child.py")), "setup", workload],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=benchenv.child_env(), cwd=str(benchenv.ROOT),
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError(f"set-up probe of {workload} timed out")
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe of {workload} failed: {err.strip()}")
        times.append(ready)
    return statistics.median(times)


def run_op(w, inp, ctx, op_id: int, pass_index: int, input_index: int, tracer=None):
    ctx.tracer = tracer
    if tracer is None:
        t0 = time.perf_counter()
        outcome, extra = judge(w.op, inp, ctx)
        wall = time.perf_counter() - t0
    else:
        with tracer.installed(), tracer.span("op", op_id) as root:
            t0 = time.perf_counter()
            outcome, extra = judge(w.op, inp, ctx)
            wall = time.perf_counter() - t0
        child_spans = (extra or {}).get("spans", ())
        if child_spans:
            spans = spans_from_dicts(child_spans, op_id, len(tracer.spans))
            for sp in spans:
                if sp.parent is None:
                    sp.parent = root.span_id
            tracer.spans.extend(spans)
    extra = extra or {}
    return metrics.OpRecord(op_id, pass_index, input_index, extra.get("ms", 1e3 * wall), outcome,
                    extra)


def run_passes(w, pool, ctx, seconds: float, tracer=None):
    """Whole passes over `pool` until `seconds` have elapsed. Returns
    (records, [], passes) untraced, and (traced, untraced, passes) traced,
    where the two lists hold records of the same inputs."""
    first, second = [], []
    t_start = time.perf_counter()
    pass_index = 0
    while True:
        for k, inp in enumerate(pool):
            op_id = len(first)
            if tracer is None:
                first.append(run_op(w, inp, ctx, op_id, pass_index, k))
                continue
            # alternate which run of the pair goes first, so neither side
            # always meets warm caches
            if op_id % 2 == 0:
                plain = run_op(w, inp, ctx, op_id, pass_index, k)
                traced = run_op(w, inp, ctx, op_id, pass_index, k, tracer)
            else:
                traced = run_op(w, inp, ctx, op_id, pass_index, k, tracer)
                plain = run_op(w, inp, ctx, op_id, pass_index, k)
            first.append(traced)
            second.append(plain)
        pass_index += 1
        if time.perf_counter() - t_start >= seconds:
            return first, second, pass_index


def _peak_rss_mb(records) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max([own] + [r.extra.get("rss_mb", 0.0) for r in records])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tqdecho benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        benchenv.prepare()
    except benchenv.MissingPackage as exc:
        print(f"error: {exc}; run from the root of a tqdecho checkout", file=sys.stderr)
        return 2

    import workloads  # imports numpy and tqdecho, so only after prepare()

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = benchenv.OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    try:
        setup_s = None if trace else measure_setup(w.name)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pool = w.inputs(args.seed)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        ctx = workloads.OpContext(workdir=Path(tmp))
        if not w.fresh_process:
            judge(w.op, w.warmup, ctx)  # untimed: lazy imports and first-call costs
        records, plain, passes = run_passes(w, pool, ctx, args.seconds, tracer)

    if trace:
        values = metrics.per_layer(records, plain, tracer.spans)
        tracer.write(run_dir / "spans.jsonl")
    else:
        values = metrics.end_to_end(records, setup_s, _peak_rss_mb(records))

    record = benchenv.run_record(w.name, args.seed, trace, len(records), passes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    record["ops"] = [
        {"op": r.op_id, "pass": r.pass_index, "ms": r.ms, "passed": r.outcome.passed,
         "error": r.outcome.error} for r in records
    ]
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  passes {passes}"
          f"  (pool {len(pool)})")
    for line in metrics.report_lines(records):
        print(line)
    for name, (value, unit) in values.items():
        print(f"{name}: {value:.6g} {unit}")
    failed = sum(not r.outcome.passed for r in records)
    print(json.dumps({
        "correct": not any(r.outcome.wrong for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
