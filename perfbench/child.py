"""Fresh-process side of the benchmark.

    python3 perfbench/child.py setup <workload>
        Import tqdecho, run the workload's fixed warm-up op, check it, print
        "ready" and exit. The parent times process start to that line.
    python3 perfbench/child.py acceptance --trace 0|1
        Run one verify-all pass (acceptance.run_all) and print one JSON line
        with its wall time, every check, the process's peak RSS and, when
        traced, its spans.

Exit code 1 when the warm-up op fails its checks. The acceptance pass
exits 0 whatever its checks say: the parent's oracle judges them.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import benchenv

# warm-up op of the acceptance set-up probe: the cheapest criterion that
# builds an echo and runs the integrator
ACCEPTANCE_WARMUP_CRITERION = 8


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str) -> int:
    benchenv.prepare()
    if workload == "acceptance":
        import tqdecho.acceptance as acc

        ok = acc.run_criterion(ACCEPTANCE_WARMUP_CRITERION).passed
    else:
        import oracle
        import workloads

        w = workloads.WORKLOADS[workload]
        benchenv.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
            ctx = workloads.OpContext(workdir=Path(tmp))
            outcome, _ = oracle.judge(w.op, w.warmup, ctx)
        ok = outcome.passed
    if not ok:
        print(f"warm-up op of {workload} failed its checks", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def acceptance(trace: bool) -> int:
    benchenv.prepare()
    import tqdecho.acceptance as acc
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        acc.CRITERIA = tuple(
            tracer.wrap(f, f"acceptance.c{i}") for i, f in enumerate(acc.CRITERIA, 1)
        )
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        results = acc.run_all()
    ms = 1e3 * (time.perf_counter() - t0)
    record = {
        "ms": ms,
        "rss_mb": _peak_rss_mb(),
        "criteria": [
            {"index": r.index,
             "checks": [{"name": c.name, "value": c.value, "bound": c.bound}
                        for c in r.checks]}
            for r in results
        ],
        "spans": [sp.to_dict() for sp in tracer.spans] if tracer else [],
    }
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("workload")
    sp = sub.add_parser("acceptance")
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args.workload)
    return acceptance(bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
