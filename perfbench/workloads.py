"""Seeded workloads and their ops.

Each workload turns a seed into a fixed pool of inputs (one "pass") and
runs one input per op through the public tqdecho API, the way a library
or CLI user calls it. Ops call the package through module attributes
(``tq.evolve_eigenstate``), so a tracer that patches those attributes sees
every call. Every op returns oracle checks; see oracle.py.

Import benchenv and call ``benchenv.prepare()`` before importing this
module.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import tqdecho as tq
import tqdecho.cli  # noqa: F401  (makes tq.cli available)

import benchenv
import oracle
from oracle import Check, flag

TWO_PI = 2.0 * math.pi
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120


@dataclass
class OpContext:
    """What an op may use besides its input: a scratch directory inside the
    checkout and, in traced runs, the tracer."""

    workdir: Path
    tracer: object = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


# ---------------------------------------------------------------------------
# echo-default: one-qubit echo at library defaults (adaptive ladder, 1e-10)
# ---------------------------------------------------------------------------

ECHO_LATTICE = 13
_ECHO_LATTICE_STEP = 8  # Fibonacci lattice (13, 8): even 2-D cover of the draw box
# slow edge of the draw box at mid angle, where the default ladder exhausts
# its step budget: every pass holds one op that pays the retry
ECHO_EDGE = {"theta": math.pi / 2, "ratio": 0.1}


def echo_inputs(seed: int) -> list:
    """Cone angle in (0.1, pi-0.1) and |omega/omega0| log-uniform in
    [0.1, 10] come from a 13-point rank-1 lattice that the seed shifts by
    at most a quarter cell, plus the fixed slow-edge point ECHO_EDGE. Op
    cost varies 16-fold over the box in steps (the ladder doubles), so
    draws that move freely with the seed make a pass's cost depend on the
    seed more than on the code; the small shift keeps each seed on the same
    cost levels. Sign, drive rotation and label are drawn i.i.d."""
    rng = _rng(seed, "echo-default")
    shift = (0.5 + 0.5 * (rng.random(2) - 0.5)) / ECHO_LATTICE
    points = [((k / ECHO_LATTICE + shift[0]) % 1.0,
               (k * _ECHO_LATTICE_STEP / ECHO_LATTICE + shift[1]) % 1.0)
              for k in range(ECHO_LATTICE)]
    out = []
    for x, y in points:
        out.append({"theta": 0.1 + (math.pi - 0.2) * float(x),
                    "ratio": _log_uniform(float(y), 0.1, 10.0)})
    out.append(dict(ECHO_EDGE))
    for inp in out:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        inp["omega"] = sign * inp.pop("ratio")
        inp["rotation"] = float(rng.uniform(-math.pi, math.pi))
        inp["label"] = int(rng.integers(2))
    return out


# The default ladder target (1e-10) sits at the rounding floor of a
# 2^20-factor product, so slow loops can exhaust the step budget. A user
# then retries once at a looser ladder target; the oracle's bounds on the
# result stay the same. The retry's cost stays in the op's time and the
# retry is counted, so the limit shows instead of being filtered out.
ECHO_RETRY_POLICY_ERROR = 1e-9


def echo_op(inp: dict, ctx: OpContext):
    label = inp["label"]
    p = tq.LoopParams(theta=inp["theta"], omega=inp["omega"], omega0=1.0)
    sched = tq.rotate_schedule(tq.build_echo_sequence(p), inp["rotation"])
    retries = 0
    try:
        traj = tq.evolve_eigenstate(sched, label)
    except RuntimeError as exc:
        if not str(exc).startswith("step budget exhausted"):
            raise
        retries = 1
        traj = tq.evolve_eigenstate(
            sched, label, tq.StepPolicy(target_error=ECHO_RETRY_POLICY_ERROR))
    dec = tq.echo_phase_decomposition(traj, label)
    fid = tq.tracking_fidelity(traj, label)
    # the echo leaves (1-2p)*2*pi*cos(theta) and no dynamical phase; the
    # builder always runs the forward loop first, whatever the sign of omega
    expected = (1 - 2 * label) * TWO_PI * math.cos(inp["theta"])
    checks = [
        Check("geometric_deviation", "phases",
              abs(oracle.wrap_angle(dec.geometric - expected)), oracle.GEOMETRIC_DEVIATION),
        Check("dynamical_deviation", "phases", abs(dec.dynamical), oracle.DYNAMICAL_DEVIATION),
        Check("leakage", "phases", 1.0 - float(np.min(fid)), oracle.LEAKAGE),
    ]
    return checks, {"propagate_retries": retries}


# ---------------------------------------------------------------------------
# twoqubit-gate: conditional phase gate plus static-coupling equivalence
# ---------------------------------------------------------------------------

TWOQUBIT_POOL = 16
TWOQUBIT_OMEGA = 0.5  # |omega|/J of acceptance criterion 6


def twoqubit_inputs(seed: int) -> list:
    """omega_i/J log-uniform in [0.1, 10], one draw per stratum of equal
    width in log space, J = 1, omega = +-0.5 with a random sign."""
    rng = _rng(seed, "twoqubit-gate")
    out = []
    for k in rng.permutation(TWOQUBIT_POOL):
        u = (k + rng.random()) / TWOQUBIT_POOL
        sign = 1.0 if rng.random() < 0.5 else -1.0
        out.append({"omega_i": _log_uniform(u, 0.1, 10.0), "omega": sign * TWOQUBIT_OMEGA})
    return out


# At the default 8192 substeps, leakage exceeds 1e-6 for omega_i/J above
# about 4.5 (at |omega|/J = 0.5). A user then doubles the substeps until
# the gate meets its bounds; the doublings are timed and counted.
TWOQUBIT_DEFAULT_SUBSTEPS = 8192
TWOQUBIT_MAX_DOUBLINGS = 2


def _gate_checks(rep) -> list:
    return [
        Check("leakage", "gates", rep.leakage, oracle.LEAKAGE),
        Check("phase_residual", "gates", max(rep.phase_residuals), oracle.PHASE_RESIDUAL),
    ]


def twoqubit_op(inp: dict, ctx: OpContext):
    p = tq.TwoQubitParams(omega_i=inp["omega_i"], coupling=1.0, omega=inp["omega"])
    rep = tq.synthesize_two_qubit_gate(p)
    retries = 0
    while retries < TWOQUBIT_MAX_DOUBLINGS and not all(c.passed for c in _gate_checks(rep)):
        retries += 1
        substeps = TWOQUBIT_DEFAULT_SUBSTEPS << retries
        rep = tq.synthesize_two_qubit_gate(p, policy=tq.StepPolicy(substeps=substeps))
    eq = tq.verify_exp_equivalence(p)
    checks = _gate_checks(rep) + [
        Check("gate_equivalence", "gates", eq.gate_deviation, oracle.GATE_EQUIVALENCE),
        Check("field_map_deviation", "gates", eq.max_field_deviation,
              oracle.FIELD_MAP_DEVIATION),
        Check("delta_omega", "gates",
              abs(rep.delta_omega - TWO_PI / math.hypot(inp["omega_i"], 1.0)),
              oracle.DELTA_OMEGA),
    ]
    return checks, {"gates_retries": retries}


# ---------------------------------------------------------------------------
# cli-export: in-process CLI runs with dense sampling
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("fields", "evolve", "echo", "gate", "scan")
CLI_PER_COMMAND = 20
SCAN_WORKERS = min(2, benchenv.NPROC)


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms on [0, 1), one per stratum of width 1/n, in random order
    (one column of a Latin hypercube)."""
    return (rng.permutation(n) + rng.random(n)) / n


def _cli_configs(cmd: str, rng: np.random.Generator, n: int) -> list:
    """n configs of one subcommand. Every continuous parameter is a Latin
    hypercube column, so each pass spans the full range of sample counts,
    angles and rates whatever the seed."""
    u_theta = _strata(rng, n)
    theta = 0.1 + (math.pi - 0.2) * u_theta
    rate = [_log_uniform(u, 0.1, 10.0) for u in _strata(rng, n)]
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    samples = 2048 + np.floor(2049 * _strata(rng, n)).astype(int)
    label = rng.integers(2, size=n)
    u_gate = _strata(rng, n)
    out = []
    for k in range(n):
        if cmd == "fields":
            cfg = {"theta": theta[k], "omega": sign[k] * rate[k], "omega0": 1.0,
                   "samples": samples[k]}
        elif cmd in ("evolve", "echo"):
            cfg = {"theta": theta[k], "omega": sign[k] * rate[k], "omega0": 1.0,
                   "label": label[k], "samples": samples[k]}
        elif cmd == "gate":
            cfg = {"axis_angle": math.pi * u_theta[k],
                   "gate_angle": 0.1 + (2.0 * TWO_PI - 0.2) * u_gate[k]}
        else:
            ratios = sorted(float(sign[k]) * _log_uniform(u, 0.1, 10.0)
                            for u in _strata(rng, 5))
            cfg = {"theta": theta[k], "omega0": 1.0, "ratios": ratios,
                   "label": label[k], "workers": SCAN_WORKERS}
        out.append({key: v.item() if isinstance(v, np.generic) else v
                    for key, v in cfg.items()})
    return out


def cli_inputs(seed: int) -> list:
    """Twenty seeded configs per subcommand (fields, evolve, echo, gate,
    scan), samples 2048-4096, taken round-robin so every stretch of five
    ops holds one of each."""
    rng = _rng(seed, "cli-export")
    per_cmd = [_cli_configs(cmd, rng, CLI_PER_COMMAND) for cmd in CLI_COMMANDS]
    return [{"cmd": cmd, "config": per_cmd[i][k]}
            for k in range(CLI_PER_COMMAND)
            for i, cmd in enumerate(CLI_COMMANDS)]


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# At the default substeps, echo and evolve runs with slow loops
# (|omega/omega0| near 0.1) miss a 1e-6 bound and exit 1. A user then
# reruns with --substeps doubled; the reruns are timed and counted.
CLI_DEFAULT_SUBSTEPS = {"evolve": 8192, "echo": 8192, "gate": 8192, "scan": 4096}
CLI_MAX_DOUBLINGS = 2


def _cli_run(cmd: str, cfg: Path, out: Path, substeps: int | None) -> int:
    if out.exists():
        shutil.rmtree(out)
    argv = [cmd, "--config", str(cfg), "--out", str(out)]
    if substeps is not None:
        argv += ["--substeps", str(substeps)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return tq.cli.main(argv)


def cli_op(inp: dict, ctx: OpContext):
    cmd = inp["cmd"]
    out = ctx.workdir / "out"
    cfg = ctx.workdir / "config.json"
    cfg.write_text(json.dumps(inp["config"]))
    retries = 0
    t0 = time.perf_counter()
    with ctx.span(f"cli.{cmd}"):
        code = _cli_run(cmd, cfg, out, None)
        while code == 1 and cmd in CLI_DEFAULT_SUBSTEPS and retries < CLI_MAX_DOUBLINGS:
            retries += 1
            code = _cli_run(cmd, cfg, out, CLI_DEFAULT_SUBSTEPS[cmd] << retries)
    ms = 1e3 * (time.perf_counter() - t0)
    summary = json.loads((out / "summary.json").read_text())
    checks = [
        flag("exit_code_0", "cli", code == 0),
        flag("all_passed", "cli", summary["all_passed"] is True),
    ]
    return checks, {"ms": ms, "bytes": _tree_bytes(out), "cli_retries": retries}


# ---------------------------------------------------------------------------
# acceptance: verify-all passes, each in a fresh process
# ---------------------------------------------------------------------------

# acceptance checks that gate a criterion but are not accuracy tolerances
_NOT_ACCURACY = {"runtime_seconds", "uncorrected_min_fidelity",
                 "convergence_order_offset", "rerun_byte_difference"}


def acceptance_inputs(seed: int) -> list:
    """The acceptance criteria have fixed inputs; the seed changes nothing."""
    return [{}]


def run_child(args: list) -> dict:
    """Run child.py with `args`; return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, env=benchenv.child_env(), cwd=str(benchenv.ROOT),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def acceptance_op(inp: dict, ctx: OpContext):
    res = run_child(["acceptance", "--trace", "1" if ctx.tracer else "0"])
    checks = []
    for crit in res["criteria"]:
        for c in crit["checks"]:
            name = f"c{crit['index']}.{c['name']}"
            if c["name"] in _NOT_ACCURACY:
                checks.append(flag(name, "acceptance", c["value"] <= c["bound"]))
            else:
                checks.append(Check(name, "acceptance", c["value"], c["bound"]))
    return checks, {"ms": res["ms"], "rss_mb": res["rss_mb"], "spans": res["spans"]}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object   # seed -> list of inputs (one pass)
    op: object       # (input, OpContext) -> (checks, extra)
    warmup: dict     # fixed input for the set-up probe and the untimed warm-up
    fresh_process: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("echo-default", echo_inputs, echo_op,
                 {"theta": 0.2, "omega": 1.0, "rotation": 0.3, "label": 0}),
        Workload("twoqubit-gate", twoqubit_inputs, twoqubit_op,
                 {"omega_i": 1.0, "omega": TWOQUBIT_OMEGA}),
        Workload("cli-export", cli_inputs, cli_op,
                 {"cmd": "echo", "config": {"theta": math.pi / 3, "omega": 1.0,
                                            "omega0": 1.0, "samples": 2048}}),
        Workload("acceptance", acceptance_inputs, acceptance_op, {}, fresh_process=True),
    )
}
