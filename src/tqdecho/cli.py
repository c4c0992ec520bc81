"""Command-line runner.

Each subcommand runs one scenario from a small JSON config and writes
deterministic artifacts (CSV tables, JSON reports) plus a summary.json
recording every gated check. The process exits 0 only if all checks of
the scenario passed, so runs can gate pipelines directly: 1 means a check
failed, 2 a bad config or input, 3 an internal error.

Config files are flat JSON objects. Keys are validated strictly: unknown
or duplicate keys, wrong types, and non-finite numbers are rejected
rather than ignored.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import Check, _error, run_all
from .fields import LoopParams, TwoQubitParams, experimental_params, tqd_field_magnitude
from .gates import (
    SingleGateSpec,
    closed_form_echo_gate,
    synthesize_single_gate,
    synthesize_two_qubit_gate,
    verify_exp_equivalence,
)
from .phases import (
    _evolve_eigenstates,
    echo_phase_decomposition,
    evolve_eigenstate,
    loop_phase_decomposition,
    tracking_fidelity,
)
from .propagate import StepPolicy, trajectory_to_csv
from .qcore import gate_distance
from .schedule import (
    _write_csv,
    build_echo_sequence,
    field_timeline,
    single_loop_schedule,
)

__all__ = ["main"]

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

class ConfigError(Exception):
    pass


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} in config")
        seen.add(key)
    return dict(pairs)


# kind -> {key: (type, default-or-REQUIRED)}; a float key takes any finite
# JSON number, a list key a non-empty list of them
_REQUIRED = object()
_CONE = {
    "theta": (float, _REQUIRED),
    "omega": (float, _REQUIRED),
    "omega0": (float, _REQUIRED),
}
_TWO_QUBIT = {
    "omega_i": (float, _REQUIRED),
    "coupling": (float, _REQUIRED),
    "omega": (float, _REQUIRED),
}
_SUBSTEPS = {"substeps": (int, None)}
_SCHEMAS = {
    "fields": {
        **_CONE,
        "samples": (int, 256),
    },
    "evolve": {
        **_CONE,
        "label": (int, 0),
        "corrected": (bool, True),
        **_SUBSTEPS,
        "samples": (int, 256),
    },
    "echo": {
        **_CONE,
        "omega_pi": (float, None),
        "label": (int, 0),
        **_SUBSTEPS,
        "samples": (int, 256),
    },
    "gate": {
        "axis_angle": (float, _REQUIRED),
        "gate_angle": (float, _REQUIRED),
        "omega": (float, 1.0),
        "omega0": (float, 1.0),
        "omega_pi": (float, None),
        **_SUBSTEPS,
    },
    "twoqubit": {
        **_TWO_QUBIT,
        "omega_pi": (float, None),
        **_SUBSTEPS,
    },
    "expmap": {
        **_TWO_QUBIT,
        **_SUBSTEPS,
        "draws": (int, 100),
    },
    "scan": {
        "theta": (float, _REQUIRED),
        "omega0": (float, _REQUIRED),
        "ratios": (list, _REQUIRED),
        "label": (int, 0),
        **_SUBSTEPS,
        "workers": (int, 4),
    },
}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


def _coerce(kind_name: str, key: str, typ: type, value):
    where = f"{kind_name}.{key}"
    if typ is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list of numbers")
        try:
            return [_coerce(kind_name, key, float, v) for v in value]
        except ConfigError:
            raise ConfigError(f"{where} must contain finite numbers") from None
    # bool subclasses int, but a JSON boolean is never a number
    accepted = (int, float) if typ is float else typ
    if isinstance(value, bool) != (typ is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[typ]}")
    if typ is float:
        # an exact comparison, so a huge integer literal is caught too
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite")
        value = float(value)
    if key == "label" and value not in (0, 1):
        raise ConfigError(f"{where} must be 0 or 1")
    return value


def load_config(path: str, kind: str) -> dict:
    """Read and validate a scenario config against its schema."""
    schema = _SCHEMAS[kind]
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_no_duplicates)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    stated = raw.pop("kind", kind)
    if stated != kind:
        raise ConfigError(f"config kind {stated!r} does not match subcommand {kind!r}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown keys {sorted(unknown)} for {kind!r}; allowed: {sorted(schema)}"
        )
    out = {}
    for key, (typ, default) in schema.items():
        if key in raw:
            out[key] = _coerce(kind, key, typ, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {kind!r}")
        else:
            out[key] = default
    return out


def _policy(params: dict, args) -> StepPolicy | None:
    """--substeps, else the config's substeps, selects the Magnus oracle;
    with neither (as in fields) the scenario runs the exact propagator."""
    n = params.get("substeps") if getattr(args, "substeps", None) is None else args.substeps
    return None if n is None else StepPolicy(substeps=n)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _matrix(u: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def _make_out(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a path below one: bad input
        raise ConfigError(f"cannot write to --out {out}: {exc.strerror}") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Run:
    """Collects checks and artifacts for one scenario invocation."""

    def __init__(self, kind: str, config: dict, policy: StepPolicy | None, out: Path):
        self.kind = kind
        self.config = config
        self.policy = policy
        self.out = out
        self.checks = []
        self.notes = {}
        self.artifacts = []

    def _path(self, name: str) -> Path:
        # the directory appears with the first file, so a run that fails
        # on its config leaves none
        _make_out(self.out)
        return self.out / name

    def check(self, name: str, value: float, bound: float) -> None:
        self.checks.append(Check(name, float(value), float(bound)))

    def artifact(self, name: str) -> Path:
        self.artifacts.append(name)
        return self._path(name)

    def phases(self, decompose, traj, label):
        """decompose(traj, label), written to phases.json; None, with the failed
        check phase_decomposition_raised and the error in notes, if it raises."""
        try:
            dec = decompose(traj, label)
        except ValueError as exc:
            self.check("phase_decomposition_raised", 1.0, 0.5)
            self.notes["error"] = _error(exc)
            return None
        _write_json(self.artifact("phases.json"), dec.to_dict())
        return dec

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def finish(self) -> int:
        pol = (
            {"method": "exact"}
            if self.policy is None
            else {"substeps": self.policy.substeps}
        )
        summary = {
            "kind": self.kind,
            "params": self.config,
            "policy": pol,
            "checks": [c.to_dict() for c in self.checks],
            "notes": self.notes,
            "artifacts": sorted(self.artifacts),
            "all_passed": self.all_passed,
        }
        _write_json(self._path("summary.json"), summary)
        for c in self.checks:
            flag = "ok  " if c.passed else "FAIL"
            print(f"  {flag} {c.name}: {c.value:.3e} (bound {c.bound:.0e})")
        for name in sorted(self.artifacts + ["summary.json"]):
            print(f"  wrote {self.out / name}")
        print("OK" if self.all_passed else "CHECKS FAILED")
        return 0 if self.all_passed else 1


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_fields(run: Run) -> int:
    params = run.config
    p = LoopParams(params["theta"], params["omega"], params["omega0"])
    sched = single_loop_schedule(p)
    data = field_timeline(sched, params["samples"])
    expected = tqd_field_magnitude(p)
    # the norms in units of a power of two near the expected magnitude, so
    # that no square underflows or overflows; powers of two scale exactly
    unit = math.ldexp(1.0, math.frexp(expected)[1])
    mag = unit * np.linalg.norm(data[:, 1:] / unit, axis=1)
    header = ("t", "Bx", "By", "Bz", "Bmag")
    _write_csv(run.artifact("fields.csv"), header, [*data.T, mag])
    drift = float(np.max(np.abs(mag - expected))) / expected
    run.check("field_magnitude_drift", drift, 1e-9)
    run.notes["expected_magnitude"] = expected
    return run.finish()


def _run_evolve(run: Run) -> int:
    params, label = run.config, run.config["label"]
    p = LoopParams(params["theta"], params["omega"], params["omega0"])
    sched = single_loop_schedule(p, corrected=params["corrected"])
    traj = evolve_eigenstate(sched, label, run.policy, samples=params["samples"])
    fid = tracking_fidelity(traj, label)
    trajectory_to_csv(traj, run.artifact("trajectory.csv"), {"fidelity": fid})
    run.notes["min_tracking_fidelity"] = float(fid.min())
    if params["corrected"]:
        dec = run.phases(loop_phase_decomposition, traj, label)
        run.check("tracking_infidelity", 1.0 - float(fid.min()), 1e-7)
        if dec is not None:
            run.check("geometric_phase_deviation", dec.geometric_deviation, 1e-6)
    return run.finish()


def _run_echo(run: Run) -> int:
    params, label = run.config, run.config["label"]
    p = LoopParams(params["theta"], params["omega"], params["omega0"])
    sched = build_echo_sequence(p, omega_pi=params["omega_pi"])
    traj = evolve_eigenstate(sched, label, run.policy, samples=params["samples"])
    fid = tracking_fidelity(traj, label)
    trajectory_to_csv(traj, run.artifact("trajectory.csv"), {"fidelity": fid})

    target = closed_form_echo_gate(p)
    dist = gate_distance(traj.final_propagator, target)
    dec = run.phases(echo_phase_decomposition, traj, label)
    _write_json(
        run.artifact("gate.json"),
        {
            "distance": dist,
            "realized": _matrix(traj.final_propagator),
            "target": _matrix(target),
            "labels": sched.labels(),
        },
    )
    run.check("echo_gate_distance", dist, 1e-6)
    if dec is not None:
        run.check("residual_dynamical_phase", abs(dec.dynamical), 1e-6)
    return run.finish()


def _run_gate(run: Run) -> int:
    params = run.config
    spec = SingleGateSpec(params["axis_angle"], params["gate_angle"])
    rep = synthesize_single_gate(
        spec,
        omega=params["omega"],
        omega0=params["omega0"],
        omega_pi=params["omega_pi"],
        policy=run.policy,
    )
    _write_json(
        run.artifact("gate.json"),
        {
            "axis_angle": spec.axis_angle,
            "gate_angle": spec.gate_angle,
            "cone_angle": rep.cone_angle,
            "drive_rotation": rep.rotation,
            "distance": rep.distance,
            "realized": _matrix(rep.realized),
            "target": _matrix(rep.target),
        },
    )
    run.check("gate_distance", rep.distance, 1e-6)
    return run.finish()


def _run_twoqubit(run: Run) -> int:
    params = run.config
    p = TwoQubitParams(params["omega_i"], params["coupling"], params["omega"])
    rep = synthesize_two_qubit_gate(p, omega_pi=params["omega_pi"], policy=run.policy)
    _write_json(
        run.artifact("gate.json"),
        {
            "delta_omega": rep.delta_omega,
            "leakage": rep.leakage,
            "phase_residuals": list(rep.phase_residuals),
            "distance": rep.distance,
            "realized": _matrix(rep.realized),
            "target": _matrix(rep.target),
        },
    )
    run.check("eigenbasis_leakage", rep.leakage, 1e-6)
    run.check("conditional_phase_residual", max(rep.phase_residuals), 1e-5)
    return run.finish()


def _run_expmap(run: Run) -> int:
    params = run.config
    p = TwoQubitParams(params["omega_i"], params["coupling"], params["omega"])
    rep = verify_exp_equivalence(p, policy=run.policy, field_draws=params["draws"])
    fwd = experimental_params(p)
    rev = experimental_params(p.reversed())
    _write_json(
        run.artifact("expmap.json"),
        {
            "forward": vars(fwd).copy(),
            "reversed": vars(rev).copy(),
            "max_field_deviation": rep.max_field_deviation,
            "gate_deviation": rep.gate_deviation,
            "field_draws": rep.field_draws,
        },
    )
    # relative to the largest rate, which sets the scale of every field
    scale = max(abs(p.omega_i), abs(p.coupling), abs(p.omega))
    run.check("field_map_deviation", rep.max_field_deviation / scale, 1e-10)
    run.check("gate_equivalence_distance", rep.gate_deviation, 1e-5)
    return run.finish()


def _run_scan(run: Run) -> int:
    params = run.config
    if params["omega0"] <= 0.0:
        raise ConfigError("scan.omega0 must be positive and finite")
    ratios = params["ratios"]
    # each point drives its loop at omega0 * ratio, which is zero for a
    # zero ratio and can overflow or underflow although both factors are valid
    rates = [params["omega0"] * r for r in ratios]
    if not all(np.isfinite(w) and w != 0.0 for w in rates):
        raise ConfigError(
            "scan.omega0 * scan.ratios must be finite and nonzero for every ratio"
        )
    # workers is accepted for old configs but has no effect
    if params["workers"] < 1:
        raise ConfigError("scan.workers must be >= 1")
    # every point's corrected and uncorrected loop, propagated in one walk
    points = [LoopParams(params["theta"], w, params["omega0"]) for w in rates]
    scheds = [single_loop_schedule(p, corrected) for corrected in (True, False) for p in points]
    label = params["label"]
    trajs = _evolve_eigenstates(scheds, label, run.policy, samples=64)
    fidelity = [float(tracking_fidelity(traj, label).min()) for traj in trajs]
    results = list(zip(fidelity[: len(points)], fidelity[len(points) :]))
    _write_csv(
        run.artifact("scan.csv"),
        ("ratio", "min_fidelity_corrected", "min_fidelity_uncorrected"),
        [ratios, *zip(*results)],
    )
    worst = max(1.0 - fc for fc, _ in results)
    run.check("tracking_infidelity_worst", worst, 1e-7)
    run.notes["uncorrected_min_fidelities"] = {
        f"{r:.17g}": fu for r, (_, fu) in zip(ratios, results)
    }
    return run.finish()


def _run_verify_all(out: Path) -> int:
    _make_out(out)
    results = run_all()
    _write_json(out / "acceptance.json", [r.to_dict() for r in results])
    print(f"  wrote {out / 'acceptance.json'}")
    ok = all(r.passed for r in results)
    print("OK" if ok else "CHECKS FAILED")
    return 0 if ok else 1


_RUNNERS = {
    "fields": _run_fields,
    "evolve": _run_evolve,
    "echo": _run_echo,
    "gate": _run_gate,
    "twoqubit": _run_twoqubit,
    "expmap": _run_expmap,
    "scan": _run_scan,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqdecho",
        description="Transitionless spin-echo simulator and gate synthesis runner.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in _RUNNERS:
        sp = sub.add_parser(kind, help=f"run the {kind} scenario from a JSON config")
        sp.add_argument("--config", required=True, help="path to the scenario config")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        if kind != "fields":  # fields propagates nothing
            sp.add_argument(
                "--substeps", type=int, default=None,
                help="run the fourth-order Magnus oracle with this many substeps "
                "per loop segment (at least samples) instead of the exact propagator",
            )

    sp = sub.add_parser("verify-all", help="run the full verification suite")
    sp.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def main(argv=None) -> int:
    """Exit 0 when every check passed, 1 on a failed check, 2 on a bad
    config or input (verify-all reads none but --out), 3 on an internal error."""
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    bad_input = ConfigError if args.command == "verify-all" else (ConfigError, ValueError)
    try:
        try:
            if args.command == "verify-all":
                return _run_verify_all(out)
            params = load_config(args.config, args.command)
            run = Run(args.command, params, _policy(params, args), out)
            return _RUNNERS[args.command](run)
        except bad_input as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except Exception as exc:  # the process boundary: report, never a traceback
        _log.debug("%s failed", args.command, exc_info=True)
        detail = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
