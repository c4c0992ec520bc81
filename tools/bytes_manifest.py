"""Byte manifest: one sha256 per result the package produces, to show
that a change keeps every byte.

    python tools/bytes_manifest.py write OUT.json
    python tools/bytes_manifest.py compare TREE_A TREE_B

`write` runs from the root of a checkout, with its `src` first on
PYTHONPATH, and records a digest for each item:

* verify-all: each criterion of acceptance.json, with `runtime` and the
  `runtime_seconds` check dropped;
* cli: every artifact and summary.json of one config per scenario,
  each with the exact propagator and, but for fields, which propagates
  nothing, with --substeps 1024; and of evolve, echo and fields again at
  4096 samples with the exact propagator, whose CSVs span several of the
  writer's chunks;
* demo: the stdout of each demo under -W error, and the CSV demo 01
  writes;
* family: for each member of a seeded family of rotated gapped echoes,
  corrected and root loops, two-qubit echoes and exp echoes, run
  exact and with StepPolicy(substeps=64), two digests: `trajectory`
  (sample times, segment index, propagators, states, tracking
  fidelity and substeps_used) and `values` (final propagator, phase
  values or the message a decomposition raised, and minimum tracking
  fidelity). The gapped echoes are built from their records, so the
  family is the same whatever segments build_echo_sequence returns.

Every command runs in a fresh process under -W error, with each
PYTHONPATH entry made absolute, and prints its stderr if it fails.
`write` records each exit code as an item and, after writing the
manifest, exits 1 if any command exited non-zero. `compare` runs
`write` in each tree (cwd = the tree, PYTHONPATH = its src), names
every item that differs, and fails if either tree's `write` failed, so
a failure that repeats identically still fails. CI runs
`compare . .`: the tree against itself, each result made twice in
fresh processes. The script uses only names that every recent tree
exports, so it also runs on older checkouts. Digests depend on numpy,
BLAS and libm, so compare two trees on one machine; none is committed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "evolve": {"theta": 1.0471975511965976, "omega": 1.0, "omega0": 1.0},
    "echo": {"theta": 0.7853981633974483, "omega": 0.7, "omega0": 1.0, "label": 1},
    "scan": {"theta": 1.0471975511965976, "omega0": 1.0, "ratios": [0.1, 0.5, 1.0, 2.0, 10.0]},
    "gate": {"axis_angle": 1.5707963267948966, "gate_angle": 0.7853981633974483},
    "twoqubit": {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5},
    "fields": {"theta": 1.0471975511965976, "omega": 1.0, "omega0": 1.0},
    "expmap": {"omega_i": 1.0, "coupling": 1.0, "omega": 0.5},
}
ORACLE_SUBSTEPS = 1024
MULTI_CHUNK_SAMPLES = 4096  # evolve, echo and fields CSVs of several chunks
FAMILY_SEED = 20211
FAMILY_SIZE = 4  # members per family
FAMILY_SUBSTEPS = 64
FAMILY_SAMPLES = 64


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _absolute_pythonpath(env: dict, first=None) -> dict:
    """env with each PYTHONPATH entry made absolute, `first` (a path)
    ahead of them: the children run in other directories, where a
    relative entry such as `src` resolves to nothing."""
    entries = [first] if first is not None else []
    entries += [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**env, "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in entries)}


def _run(argv: list, cwd) -> subprocess.CompletedProcess:
    """A fresh Python process with warnings as errors; its exit code is
    part of what it produced, so a failure is recorded, not raised, and
    its stderr printed."""
    done = subprocess.run([sys.executable, "-W", "error", *argv], cwd=cwd,
                          env=_absolute_pythonpath(dict(os.environ)),
                          capture_output=True, check=False)
    if done.returncode != 0:
        print(f"{' '.join(map(str, argv))} exited {done.returncode}:", file=sys.stderr)
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return done


def _acceptance_items(tmp: Path) -> dict:
    done = _run(["-m", "tqdecho.cli", "verify-all", "--out", str(tmp)], tmp)
    items = {"verify-all/exit": _sha(str(done.returncode).encode())}
    written = tmp / "acceptance.json"
    for entry in json.loads(written.read_text()) if written.exists() else []:
        entry.pop("runtime")
        entry["checks"] = [c for c in entry["checks"] if c["name"] != "runtime_seconds"]
        key = f"verify-all/c{entry['index']}"
        items[key] = _sha(json.dumps(entry, sort_keys=True).encode())
    return items


def _cli_runs() -> list:
    """(name, kind, config, extra argv) of each CLI run."""
    runs = []
    for kind, config in CONFIGS.items():
        runs.append((f"{kind}-exact", kind, config, []))
        if kind != "fields":  # fields propagates nothing and takes no --substeps
            runs.append((f"{kind}-oracle", kind, config, ["--substeps", str(ORACLE_SUBSTEPS)]))
    for kind in ("evolve", "echo", "fields"):
        config = {**CONFIGS[kind], "samples": MULTI_CHUNK_SAMPLES}
        runs.append((f"{kind}-{MULTI_CHUNK_SAMPLES}-exact", kind, config, []))
    return runs


def _cli_items(tmp: Path) -> dict:
    items = {}
    for name, kind, config, extra in _cli_runs():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"kind": kind, **config}))
        out = tmp / name
        done = _run(["-m", "tqdecho.cli", kind, "--config", str(path), "--out", str(out),
                     *extra], tmp)
        items[f"cli/{name}/exit"] = _sha(str(done.returncode).encode())
        for artifact in sorted(out.iterdir()) if out.exists() else []:
            items[f"cli/{name}/{artifact.name}"] = _sha(artifact.read_bytes())
    return items


def _demo_items(tmp: Path) -> dict:
    items = {}
    for demo in sorted(Path("demos").glob("*.py")):
        work = tmp / demo.stem
        work.mkdir()
        done = _run([str(demo.resolve())], work)
        items[f"demo/{demo.stem}/exit"] = _sha(str(done.returncode).encode())
        items[f"demo/{demo.stem}/stdout"] = _sha(done.stdout)
        for written in sorted(work.iterdir()):
            items[f"demo/{demo.stem}/{written.name}"] = _sha(written.read_bytes())
    return items


def _family() -> dict:
    """name -> (schedule, label, decomposition or None), drawn from one
    seeded generator."""
    import numpy as np

    import tqdecho as tq
    try:
        from tqdecho.fields import IdleParams
    except ImportError:  # a checkout from before the records moved to fields
        from tqdecho.schedule import IdleParams

    rng = np.random.default_rng(FAMILY_SEED)
    members = {}
    for i in range(FAMILY_SIZE):
        sign = rng.choice([-1.0, 1.0])
        p = tq.LoopParams(rng.uniform(0.2, 2.9), sign * rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0))
        # a gapped echo from its records, built alike from the four- and
        # the older seven-segment echo
        omega_pi = rng.uniform(20.0, 80.0) * abs(p.omega)
        segs = tq.build_echo_sequence(p, omega_pi=omega_pi).segments
        fwd, pulse = segs[0], next(seg for seg in segs if seg.kind == "pi-pulse")
        idle = [IdleParams(2, g) for g in rng.uniform(0.0, 1.0, 3)]
        echo = tq.SegmentSchedule((fwd, idle[0], pulse, idle[1], fwd.reversed(), idle[2], pulse))
        label = int(rng.integers(2))
        members[f"rotated-echo-{i}"] = (
            tq.rotate_schedule(echo, rng.uniform(-np.pi, np.pi)), label,
            tq.echo_phase_decomposition)
        members[f"loop-{i}"] = (tq.single_loop_schedule(p), label, tq.loop_phase_decomposition)
        # slow enough that the uncorrected loop still tracks, fast enough
        # that FAMILY_SAMPLES resolve its phase
        slow = tq.LoopParams(p.theta, sign * rng.uniform(0.08, 0.12) * p.omega0, p.omega0)
        members[f"root-loop-{i}"] = (tq.single_loop_schedule(slow, corrected=False), label, None)

        q = tq.TwoQubitParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                              rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0))
        pair = tuple(int(b) for b in rng.integers(2, size=2))
        members[f"two-qubit-echo-{i}"] = (
            tq.build_two_qubit_sequence(q, omega_pi=rng.uniform(20.0, 80.0) * abs(q.omega)),
            pair, tq.echo_phase_decomposition)
        members[f"exp-echo-{i}"] = (tq.build_exp_two_qubit_sequence(q), pair,
                                    tq.echo_phase_decomposition)
    return members


def _family_items() -> dict:
    import numpy as np

    import tqdecho as tq

    items = {}
    for name, (sched, label, decompose) in _family().items():
        for policy_name, policy in (("exact", None),
                                    ("oracle", tq.StepPolicy(substeps=FAMILY_SUBSTEPS))):
            traj = tq.evolve_eigenstate(sched, label, policy, samples=FAMILY_SAMPLES)
            fidelity = tq.tracking_fidelity(traj, label)
            h = hashlib.sha256()
            for arr in (traj.times, traj.segment_index, traj.propagators, traj.states, fidelity):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(traj.substeps_used).encode())
            items[f"family/{name}/{policy_name}/trajectory"] = h.hexdigest()
            values = {"dynamical": tq.dynamical_phase(traj),
                      "dynamical_full": tq.dynamical_phase(traj, "full"),
                      "min_fidelity": float(fidelity.min())}
            try:
                values["total"] = tq.total_phase(traj, label)
                if decompose is not None:
                    values["decomposition"] = decompose(traj, label).to_dict()
            except ValueError as exc:
                values["error"] = str(exc)
            h = hashlib.sha256(np.ascontiguousarray(traj.final_propagator).tobytes())
            h.update(json.dumps(values, sort_keys=True).encode())
            items[f"family/{name}/{policy_name}/values"] = h.hexdigest()
    return items


def write(out: Path) -> int:
    import numpy as np

    import tqdecho

    where = Path(tqdecho.__file__).resolve()
    if not where.is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"tqdecho imports from {where}, not from this tree; "
                         "put its src first on PYTHONPATH")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("verify-all", "cli", "demo"):
            (tmp / part).mkdir()
        items = {**_acceptance_items(tmp / "verify-all"), **_cli_items(tmp / "cli"),
                 **_demo_items(tmp / "demo"), **_family_items()}
    doc = {"python": sys.version.split()[0], "numpy": np.__version__, "items": items}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(items)} items written to {out}")
    failed = sorted(k for k, v in items.items() if k.endswith("/exit") and v != _sha(b"0"))
    for key in failed:
        print(f"exited non-zero: {key}")
    return 1 if failed else 0


def compare(tree_a: Path, tree_b: Path) -> int:
    docs, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate((tree_a, tree_b)):
            tree = tree.resolve()
            out = Path(tmp) / f"manifest-{i}.json"
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "write", str(out)],
                cwd=tree, env=_absolute_pythonpath(dict(os.environ), tree / "src"), check=False)
            if not out.exists():
                print(f"write in {tree} exited {done.returncode} and wrote no manifest")
                return 1
            if done.returncode != 0:
                failed.append(f"write in {'AB'[i]} ({tree}) exited {done.returncode}: "
                              "a command failed")
            docs.append(json.loads(out.read_text()))
    a, b = (d["items"] for d in docs)
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only = sorted(a.keys() ^ b.keys())
    for key in differ:
        print(f"differs: {key}")
    for key in only:
        print(f"only in {'A' if key in a else 'B'}: {key}")
    if differ or only:
        print(f"{len(differ)} of {len(a.keys() & b.keys())} items differ, "
              f"{len(only)} are in one tree only")
    else:
        print(f"all {len(a)} items identical")
    for line in failed:
        print(line)
    return 1 if differ or only or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("write", help="write the manifest of the tree in the working directory")
    sp.add_argument("out", type=Path)
    sp = sub.add_parser("compare", help="write both trees' manifests and name each difference")
    sp.add_argument("tree_a", type=Path)
    sp.add_argument("tree_b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.out)
    return compare(args.tree_a, args.tree_b)


if __name__ == "__main__":
    sys.exit(main())
