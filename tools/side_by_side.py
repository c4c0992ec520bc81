"""Time two trees of this package side by side, in one process.

    python tools/side_by_side.py PARENT CHANGE [--rounds N]

Each tree's `src/tqdecho` is imported under a name of its own, so both
run in one process on one interpreter and one BLAS, and a round of one
tree cannot warm or cool the machine for the other alone. Every row is
timed once per tree per round, in alternating order (PARENT first in
even rounds, CHANGE first in odd ones), each timing the best of three
passes over the row's inputs, and the round's ratio is CHANGE/PARENT.
After one untimed pass of every row per tree, N rounds (default 15)
follow. For each row the script prints the median time per pass of
each tree, the median ratio, the interquartile range of the ratios and
the rounds CHANGE won (ratio below 1).

Each pass builds fresh records with its own tree's package outside the
timed region, as a caller does once per op, so a record's cached
properties are paid inside every timed pass that reads them. The rows:

* echo op: 14 one-qubit echoes drawn from the box of perfbench's
  `echo-default` (cone angle in (0.1, pi - 0.1), |omega|/omega0
  log-uniform in [0.1, 10], either sign, a turn in [-pi, pi), either
  label): build, rotate, evolve_eigenstate at 256 samples,
  echo_phase_decomposition and tracking_fidelity, the records built
  inside the timed region;
* gate op: synthesize_two_qubit_gate and verify_exp_equivalence of
  three TwoQubitParams (omega_i 0.3, 1 and 3, coupling 1, omega 0.5);
* walk, trajectory, reference, dynamical phase: the layers of the echo
  op, on its 14 echoes (the segment walk at 256 samples, the
  trajectory from the walked segments with the eigenstate attached, the
  comoving reference series and the dynamical phase of a fresh
  trajectory);
* decomposition: echo_phase_decomposition of the 14 echoes' fresh
  trajectories, which builds the comoving reference series, reads the
  overlap's turn between the schedule's ends and integrates the
  dynamical phase;
* magnus: the walk of the 14 echoes under StepPolicy(substeps=256) at
  16 checkpoints per loop, the oracle path of acceptance criterion 8;
* re-attach: with_initial_state of the label-1 eigenstate on each of
  the 14 echoes' fresh trajectories, as acceptance criteria 1-3 move a
  loop's trajectory to its second label.

The layer rows call the package's private layer functions by name, so
both trees must have them with their present signatures; the echo op,
gate op, decomposition and re-attach rows read public names only.
`. .` times the tree against itself, which reads ratios near 1.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np

ECHO_SEED = 1
ECHO_COUNT = 14
SAMPLES = 256
ORACLE_SUBSTEPS = 256
ORACLE_CHECKPOINTS = 16
GATE_DRIVES = (0.3, 1.0, 3.0)  # omega_i of the two-qubit rows, coupling 1
GATE_OMEGA = 0.5
PASSES = 3


def load(tree: Path, name: str):
    """The package under `tree`/src/tqdecho, imported as `name`."""
    init = tree / "src" / "tqdecho" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def echo_inputs() -> list:
    rng = np.random.default_rng(ECHO_SEED)
    return [{"theta": float(rng.uniform(0.1, math.pi - 0.1)),
             "omega": float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)),
             "rotation": float(rng.uniform(-math.pi, math.pi)),
             "label": int(rng.integers(2))}
            for _ in range(ECHO_COUNT)]


ECHOES = echo_inputs()


def _echo(tq, inp):
    p = tq.LoopParams(theta=inp["theta"], omega=inp["omega"], omega0=1.0)
    return tq.rotate_schedule(tq.build_echo_sequence(p), inp["rotation"])


def _echo_op(tq, inp):
    sched = _echo(tq, inp)
    traj = tq.evolve_eigenstate(sched, inp["label"])
    tq.echo_phase_decomposition(traj, inp["label"])
    tq.tracking_fidelity(traj, inp["label"])


def _gate_op(tq, omega_i):
    p = tq.TwoQubitParams(omega_i=omega_i, coupling=1.0, omega=GATE_OMEGA)
    tq.synthesize_two_qubit_gate(p)
    tq.verify_exp_equivalence(p)


# Each row maps a package to the calls of one pass, each a function of
# no arguments, built with fresh records outside the timed region.
def _row_echo_op(tq):
    return [lambda inp=inp: _echo_op(tq, inp) for inp in ECHOES]


def _row_gate_op(tq):
    return [lambda w=w: _gate_op(tq, w) for w in GATE_DRIVES]


def _row_walk(tq):
    walk = tq.propagate._segment_propagators
    return [lambda s=_echo(tq, inp): walk([s], None, SAMPLES) for inp in ECHOES]


def _row_trajectory(tq):
    calls = []
    for inp in ECHOES:
        sched = _echo(tq, inp)
        psi = tq.evolve_eigenstate(sched, inp["label"], samples=2).initial_state
        walked = tq.propagate._segment_propagators([sched], None, SAMPLES)[0]
        calls.append(lambda s=sched, w=walked, psi=psi: tq.propagate._trajectory(s, w, psi))
    return calls


def _fresh_trajectories(tq) -> list:
    return [(tq.evolve_eigenstate(_echo(tq, inp), inp["label"]), inp["label"]) for inp in ECHOES]


def _row_reference(tq):
    series = tq.phases._reference_series
    return [lambda t=traj, k=label: series(t, k) for traj, label in _fresh_trajectories(tq)]


def _row_dynamical_phase(tq):
    return [lambda t=traj: tq.dynamical_phase(t) for traj, _ in _fresh_trajectories(tq)]


def _row_decomposition(tq):
    decompose = tq.echo_phase_decomposition
    return [lambda t=traj, k=label: decompose(t, k) for traj, label in _fresh_trajectories(tq)]


def _row_magnus(tq):
    walk, policy = tq.propagate._segment_propagators, tq.StepPolicy(substeps=ORACLE_SUBSTEPS)
    return [lambda s=_echo(tq, inp): walk([s], policy, ORACLE_CHECKPOINTS) for inp in ECHOES]


def _row_reattach(tq):
    calls = []
    for traj, _ in _fresh_trajectories(tq):
        psi = tq.evolve_eigenstate(traj.schedule, 1, samples=2).initial_state
        calls.append(lambda t=traj, psi=psi: t.with_initial_state(psi))
    return calls


ROWS = {
    "echo op": _row_echo_op,
    "gate op": _row_gate_op,
    "walk": _row_walk,
    "trajectory": _row_trajectory,
    "reference": _row_reference,
    "dynamical phase": _row_dynamical_phase,
    "decomposition": _row_decomposition,
    "magnus": _row_magnus,
    "re-attach": _row_reattach,
}


def time_row(tq, row) -> float:
    """Best of PASSES timed passes of `row` on package tq, in seconds."""
    best = math.inf
    for _ in range(PASSES):
        calls = ROWS[row](tq)
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - start)
    return best


def compare(parent, change, rounds: int) -> dict:
    """row -> (parent times, change times), one entry per round."""
    for tq in (parent, change):
        for row in ROWS:
            for call in ROWS[row](tq):
                call()
    times = {row: ([], []) for row in ROWS}
    for k in range(rounds):
        sides = ((0, parent), (1, change)) if k % 2 == 0 else ((1, change), (0, parent))
        for row in ROWS:
            for side, tq in sides:
                times[row][side].append(time_row(tq, row))
    return times


def report(times: dict) -> list:
    lines = [f"{'row':<16} {'parent ms':>10} {'change ms':>10} {'ratio':>7} "
             f"{'IQR':>13} {'won':>7}"]
    for row, (parent, change) in times.items():
        ratio = np.array(change) / np.array(parent)
        q1, q3 = np.percentile(ratio, [25, 75])
        lines.append(f"{row:<16} {1e3 * np.median(parent):>10.3f} {1e3 * np.median(change):>10.3f} "
                     f"{np.median(ratio):>7.3f} {q1:>6.3f}-{q3:<6.3f} "
                     f"{int(np.sum(ratio < 1.0)):>3}/{len(ratio)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = load(args.parent.resolve(), "tqdecho_parent")
    change = load(args.change.resolve(), "tqdecho_change")
    print("\n".join(report(compare(parent, change, args.rounds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
