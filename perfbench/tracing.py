"""In-memory spans around the calls into each tqdecho layer.

The tracer wraps public functions from outside the package: it replaces
the function object in every ``tqdecho`` module namespace that holds it,
so calls made inside the package (for example ``cli`` calling
``evolve_eigenstate``) are recorded too. Nothing under ``src/`` changes.
Each span keeps its name, start, end, parent span and op id, plus the
counts read off the call's result. Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

def _trajectory_counts(traj) -> dict:
    return {"substeps": int(sum(traj.substeps_used)), "samples": int(len(traj.times))}


def _schedule_counts(sched) -> dict:
    return {"segments": len(sched.segments)}


def _report_substeps(rep) -> dict:
    return {"substeps": int(sum(rep.substeps_used))}


# (module, function name, span name, extractor of counts from the result)
LAYER_TARGETS = (
    ("tqdecho.phases", "evolve_eigenstate", "propagate", _trajectory_counts),
    ("tqdecho.propagate", "propagate_schedule", "propagate", _trajectory_counts),
    ("tqdecho.phases", "echo_phase_decomposition", "phases", None),
    ("tqdecho.phases", "loop_phase_decomposition", "phases", None),
    ("tqdecho.phases", "tracking_fidelity", "phases", None),
    ("tqdecho.gates", "synthesize_two_qubit_gate", "gates.synth", _report_substeps),
    ("tqdecho.gates", "verify_exp_equivalence", "gates.expmap", None),
    ("tqdecho.schedule", "single_loop_schedule", "schedule", _schedule_counts),
    ("tqdecho.schedule", "build_echo_sequence", "schedule", _schedule_counts),
    ("tqdecho.schedule", "build_two_qubit_sequence", "schedule", _schedule_counts),
    ("tqdecho.schedule", "build_exp_two_qubit_sequence", "schedule", _schedule_counts),
    ("tqdecho.schedule", "rotate_schedule", "schedule", _schedule_counts),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # True when a span of the same name is already open above this one, so
    # sums over a layer skip it and count nested calls once
    nested: bool = False

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "id": self.span_id, "parent": self.parent, "op": self.op_id,
            "name": self.name, "start": self.start, "end": self.end,
            "counts": self.counts, "nested": self.nested,
        }


class Tracer:
    """Collects spans; `installed()` patches the layer functions for the
    duration of a `with` block and restores them afterwards."""

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # per-thread stack of open spans
        self._owner: list | None = None  # open-span stack of the thread that started the op
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        """A span around a `with` block; `op_id` starts a new op."""
        sp = self._open(name, op_id)
        try:
            yield sp
        finally:
            self._close(sp)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, op_id: int | None) -> Span:
        # a call on a worker thread (the CLI scan pool) starts with an empty
        # stack; its parent is the span open on the thread that started the op
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner[-1] if self._owner else None
        if op_id is None:
            op_id = parent.op_id if parent else -1
        nested = any(open_.name == name for open_ in stack)
        with self._lock:
            sp = Span(len(self.spans), parent.span_id if parent else None, op_id, name,
                      time.perf_counter(), nested=nested)
            self.spans.append(sp)
        if self._owner is None:
            self._owner = stack
        stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        stack = self._stack()
        if stack.pop() is not sp:
            raise RuntimeError("spans closed out of order")
        if not stack and stack is self._owner:
            self._owner = None

    def wrap(self, func, name: str, counts=None):
        """`func` with a span named `name` around each call; `counts` maps
        the result to counts stored on the span."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = func(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(result))
                return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tqdecho" or n.startswith("tqdecho."))]
        for mod_name, func_name, span_name, counts in self.targets:
            original = getattr(sys.modules[mod_name], func_name)
            traced = self.wrap(original, span_name, counts)
            for mod in modules:
                if mod.__dict__.get(func_name) is original:
                    self._patches.append((mod, func_name, original))
                    setattr(mod, func_name, traced)

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


def spans_from_dicts(rows, op_id: int, first_id: int) -> list[Span]:
    """Rebuild spans recorded in another process under a new op id, with
    span ids shifted past `first_id` so they stay unique."""
    out = []
    for r in rows:
        parent = None if r["parent"] is None else r["parent"] + first_id
        out.append(Span(r["id"] + first_id, parent, op_id, r["name"], r["start"],
                        r["end"], dict(r["counts"]), r["nested"]))
    return out

