"""Spies on the schedule walk's kernels, shared by the tests that count
how often each distinct segment is propagated."""
from dataclasses import replace

import tqdecho.propagate as prop
from tqdecho.schedule import _HalfTurn


def count_handed_segments(monkeypatch) -> tuple:
    """Spy on the walk's stacked kernels: each segment handed to
    _loop_propagators (which takes the pulses under either policy and the
    loops on the exact path) or to _segment_partials (which takes the
    loops under a StepPolicy) is recorded as (kind, checkpoints), and
    each stacked call as its segment count. Idles are the walk's own
    identity partials and are not recorded. Returns (segments, stacked
    calls)."""
    segments, stacked = [], []
    real = prop._loop_propagators, prop._segment_partials

    def exact(segs, ts):
        stacked.append(len(segs))
        segments.extend((seg.kind, len(row)) for seg, row in zip(segs, ts))
        return real[0](segs, ts)

    def oracle(segs, n, checkpoints):
        stacked.append(len(segs))
        segments.extend((seg.kind, checkpoints) for seg in segs)
        return real[1](segs, n, checkpoints)

    monkeypatch.setattr(prop, "_loop_propagators", exact)
    monkeypatch.setattr(prop, "_segment_partials", oracle)
    return segments, stacked


def over_rotate_pulses(monkeypatch, factor: float) -> None:
    """Make every pulse the walk propagates turn `factor` times too far:
    each pulse, the control flip included, reaches the kernel at rate
    factor*omega_pi, its sample times still those of its own half turn."""
    real = prop._loop_propagators

    def exact(segs, ts):
        segs = [replace(seg, omega_pi=factor * seg.omega_pi)
                if isinstance(seg, _HalfTurn) else seg for seg in segs]
        return real(segs, ts)

    monkeypatch.setattr(prop, "_loop_propagators", exact)
