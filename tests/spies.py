"""Spies on the schedule walk's kernels, shared by the tests that count
how often each distinct segment is propagated."""
from dataclasses import replace

import tqdecho.propagate as prop
from tqdecho.schedule import PulseParams


def count_handed_segments(monkeypatch) -> tuple:
    """Spy on the walk's kernels: each segment handed to the stacked
    kernels (_loop_propagators, which takes the y pulses under either
    policy and the loops on the exact path, and _segment_partials, which
    takes the loops under a StepPolicy) or to _flip_propagators is
    recorded as (kind, checkpoints), and each stacked call as its
    segment count. Idles are the walk's own identity partials and are
    not recorded. Returns (segments, stacked calls)."""
    segments, stacked = [], []
    real = prop._flip_propagators, prop._loop_propagators, prop._segment_partials

    def flip(seg, ts):
        segments.append((seg.kind, ts.size))
        return real[0](seg, ts)

    def exact(segs, ts):
        stacked.append(len(segs))
        segments.extend((seg.kind, len(row)) for seg, row in zip(segs, ts))
        return real[1](segs, ts)

    def oracle(segs, n, checkpoints):
        stacked.append(len(segs))
        segments.extend((seg.kind, checkpoints) for seg in segs)
        return real[2](segs, n, checkpoints)

    monkeypatch.setattr(prop, "_flip_propagators", flip)
    monkeypatch.setattr(prop, "_loop_propagators", exact)
    monkeypatch.setattr(prop, "_segment_partials", oracle)
    return segments, stacked


def over_rotate_pulses(monkeypatch, factor: float) -> None:
    """Make every pulse the walk propagates turn `factor` times too far:
    each y pulse reaches the kernel at rate factor*omega_pi, its sample
    times still those of its own half turn, and the control flip is
    evaluated at factor times its sample times."""
    real = prop._flip_propagators, prop._loop_propagators

    def flip(seg, ts):
        return real[0](seg, ts * factor)

    def exact(segs, ts):
        segs = [replace(seg, omega_pi=factor * seg.omega_pi)
                if isinstance(seg, PulseParams) else seg for seg in segs]
        return real[1](segs, ts)

    monkeypatch.setattr(prop, "_flip_propagators", flip)
    monkeypatch.setattr(prop, "_loop_propagators", exact)
