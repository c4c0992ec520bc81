"""Spies on the schedule walk's kernels, shared by the tests that count
how often each distinct segment is propagated."""
import tqdecho.propagate as prop


def count_handed_segments(monkeypatch) -> tuple:
    """Spy on the walk's kernels: each segment handed to the stacked loop
    kernels (_loop_propagators exact, _segment_partials under a
    StepPolicy) or to propagate_segment (pulses and idles) is recorded as
    (kind, checkpoints), and each stacked call as its segment count.
    Returns (segments, stacked calls)."""
    segments, stacked = [], []
    real = prop.propagate_segment, prop._loop_propagators, prop._segment_partials

    def one(seg, policy=None, checkpoints=1):
        segments.append((seg.kind, checkpoints))
        return real[0](seg, policy, checkpoints)

    def exact(segs, ts):
        stacked.append(len(segs))
        segments.extend((seg.kind, ts.shape[1]) for seg in segs)
        return real[1](segs, ts)

    def oracle(segs, n, checkpoints):
        stacked.append(len(segs))
        segments.extend((seg.kind, checkpoints) for seg in segs)
        return real[2](segs, n, checkpoints)

    monkeypatch.setattr(prop, "propagate_segment", one)
    monkeypatch.setattr(prop, "_loop_propagators", exact)
    monkeypatch.setattr(prop, "_segment_partials", oracle)
    return segments, stacked
