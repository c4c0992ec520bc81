"""Spies on the schedule walk's kernels, shared by the tests that count
how often each distinct segment is propagated."""
import tqdecho.propagate as prop


def count_handed_segments(monkeypatch) -> tuple:
    """Spy on the walk's kernels: each segment handed to the stacked loop
    kernels (_loop_propagators exact, _segment_partials under a
    StepPolicy) or to _pulse_propagators is recorded as (kind,
    checkpoints), and each stacked loop call as its segment count.
    Idles are the walk's own identity partials and are not recorded.
    Returns (segments, stacked calls)."""
    segments, stacked = [], []
    real = prop._pulse_propagators, prop._loop_propagators, prop._segment_partials

    def pulse(seg, ts):
        segments.append((seg.kind, ts.size))
        return real[0](seg, ts)

    def exact(segs, ts):
        stacked.append(len(segs))
        segments.extend((seg.kind, ts.shape[1]) for seg in segs)
        return real[1](segs, ts)

    def oracle(segs, n, checkpoints):
        stacked.append(len(segs))
        segments.extend((seg.kind, checkpoints) for seg in segs)
        return real[2](segs, n, checkpoints)

    monkeypatch.setattr(prop, "_pulse_propagators", pulse)
    monkeypatch.setattr(prop, "_loop_propagators", exact)
    monkeypatch.setattr(prop, "_segment_partials", oracle)
    return segments, stacked
