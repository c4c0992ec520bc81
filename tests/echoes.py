"""Gapped echoes for the tests, built from the drive records: the echo
is its four driven segments, and an idle between two of them is a
record of its own."""
from tqdecho.fields import IdleParams
from tqdecho.schedule import SegmentSchedule, build_echo_sequence


def gapped_echo(p, gaps, omega_pi=None) -> SegmentSchedule:
    """The echo of loop p with an idle of gaps[0], gaps[1] and gaps[2]
    after its first loop, its first pulse and its second loop; a zero
    gap adds no segment."""
    fwd, pulse, rev, _ = build_echo_sequence(p, omega_pi).segments
    segments = [fwd]
    for gap, seg in zip(gaps, (pulse, rev, pulse)):
        if gap:
            segments.append(IdleParams(2, gap))
        segments.append(seg)
    return SegmentSchedule(segments)
