"""Drive fields and pulse schedules.

Builds the precessing cone drive, adds the counterdiabatic correction,
and assembles the full echo sequence. Prints the field components at a
few instants and writes the whole timeline to CSV.
"""
import numpy as np

from tqdecho import (
    LoopParams,
    SegmentSchedule,
    build_echo_sequence,
    field_timeline,
    single_loop_schedule,
    tqd_field_magnitude,
    write_field_timeline_csv,
)
from tqdecho.fields import IdleParams

p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)

print("== root drive and correction ==")
print(f"cone angle {p.theta:.4f} rad, loop rate {p.omega}, root magnitude {p.omega0}")
# rows (t, Bx, By, Bz) at five instants of one loop
totals = field_timeline(single_loop_schedule(p), 5)
roots = field_timeline(single_loop_schedule(p, corrected=False), 5)
for t, b0, bt in zip(totals[:, 0], roots[:, 1:], totals[:, 1:]):
    bc = bt - b0
    print(
        f"t={t:6.3f}  root=({b0[0]:+.3f},{b0[1]:+.3f},{b0[2]:+.3f})"
        f"  corr=({bc[0]:+.3f},{bc[1]:+.3f},{bc[2]:+.3f})"
        f"  |total|={np.linalg.norm(bt):.6f}"
    )

print()
print("The corrected field magnitude is constant:")
print(f"  sqrt(omega0^2 + (omega sin theta)^2) = {tqd_field_magnitude(p):.12f}")
print("and even under loop reversal:")
print(f"  reversed magnitude                   = {tqd_field_magnitude(p.reversed()):.12f}")

print()
print("== echo sequence ==")
# the echo's four driven segments, with idles of 0.2 after the first
# loop and after the first pulse
fwd, pulse, rev, _ = build_echo_sequence(p).segments
sched = SegmentSchedule((fwd, IdleParams(2, 0.2), pulse, IdleParams(2, 0.2), rev, pulse))
for seg in sched.segments:
    print(f"  {seg.label:10s} kind={seg.kind:12s} duration={seg.duration:.4f}")
print(f"total duration {sched.total_duration:.4f}")

write_field_timeline_csv("echo_fields.csv", sched, samples_per_segment=128)
print("wrote echo_fields.csv")
