"""Echo refocusing and single-qubit gate synthesis.

A loop, a y half-turn, the reversed loop, and a second half-turn cancel
all dynamical phase. The surviving rotation depends only on the cone
geometry, so dialing the cone angle and tilting the drive synthesizes
any target rotation about an xz axis. Two such rotations with distinct
axes generate all of SU(2); a commutator witness certifies the pair.
"""
import numpy as np

from tqdecho import (
    LoopParams,
    SingleGateSpec,
    StepPolicy,
    build_echo_sequence,
    closed_form_echo_gate,
    echo_phase_decomposition,
    evolve_eigenstate,
    gate_distance,
    synthesize_single_gate,
    universality_check,
)

pol = StepPolicy(substeps=1024)
p = LoopParams(theta=np.pi / 3, omega=1.0, omega0=1.0)

print("== echo refocusing ==")
sched = build_echo_sequence(p)
traj = evolve_eigenstate(sched, 0, pol, samples=256)
dec = echo_phase_decomposition(traj, 0)
print(f"residual dynamical phase {dec.dynamical:+.2e} (cancels exactly)")
print(f"geometric survivor       {dec.geometric:+.6f}")
dist = gate_distance(traj.final_propagator, closed_form_echo_gate(p))
print(f"distance to closed-form echo gate {dist:.2e}")

print()
print("== named gate synthesis ==")
targets = {
    "z phase pi/3": SingleGateSpec(0.0, np.pi / 3),
    "x half turn": SingleGateSpec(np.pi / 2, np.pi / 2),
    "x quarter turn": SingleGateSpec(np.pi / 2, np.pi / 4),
    "generic (1.1, 2.3)": SingleGateSpec(1.1, 2.3),
}
for name, spec in targets.items():
    rep = synthesize_single_gate(spec, policy=pol)
    print(
        f"  {name:20s} cone={rep.cone_angle:.4f} tilt={rep.rotation:+.4f}"
        f"  distance={rep.distance:.2e}"
    )

print()
print("== universality witness ==")
g1 = SingleGateSpec(0.0, np.pi / 3)
g2 = SingleGateSpec(np.pi / 2, np.pi / 2)
rep = universality_check(g1, g2)
print(f"witness w = {rep.witness:+.6f}")
print(f"commutator norm {rep.commutator_norm:.6f} vs predicted {rep.predicted_norm:.6f}")
print(f"pair generates SU(2): {rep.generates_su2}")

# a degenerate pair for contrast: same axis, witness vanishes
rep0 = universality_check(SingleGateSpec(0.3, 1.0), SingleGateSpec(0.3, 2.0))
print(f"same-axis pair witness {rep0.witness:+.1e}, generates: {rep0.generates_su2}")
