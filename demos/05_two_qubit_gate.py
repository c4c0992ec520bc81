"""Conditional two-qubit phase gate from a static coupling.

The driven qubit sees a different effective cone depending on the control
state, so one echo imprints control-conditioned geometric phases
(-1)^(p+q) * 2*delta_omega in the coupled eigenbasis. Also probes how
stray fields on the control affect the gate: a constant z drift
refocuses, transverse components do not.
"""
import numpy as np

from tqdecho import (
    StepPolicy,
    TwoQubitParams,
    delta_omega,
    echo_phase_decomposition,
    evolve_eigenstate,
    build_two_qubit_sequence,
    reduced_model_deviation,
    synthesize_two_qubit_gate,
)

p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)
pol = StepPolicy(substeps=8192)

print("== gate synthesis ==")
rep = synthesize_two_qubit_gate(p, policy=pol)
print(f"delta_omega = 2 pi J / nu = {rep.delta_omega:.12f}")
print(f"  (J = {p.coupling}, nu = {p.rabi:.6f}; at J = omega_I this is 2 pi / sqrt 2)")
print(f"eigenbasis leakage    {rep.leakage:.2e}")
print(f"worst phase residual  {max(rep.phase_residuals):.2e}")
print(f"distance to target    {rep.distance:.2e}")

print()
print("== per-sector phases ==")
sched = build_two_qubit_sequence(p)
for p_lbl, q_lbl in ((0, 0), (1, 0), (0, 1), (1, 1)):
    traj = evolve_eigenstate(sched, (p_lbl, q_lbl), pol, samples=256)
    dec = echo_phase_decomposition(traj, (p_lbl, q_lbl))
    print(
        f"  (p,q)=({p_lbl},{q_lbl})  total={dec.total:+10.6f}"
        f"  expected={(1 if (p_lbl + q_lbl) % 2 == 0 else -1) * 2 * delta_omega(p):+10.6f}"
        f"  residual dyn={dec.dynamical:+.1e}"
    )

print()
print("== control-field robustness ==")
print("constant z drift on the control commutes with the loop blocks and")
print("the control flip swaps sectors, so the echo cancels it:")
for rate in (0.1, 0.3, 1.0):
    out = reduced_model_deviation(p, (0.0, 0.0, rate))
    print(f"  z rate {rate:4.1f}: gate deviation {out['gate_deviation']:.2e}")
print("transverse components break the block structure and leak:")
for amp in (0.02, 0.05, 0.2):
    out = reduced_model_deviation(p, (amp, 0.0, 0.0))
    print(
        f"  x amp {amp:5.2f}: gate deviation {out['gate_deviation']:.3e}"
        f"  leakage {out['leakage']:.3f}"
    )
