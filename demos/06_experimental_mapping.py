"""Static-coupling realization of the conditional drive.

The corrected conditional field is exactly reproducible with a fixed
xz cross coupling, the original zz coupling, and a rescaled tilted drive
rotating at the loop rate, plus a uniform z ramp on the control during
the loops. Maps the parameters, checks the fields agree pointwise, and
compares the full echo propagators.
"""
import numpy as np

from tqdecho import (
    StepPolicy,
    TwoQubitParams,
    experimental_params,
    verify_exp_equivalence,
)

p = TwoQubitParams(omega_i=1.0, coupling=1.0, omega=0.5)

print("== parameter map ==")
for tag, params in (("forward", p), ("reversed", p.reversed())):
    e = experimental_params(params)
    print(f"{tag} loop:")
    print(f"  cross coupling J_xz   = {e.j_xz:+.6f}")
    print(f"  retained J_zz         = {e.j_zz:+.6f}")
    print(f"  drive magnitude       = {e.omega_i_prime:.12f}")
    print(f"  drive tilt            = {e.theta_prime:.12f} rad"
          f" ({'obtuse' if e.theta_prime > np.pi / 2 else 'acute'})")

print()
print("== equivalence check ==")
rep = verify_exp_equivalence(p, policy=StepPolicy(substeps=2048), field_draws=100)
print(f"max field deviation over {rep.field_draws} lattice draws: {rep.max_field_deviation:.2e}")
print(f"echo propagator distance, conditional vs mapped drive:  {rep.gate_deviation:.2e}")
print()
print("The z ramp on the control has opposite sign on the reversed loop,")
print("so its net effect over the echo cancels; only the loop segments")
print("carry it, idles and pulses do not.")
