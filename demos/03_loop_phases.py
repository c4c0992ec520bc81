"""Phase bookkeeping around one closed loop.

Splits the total phase acquired by a tracked eigenstate into its
dynamical and geometric parts and compares both against closed forms:
dynamical -(1-2p) * omega0 T / 2, geometric (2p-1) * pi * (1 - cos theta)
up to whole turns: the geometric part is read in (-pi, pi], and the
dynamical part carries the whole turns. Reversing the traversal flips
the geometric part only, modulo 2 pi (at theta = pi/2 it is pi either way).
"""
import numpy as np

from tqdecho import (
    LoopParams,
    StepPolicy,
    evolve_eigenstate,
    loop_phase_decomposition,
    single_loop_schedule,
    solid_angle,
)

pol = StepPolicy(substeps=2048)

for theta in (np.pi / 6, np.pi / 3, np.pi / 2):
    print(f"== cone angle {theta:.4f} (solid angle {solid_angle(theta):.4f}) ==")
    for orientation in (+1.0, -1.0):
        p = LoopParams(theta=theta, omega=orientation, omega0=1.0)
        for label in (0, 1):
            traj = evolve_eigenstate(single_loop_schedule(p), label, pol, samples=512)
            d = loop_phase_decomposition(traj, label)
            print(
                f"  omega={orientation:+.0f} p={label}"
                f"  total={d.total:+9.5f}  dyn={d.dynamical:+9.5f}"
                f"  geo={d.geometric:+9.5f}"
                f"  |geo - expected| mod 2pi = {d.geometric_deviation:.2e}"
            )
    print()

print("Spot check at theta=pi/3, omega=omega0, p=0:")
print("  dynamical -pi, geometric -pi/2, total -3pi/2 =", -1.5 * np.pi)
