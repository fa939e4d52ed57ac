"""Decaying Taylor-Green vortex: the pure-fluid regression in miniature.

With both charge densities zero the system is plain incompressible
viscous flow, and u = (sin x cos y, -cos x sin y, 0) e^{-2t} is an exact
solution: its advection term is a pure gradient, so the projected
nonlinearity vanishes and only the (exactly integrated) diffusion acts.
This script advances the flow and prints the kinetic energy against the
closed-form law 4 pi^3 e^{-4t}, then the pointwise field error.
"""

import math

import numpy as np

import ehd

grid = ehd.Grid(32)
state = ehd.taylor_green(grid)
control = ehd.StepControl(dt=1e-3, t_end=0.4)

samples = []


def record(state, _, dt):
    energy = sum(ehd.l2_norm_sq(c) for c in state.u_hat.components)
    samples.append((state.t, energy))


report = ehd.run(state, control, hooks=[record])
print(f"run status: {report.status.value}, {report.steps} steps, "
      f"{report.wall_seconds:.1f}s\n")

print(f"{'t':>6} {'energy':>12} {'analytic':>12} {'rel err':>10}")
for t, energy in samples[:: len(samples) // 8]:
    analytic = 4.0 * math.pi**3 * math.exp(-4.0 * t)
    print(f"{t:6.3f} {energy:12.6f} {analytic:12.6f} "
          f"{abs(energy - analytic) / analytic:10.2e}")

final = report.final_state
exact = ehd.taylor_green_velocity(grid, final.t)
err = max(
    np.abs(a.samples - b.samples).max()
    for a, b in zip(final.u.components, exact.components)
)
print(f"\nmax-norm field error at t={final.t:.2f}: {err:.2e}")
print("the integrating-factor step makes this flow exact to roundoff.")
