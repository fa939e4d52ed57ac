"""Charged layers relaxing in a quiescent fluid, with the energy audits on.

Two phase-shifted charge layers (v = 1 + sin(x)/2, w = 1 + sin(y)/2) set up
an electric field that stirs the fluid while diffusion and drift erase the
charge imbalance.  Along the way the audit ledger tracks two balances:

* the charge-energy identity, whose residual is pure time-discretization
  error (watch it sit orders of magnitude below the charges themselves);
* the velocity/potential decay margin, which must stay nonnegative and in
  fact reproduces the sign-definite coupling integral it came from.
"""

import ehd

grid = ehd.Grid(32)
state = ehd.charged_shear(grid)
ledger = ehd.AuditLedger.from_state(state)
rows = []


def audit(state, _, dt):
    rows.append(ledger.update(state, dt))


report = ehd.run(state, ehd.StepControl(dt=1e-3, t_end=0.2), hooks=[audit])
print(f"run status: {report.status.value}, {report.steps} steps")
print(f"initial energies: charges {ledger.e0_charges:.4f}, "
      f"velocity+potential {ledger.e0_vel:.4f}\n")

print(f"{'t':>6} {'identity res':>13} {'decay margin':>13} "
      f"{'coupling int':>13} {'min charge':>11}")
for r in rows[:: max(1, len(rows) // 10)]:
    print(f"{r.t:6.3f} {r.charge_identity_residual:13.3e} "
          f"{r.velocity_margin:13.6f} {ledger.d_coupling:13.6f} "
          f"{ledger.min_charge:11.4f}")

print(f"\nworst identity residual:    {ledger.max_charge_residual:.3e}")
print(f"worst margin-vs-coupling:   {ledger.max_margin_mismatch:.3e} (relative)")
print(f"charges stayed above:       {ledger.min_charge:.4f}")
print("\nthe margin column converges to the coupling integral: the decay")
print("inequality is the exact balance with that nonnegative term dropped.")
