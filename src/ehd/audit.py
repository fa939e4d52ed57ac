"""Numerical audits of the exact energy balances and growth monitors.

Two balances are tracked against the initial energies.  The charge balance
is an exact identity,

    ||v||^2 + ||w||^2 + 2 int (||grad v||^2 + ||grad w||^2)
                      + int int (v+w)(v-w)^2  =  ||v0||^2 + ||w0||^2

(in the symmetrized variables zeta = v+w, eta = v-w this is the energy
balance with a doubled cross term; halving the norms halves it back), so
its residual measures pure time-discretization error.  The velocity /
potential balance carries a sign-definite coupling term,

    ||u||^2 + ||grad psi||^2 + 2 int (||grad u||^2 + ||lap psi||^2)
            + 2 int int (v+w) |grad psi|^2  =  ||u0||^2 + ||grad psi0||^2,

whose nonnegativity (for nonnegative charges) is what turns the balance
into a decay inequality; the audit reconstructs the full pre-drop balance
so the decay margin has a definite expected value.  Inequalities with
unknown constants (the logarithmic gradient bound, the interpolation
ratios) are monitored as ratio series only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import jsonable
from .solver import State
from .spectral import (
    RealField,
    forward_transform,
    lp_norm,
    power_sum,
    sobolev_weights,
    spectral_power,
)

CHARGE_IDENTITY_TOL = 1e-5
DECAY_MARGIN_TOL = 1e-6


def positivity_term(state: State) -> float:
    """int (v+w)(v-w)^2 dx by the uniform grid sum (exact for dealiased fields)."""
    return float(np.sum(state.zeta.samples * state.eta.samples**2) * state.grid.cell_volume)


def kinetic_energy(state: State) -> float:
    """||u||^2."""
    return sum(power_sum(p) for p in state.u_power)


def potential_energy(state: State) -> float:
    """||grad psi||^2."""
    return power_sum(state.psi_power, state.grid.k2)


def _velocity_energy(state: State) -> float:
    """||u||^2 + ||grad psi||^2, the energy of the velocity / potential balance."""
    return kinetic_energy(state) + potential_energy(state)


def _charge_energy(state: State) -> float:
    """||v||^2 + ||w||^2."""
    return power_sum(state.v_power) + power_sum(state.w_power)


def log_sobolev_ratio(state: State) -> float:
    """||grad u||_inf / (1 + ||omega||_2 + ||omega||_inf ln(e + ||u||_H3)).

    The bounding constant is not known, so only boundedness of this series
    over a smooth run is meaningful; monotone unbounded growth is flagged in
    the report.
    """
    num = lp_norm(state.grad_u_magnitude, math.inf)
    omega_mag = state.omega_magnitude
    denom = 1.0 + lp_norm(omega_mag, 2.0) + lp_norm(omega_mag, math.inf) * math.log(
        math.e + state.u_h3_norm
    )
    return num / denom


def y_growth(state: State) -> float:
    """Y(t) = e + ||u||_H3^2 + ||v||_H2^2 + ||w||_H2^2."""
    h2 = sobolev_weights(state.grid, 2.0)
    # Each H2 norm is the root `sobolev_norm` takes, squared: the same bits.
    return (
        math.e
        + state.u_h3_norm ** 2
        + math.sqrt(power_sum(state.v_power, h2)) ** 2
        + math.sqrt(power_sum(state.w_power, h2)) ** 2
    )


def interpolation_ratios(f: RealField) -> tuple[float, float]:
    """Gagliardo-Nirenberg ratios (L4 and L3 against L2/grad-L2 products).

    Scale-invariant by construction (degree-zero homogeneity in f).  For a
    constant field the gradient vanishes and the ratios are undefined;
    reported as NaN (not applicable).  An identically zero field (the
    charges of an uncharged run) is answered before any transform.
    """
    if not f.samples.any():
        return (math.nan, math.nan)
    power = spectral_power(forward_transform(f))
    l2_sq = power_sum(power)
    grad_sq = power_sum(power, f.grid.k2)
    if grad_sq <= 1e-24 * max(l2_sq, 1e-300):
        return (math.nan, math.nan)
    l2 = math.sqrt(l2_sq)
    g2 = math.sqrt(grad_sq)
    r4 = lp_norm(f, 4.0) / (l2**0.25 * g2**0.75)
    r3 = lp_norm(f, 3.0) / (math.sqrt(l2) * math.sqrt(g2))
    return (r4, r3)


def gn_ratios(state: State) -> tuple[float, float]:
    """Interpolation ratios evaluated on the charge density v."""
    return interpolation_ratios(state.v)


@dataclass
class AuditRecord:
    """One audited step; its fields, in order, are the audit CSV columns."""

    t: float
    charge_identity_residual: float
    velocity_margin: float
    positivity_term: float
    ls_ratio: float
    y: float
    gn_ratio_l4: float
    gn_ratio_l3: float


@dataclass
class AuditLedger:
    """Initial energies plus running dissipation integrals for one run."""

    e0_charges: float
    e0_vel: float
    d_charges: float = 0.0  # 2 int (||grad v||^2 + ||grad w||^2)
    d_cross: float = 0.0  # int int (v+w)(v-w)^2
    d_vel: float = 0.0  # 2 int (||grad u||^2 + ||lap psi||^2)
    d_coupling: float = 0.0  # 2 int int (v+w)|grad psi|^2
    y_series: list = field(default_factory=list)
    ls_ratio_series: list = field(default_factory=list)
    min_charge: float = math.inf
    max_charge_residual: float = 0.0
    min_velocity_margin: float = math.inf
    max_margin_mismatch: float = 0.0  # |margin - d_coupling| / e0_vel
    flags: list = field(default_factory=list)
    _last: dict | None = None

    @classmethod
    def from_state(cls, state: State) -> "AuditLedger":
        return cls(e0_charges=_charge_energy(state), e0_vel=_velocity_energy(state))

    # -- balance checks ----------------------------------------------------

    def check_charge_identity(self, state: State) -> float:
        """Relative residual of the exact charge-energy identity; flags above
        CHARGE_IDENTITY_TOL."""
        lhs = _charge_energy(state) + self.d_charges + self.d_cross
        residual = abs(lhs - self.e0_charges) / max(self.e0_charges, 1e-300)
        if residual > CHARGE_IDENTITY_TOL:
            self.flags.append(
                f"charge identity residual {residual:.3e} above {CHARGE_IDENTITY_TOL:.1e} "
                f"at t={state.t:.6f}"
            )
        return residual

    def check_velocity_decay(self, state: State) -> float:
        """Decay margin e0 - (||u||^2 + ||grad psi||^2 + d_vel).

        Nonnegative (within tolerance) whenever the charges are nonnegative;
        equals the accumulated coupling integral d_coupling up to time
        quadrature, which pins its expected value.
        """
        margin = self.e0_vel - (_velocity_energy(state) + self.d_vel)
        if margin < -DECAY_MARGIN_TOL * max(self.e0_vel, 1e-300):
            self.flags.append(
                f"velocity decay margin {margin:.3e} negative beyond tolerance "
                f"at t={state.t:.6f}"
            )
        return margin

    # -- per-step update ---------------------------------------------------

    def update(self, state: State, dt: float) -> AuditRecord:
        """Accumulate dissipation integrals (trapezoid) and evaluate all monitors."""
        g = state.grid
        lap_psi_sq = power_sum(state.psi_power, g.table("k4", lambda: g.k2**2))
        dpsi = state.grad_psi  # shared with the solver's CFL bound and stage 1
        coupling = 0.0
        if dpsi is not None:
            grad_psi_mag_sq = dpsi[0] ** 2 + dpsi[1] ** 2 + dpsi[2] ** 2
            coupling = 2.0 * float(np.sum(state.zeta.samples * grad_psi_mag_sq) * g.cell_volume)

        integrands = {
            "charges": 2.0
            * (power_sum(state.v_power, g.k2) + power_sum(state.w_power, g.k2)),
            "cross": positivity_term(state),
            "vel": 2.0 * (sum(power_sum(p, g.k2) for p in state.u_power) + lap_psi_sq),
            "coupling": coupling,
        }
        if self._last is not None and dt > 0.0:
            self.d_charges += 0.5 * dt * (self._last["charges"] + integrands["charges"])
            self.d_cross += 0.5 * dt * (self._last["cross"] + integrands["cross"])
            self.d_vel += 0.5 * dt * (self._last["vel"] + integrands["vel"])
            self.d_coupling += 0.5 * dt * (self._last["coupling"] + integrands["coupling"])
        self._last = integrands

        residual = self.check_charge_identity(state)
        margin = self.check_velocity_decay(state)
        lsr = log_sobolev_ratio(state)
        y = y_growth(state)
        gn4, gn3 = gn_ratios(state)

        self.max_charge_residual = max(self.max_charge_residual, residual)
        self.min_velocity_margin = min(self.min_velocity_margin, margin)
        self.max_margin_mismatch = max(
            self.max_margin_mismatch,
            abs(margin - self.d_coupling) / max(self.e0_vel, 1e-300),
        )
        self.min_charge = min(
            self.min_charge,
            float(state.v.samples.min()),
            float(state.w.samples.min()),
        )
        self.y_series.append((state.t, y))
        self.ls_ratio_series.append((state.t, lsr))

        return AuditRecord(
            t=state.t,
            charge_identity_residual=residual,
            velocity_margin=margin,
            positivity_term=integrands["cross"],
            ls_ratio=lsr,
            y=y,
            gn_ratio_l4=gn4,
            gn_ratio_l3=gn3,
        )

    def summary(self) -> dict:
        """Extrema for the run report (NaN when nothing was audited); NaNs serialized as strings."""
        ls_values = [r for _, r in self.ls_ratio_series]
        audited = bool(self.y_series)  # false until update has run
        return jsonable({
            "e0_charges": self.e0_charges,
            "e0_vel": self.e0_vel,
            "max_charge_identity_residual": self.max_charge_residual if audited else math.nan,
            "min_velocity_margin": self.min_velocity_margin if audited else math.nan,
            "max_margin_vs_coupling_mismatch": self.max_margin_mismatch if audited else math.nan,
            "min_charge_value": self.min_charge if audited else math.nan,
            "max_ls_ratio": max(ls_values) if audited else math.nan,
            "final_y": self.y_series[-1][1] if audited else math.nan,
            # Heuristic for "growing without bound": strictly monotone over
            # the whole run AND at least doubled.  Small monotone creep is
            # normal on decaying flows.
            "ls_ratio_monotone_growth": bool(
                len(ls_values) > 2
                and all(b > a for a, b in zip(ls_values, ls_values[1:]))
                and ls_values[-1] >= 2.0 * max(ls_values[0], 1e-300)
            ),
            "flags": list(self.flags),
        })
