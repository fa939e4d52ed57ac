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
    VOLUME,
    RealField,
    forward_transform,
    grad_l2_norm_sq,
    l2_norm_sq,
    lp_norm,
    sobolev_norm,
    spectral_power,
    vector_magnitude,
)

CHARGE_IDENTITY_TOL = 1e-5
DECAY_MARGIN_TOL = 1e-6


def positivity_term(state: State) -> float:
    """int (v+w)(v-w)^2 dx by the uniform grid sum (exact for dealiased fields)."""
    v, w = state.v.samples, state.w.samples
    return float(np.sum((v + w) * (v - w) ** 2) * state.grid.cell_volume)


def _u_h3_norm(state: State) -> float:
    return math.sqrt(sum(sobolev_norm(c, 3.0) ** 2 for c in state.u_hat.components))


def _velocity_energy(state: State) -> float:
    """||u||^2 + ||grad psi||^2, the energy of the velocity / potential balance."""
    return sum(l2_norm_sq(c) for c in state.u_hat.components) + grad_l2_norm_sq(state.psi_hat)


def log_sobolev_ratio(state: State) -> float:
    """||grad u||_inf / (1 + ||omega||_2 + ||omega||_inf ln(e + ||u||_H3)).

    The bounding constant is not known, so only boundedness of this series
    over a smooth run is meaningful; monotone unbounded growth is flagged in
    the report.
    """
    num = lp_norm(state.grad_u_magnitude(), math.inf)
    omega_mag = vector_magnitude(state.omega)
    denom = 1.0 + lp_norm(omega_mag, 2.0) + lp_norm(omega_mag, math.inf) * math.log(
        math.e + _u_h3_norm(state)
    )
    return num / denom


def y_growth(state: State) -> float:
    """Y(t) = e + ||u||_H3^2 + ||v||_H2^2 + ||w||_H2^2."""
    return (
        math.e
        + _u_h3_norm(state) ** 2
        + sobolev_norm(state.v_hat, 2.0) ** 2
        + sobolev_norm(state.w_hat, 2.0) ** 2
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
    F = forward_transform(f)
    l2_sq = l2_norm_sq(F)
    grad_sq = grad_l2_norm_sq(F)
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
    charge_tol: float = CHARGE_IDENTITY_TOL
    _last: dict | None = None

    @classmethod
    def from_state(cls, state: State) -> "AuditLedger":
        e0_charges = l2_norm_sq(state.v_hat) + l2_norm_sq(state.w_hat)
        return cls(e0_charges=e0_charges, e0_vel=_velocity_energy(state))

    # -- balance checks ----------------------------------------------------

    def check_charge_identity(self, state: State, tol: float | None = None) -> float:
        """Relative residual of the exact charge-energy identity; flags above tol."""
        tol = self.charge_tol if tol is None else tol
        lhs = (
            l2_norm_sq(state.v_hat)
            + l2_norm_sq(state.w_hat)
            + self.d_charges
            + self.d_cross
        )
        residual = abs(lhs - self.e0_charges) / max(self.e0_charges, 1e-300)
        if residual > tol:
            self.flags.append(
                f"charge identity residual {residual:.3e} above {tol:.1e} at t={state.t:.6f}"
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
        lap_psi_sq = float(VOLUME * ((g.k2**2) * spectral_power(state.psi_hat)).sum())
        dpsi = state.grad_psi  # shared with the solver's CFL bound and stage 1
        coupling = 0.0
        if dpsi is not None:
            grad_psi_mag_sq = dpsi[0] ** 2 + dpsi[1] ** 2 + dpsi[2] ** 2
            coupling = 2.0 * float(np.sum(state.zeta.samples * grad_psi_mag_sq) * g.cell_volume)

        integrands = {
            "charges": 2.0
            * (grad_l2_norm_sq(state.v_hat) + grad_l2_norm_sq(state.w_hat)),
            "cross": positivity_term(state),
            "vel": 2.0
            * (sum(grad_l2_norm_sq(c) for c in state.u_hat.components) + lap_psi_sq),
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
        """Extrema for the run report; NaNs serialized as strings."""
        ls_values = [r for _, r in self.ls_ratio_series]
        return jsonable({
            "e0_charges": self.e0_charges,
            "e0_vel": self.e0_vel,
            "max_charge_identity_residual": self.max_charge_residual,
            "min_velocity_margin": self.min_velocity_margin,
            "max_margin_vs_coupling_mismatch": self.max_margin_mismatch,
            "min_charge_value": self.min_charge,
            "max_ls_ratio": max(ls_values) if ls_values else math.nan,
            "final_y": self.y_series[-1][1] if self.y_series else math.nan,
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
