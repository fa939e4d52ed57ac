"""Named initial-condition presets.

All presets produce neutral charge data (mean(v) = mean(w)), nonnegative
charges, and a divergence-free velocity.  The randomized preset uses the
counter-based Philox generator so a seed reproduces bit-identical fields
across platforms; its coefficients, forward transforms of real samples
times a real envelope, take their inverse transforms with no Hermitian
check.
"""

from __future__ import annotations

import numpy as np

from .solver import State
from .spectral import (
    Grid,
    RealField,
    VectorField,
    _samples_from_coeffs,
    _zero_coeffs,
    curl,
    forward_transform,
    l2_norm_sq,
)


def _full(grid: Grid, values) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=np.float64)


def _zero(grid: Grid) -> RealField:
    return RealField(grid, np.zeros((grid.n,) * 3))


def taylor_green(grid: Grid) -> State:
    """Decaying planar vortex array; charges zero, so the flow is pure Navier-Stokes."""
    return State(u=taylor_green_velocity(grid, 0.0), v=_zero(grid), w=_zero(grid))


def taylor_green_velocity(grid: Grid, t: float) -> VectorField:
    """Analytic solution u = (sin x cos y, -cos x sin y, 0) exp(-2t)."""
    decay = np.exp(-2.0 * t)
    return VectorField(
        RealField(grid, _full(grid, np.sin(grid.x) * np.cos(grid.y)) * decay),
        RealField(grid, _full(grid, -np.cos(grid.x) * np.sin(grid.y)) * decay),
        _zero(grid),
    )


def charged_shear(grid: Grid) -> State:
    """Quiescent fluid with phase-shifted charge layers: v = 1 + sin(x)/2, w = 1 + sin(y)/2."""
    v = RealField(grid, _full(grid, 1.0 + 0.5 * np.sin(grid.x)))
    w = RealField(grid, _full(grid, 1.0 + 0.5 * np.sin(grid.y)))
    u = VectorField(_zero(grid), _zero(grid), _zero(grid))
    return State(u=u, v=v, w=w)


def _smooth_scalar(grid: Grid, rng, peak_wavenumber: float) -> RealField:
    """Mean-free random field with a Gaussian spectral envelope around the peak."""
    c = forward_transform(RealField(grid, rng.standard_normal((grid.n,) * 3))).coeffs
    c *= np.exp(-((grid.block.kmag / peak_wavenumber) ** 2))
    c[0, 0, 0] = 0.0
    return RealField(grid, _samples_from_coeffs(grid, c, _zero_coeffs(grid)))


def random_smooth(
    grid: Grid, seed: int, energy: float = 1.0, peak_wavenumber: float = 3.0
) -> State:
    """Random solenoidal velocity with prescribed kinetic energy plus neutral charges.

    The velocity is the curl of a random smooth vector potential (exactly
    divergence-free), rescaled so that ||u||_L2^2 = energy.  Charges are
    1 + perturbation/2 with mean-free perturbations of unit grid maximum, so
    v, w >= 1/2 and mean(v - w) = 0.
    """
    if not 0 <= energy < np.inf:
        need = "nonnegative" if energy < 0 else "finite"
        raise ValueError(f"energy must be {need}, got {energy}")
    if not 0 < peak_wavenumber < np.inf:
        raise ValueError(f"peak_wavenumber must be finite and positive, got {peak_wavenumber}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    potential = [forward_transform(_smooth_scalar(grid, rng, peak_wavenumber)) for _ in range(3)]
    u_hat = curl(VectorField(*potential)).components
    raw = sum(l2_norm_sq(c) for c in u_hat)
    if energy > 0 and raw > 0:
        scale, full = np.sqrt(energy / raw), _zero_coeffs(grid)
        u = VectorField(*[RealField(grid, _samples_from_coeffs(grid, c.coeffs * scale, full))
                          for c in u_hat])
    else:
        u = VectorField(_zero(grid), _zero(grid), _zero(grid))

    v_pert = _smooth_scalar(grid, rng, peak_wavenumber).samples
    w_pert = _smooth_scalar(grid, rng, peak_wavenumber).samples
    v_pert /= max(np.abs(v_pert).max(), 1e-300)
    w_pert /= max(np.abs(w_pert).max(), 1e-300)
    v = RealField(grid, 1.0 + 0.5 * v_pert)
    w = RealField(grid, 1.0 + 0.5 * w_pert)
    return State(u=u, v=v, w=w)


# name -> (builder called as builder(grid, **params), parameter types,
# required parameters).  from_checkpoint reads its state from a file.
PRESETS = {
    "taylor_green": (taylor_green, {}, ()),
    "charged_shear": (charged_shear, {}, ()),
    "random_smooth": (
        random_smooth,
        {"seed": int, "energy": float, "peak_wavenumber": float},
        ("seed",),
    ),
    "from_checkpoint": (None, {"path": str}, ("path",)),
}
