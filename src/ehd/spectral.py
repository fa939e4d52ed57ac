"""Spectral fields and operators on the periodic box [0, 2*pi)^3.

Fourier convention: a real field is represented as f(x) = sum_k c_k exp(i k.x)
over integer wavenumbers k, so a unit cosine carries a conjugate pair of
coefficients of value 1/2, and Parseval reads ||f||_L2^2 = (2*pi)^3 sum |c_k|^2.

Because fields are real, only the half-spectrum kz >= 0 is stored (shape
(n, n, n/2+1)); the kz < 0 modes are the implied conjugates.  Hermitian
symmetry then lives on the kz = 0 and kz = n/2 planes, where c(-kx,-ky) must
equal conj(c(kx,ky)).  Lattice sums over all modes weight the stored interior
modes by two (`Grid.mult`).  Every spectral field is kept dealiased by the
2/3 rule (modes with any |k_i| > n/3 are zero), which makes quadratic
products alias-free and grid sums of triple products exact.

All operations are pure functions of their field snapshots; constructed
fields are safe to share across threads.  Transforms run on one thread, and
outputs are bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

VOLUME = (2.0 * np.pi) ** 3

NEUTRALITY_TOL = 1e-10


class GridMismatchError(ValueError):
    """Fields from different grids were combined."""


class NonFiniteFieldError(ValueError):
    """A field contains NaN or infinite samples."""


class HermitianSymmetryError(ValueError):
    """Spectral coefficients do not describe a real field."""


class ChargeNeutralityError(ValueError):
    """Poisson right-hand side has a nonzero mean."""


class Grid:
    """Uniform n^3 periodic grid with wavenumber tables and dealias mask.

    n must be a power of two >= 8.  Wavenumbers are the integers
    -n/2 .. n/2-1 per axis (kz stored as 0 .. n/2); the unmatched Nyquist
    row is removed by the dealias mask together with everything above n/3.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid resolution must be a power of two >= 8, got {n}")
        self.n = n
        self.length = 2.0 * np.pi
        self.spacing = self.length / n
        self.cell_volume = self.spacing**3

        k = np.fft.fftfreq(n, d=1.0 / n)  # exact integers 0..n/2-1, -n/2..-1
        kz_half = np.fft.rfftfreq(n, d=1.0 / n)  # 0..n/2
        self.k1d = k
        self.kx = k[:, None, None]
        self.ky = k[None, :, None]
        self.kz = kz_half[None, None, :]
        self.k2 = self.kx**2 + self.ky**2 + self.kz**2
        self.kmag = np.sqrt(self.k2)
        inv = np.zeros_like(self.k2)
        np.divide(1.0, self.k2, out=inv, where=self.k2 > 0)
        self.inv_k2 = inv

        # Multiplicity of each stored mode in full-lattice sums: interior
        # kz planes stand for themselves and their conjugates.
        mult = np.full_like(kz_half, 2.0)
        mult[0] = 1.0
        mult[-1] = 1.0
        self.mult = mult[None, None, :]

        cut = n / 3.0
        self.dealias_mask = (
            (np.abs(self.kx) <= cut) & (np.abs(self.ky) <= cut) & (np.abs(self.kz) <= cut)
        )

        x = self.spacing * np.arange(n)
        self.x = x[:, None, None]
        self.y = x[None, :, None]
        self.z = x[None, None, :]

        # Tables derived from the wavenumbers (weights, diffusion factors),
        # computed on first use by the modules that need them.
        self.tables: dict = {}

    def table(self, key, make) -> np.ndarray:
        """The table stored under key, built by make() on first request."""
        value = self.tables.get(key)
        if value is None:
            value = self.tables[key] = make()
        return value

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n // 2 + 1)

    def __repr__(self):
        return f"Grid(n={self.n})"


@dataclass
class RealField:
    """Scalar field sampled at the n^3 uniform nodes."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n,) * 3
        if self.samples.shape != shape:
            raise ValueError(f"expected samples of shape {shape}, got {self.samples.shape}")


@dataclass
class SpectralField:
    """Scalar field as half-spectrum complex coefficients (dealiased, Hermitian)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectral_shape:
            raise ValueError(
                f"expected coefficients of shape {self.grid.spectral_shape}, "
                f"got {self.coeffs.shape}"
            )


@dataclass
class VectorField:
    """Three scalar components (all real or all spectral) on one grid."""

    x: RealField | SpectralField
    y: RealField | SpectralField
    z: RealField | SpectralField

    def __post_init__(self):
        if not (type(self.x) is type(self.y) is type(self.z)):
            raise ValueError("vector components must share one representation")
        grids = [c.grid for c in self.components]
        if len({g.n for g in grids}) > 1:
            raise GridMismatchError(f"fields live on different grids: {grids}")

    @property
    def grid(self) -> Grid:
        return self.x.grid

    @property
    def components(self):
        return (self.x, self.y, self.z)


# The 1/n^3 of the Fourier convention is applied inside the transform
# (norm="forward").  n^3 is a power of two, so this equals dividing the
# unnormalized forward transform by n^3, bit for bit.
def _coeffs_from_samples(grid: Grid, samples: np.ndarray) -> np.ndarray:
    return _fft.rfftn(samples, norm="forward")


def _samples_from_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return _fft.irfftn(coeffs, s=(grid.n,) * 3, norm="forward")


def forward_transform(f: RealField) -> SpectralField:
    """Transform samples to dealiased spectral coefficients.

    Rejects non-finite input, naming the first offending node.
    """
    finite = np.isfinite(f.samples)
    if not finite.all():
        node = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteFieldError(
            f"non-finite sample {f.samples[node]} at grid node {node}"
        )
    coeffs = _coeffs_from_samples(f.grid, f.samples)
    coeffs *= f.grid.dealias_mask
    return SpectralField(f.grid, coeffs)


def _mirror_table(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a half-spectrum array of the kz = 0 and kz = n/2
    planes, shape (2, n*n), and of each entry's mirror (-kx, -ky, kz)."""
    n, nz = grid.n, grid.n // 2 + 1
    i = np.arange(n)
    m = -i % n
    planes = np.array([0, n // 2])[:, None, None]
    src = (i[:, None] * n + i[None, :]) * nz + planes
    mirror = (m[:, None] * n + m[None, :]) * nz + planes
    return src.reshape(2, -1), mirror.reshape(2, -1)


def hermitian_defect(F: SpectralField) -> float:
    """Max |c(k) - conj(c(-k))| over the self-conjugate kz planes.

    Away from the kz = 0 and kz = n/2 planes the half-spectrum storage makes
    the symmetry structural, so these planes carry the entire constraint.
    The planes are reduced one at a time and a NaN plane maximum drops out
    of the running maximum.
    """
    src, mirror = F.grid.table("mirror", lambda: _mirror_table(F.grid))
    mirrored = np.conjugate(F.coeffs.take(mirror))
    diff = np.subtract(F.coeffs.take(src), mirrored, out=mirrored)
    defect = 0.0
    for plane_max in np.abs(diff).max(axis=1):
        defect = max(defect, float(plane_max))
    return defect


def backward_transform(F: SpectralField) -> RealField:
    """Transform coefficients back to samples; rejects broken Hermitian symmetry.

    The tolerance is 1e-12 * max(1, max |c|), so a defect of at most 1e-12
    passes at any scale and the scale is only measured above that.
    """
    defect = hermitian_defect(F)
    if defect > 1e-12 and defect > 1e-12 * max(1.0, float(np.abs(F.coeffs).max())):
        raise HermitianSymmetryError(
            "coefficients violate c(-k) = conj(c(k)) on a self-conjugate plane; "
            "field is not real"
        )
    return RealField(F.grid, _samples_from_coeffs(F.grid, F.coeffs))


def gradient(F: SpectralField) -> VectorField:
    """Spectral gradient: component j is i*k_j*c(k)."""
    g = F.grid
    return VectorField(
        SpectralField(g, 1j * g.kx * F.coeffs),
        SpectralField(g, 1j * g.ky * F.coeffs),
        SpectralField(g, 1j * g.kz * F.coeffs),
    )


def divergence(U: VectorField) -> SpectralField:
    g = U.grid
    # 1j * (kx*cx + ky*cy + kz*cz), in that order, in two arrays.
    c = np.multiply(g.kx, U.x.coeffs)
    tmp = np.multiply(g.ky, U.y.coeffs)
    c += tmp
    c += np.multiply(g.kz, U.z.coeffs, out=tmp)
    return SpectralField(g, np.multiply(1j, c, out=c))


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField(F.grid, -F.grid.k2 * F.coeffs)


def curl(U: VectorField) -> VectorField:
    g = U.grid
    cx, cy, cz = U.x.coeffs, U.y.coeffs, U.z.coeffs
    return VectorField(
        SpectralField(g, 1j * (g.ky * cz - g.kz * cy)),
        SpectralField(g, 1j * (g.kz * cx - g.kx * cz)),
        SpectralField(g, 1j * (g.kx * cy - g.ky * cx)),
    )


def leray_project(U: VectorField) -> VectorField:
    """Remove the gradient part: P(u)_i = u_i - k_i (k.u)/|k|^2.

    Idempotent; divergence-free fields (including the mean mode) pass through.
    """
    g = U.grid
    projected = _leray_coeffs(g, *(c.coeffs.copy() for c in U.components))
    return VectorField(*(SpectralField(g, c) for c in projected))


def _leray_coeffs(grid: Grid, cx, cy, cz, work=None) -> tuple:
    """leray_project on raw coefficient arrays, in place; returns them.

    Computes c_i - k_i * ((kx*cx + ky*cy + kz*cz) * inv_k2) with the
    operations and operand order of that expression, in the two
    spectral-shape arrays of work (allocated when not given).
    """
    kd, tmp = work if work is not None else (np.empty_like(cx), np.empty_like(cx))
    np.multiply(grid.kx, cx, out=kd)
    kd += np.multiply(grid.ky, cy, out=tmp)
    kd += np.multiply(grid.kz, cz, out=tmp)
    kd *= grid.inv_k2
    for kk, c in zip((grid.kx, grid.ky, grid.kz), (cx, cy, cz)):
        c -= np.multiply(kk, kd, out=tmp)
    return cx, cy, cz


def solve_poisson(eta: SpectralField) -> SpectralField:
    """Solve laplacian(psi) = eta on the torus, with zero-mean gauge for psi.

    Requires |mean(eta)| <= 1e-10 (charge neutrality); otherwise the periodic
    problem has no solution and the call is rejected with the measured net
    charge.
    """
    g = eta.grid
    mean = eta.coeffs[0, 0, 0]
    if abs(mean) > NEUTRALITY_TOL:
        raise ChargeNeutralityError(
            f"right-hand side is not neutral: mean={mean.real:.6e}, "
            f"net charge over the box = {mean.real * VOLUME:.6e}"
        )
    psi = np.negative(eta.coeffs)
    psi *= g.inv_k2
    psi[0, 0, 0] = 0.0
    return SpectralField(g, psi)


def lp_norm(f: RealField, p: float) -> float:
    """L^p norm as the uniform Riemann sum; p = inf is the grid maximum."""
    if p < 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    if np.isinf(p):
        # max |samples| without an |samples| array; abs() clears the sign of -0.0 and NaN.
        return abs(max(float(f.samples.max()), -float(f.samples.min())))
    a = np.abs(f.samples)
    a **= p  # one temporary; numpy's scalar-power fast paths apply in place too
    return float((np.sum(a) * f.grid.cell_volume) ** (1.0 / p))


def spectral_power(F: SpectralField) -> np.ndarray:
    """|c_k|^2 with the conjugate modes counted (full-lattice power)."""
    return F.grid.mult * (F.coeffs.real**2 + F.coeffs.imag**2)


def power_sum(power: np.ndarray, weights: np.ndarray | None = None) -> float:
    """(2*pi)^3 sum weights * power: the squared norm whose Fourier weights
    are weights (1 when None) of the field with full-lattice power power."""
    if weights is None:
        return float(VOLUME * power.sum())
    return float(VOLUME * (weights * power).sum())


def sobolev_weights(grid: Grid, s: float) -> np.ndarray:
    """(1 + |k|^2)^s, kept on the grid."""
    return grid.table(("sobolev", float(s)), lambda: (1.0 + grid.k2) ** s)


def l2_norm_sq(F: SpectralField) -> float:
    """||f||_L2^2 from coefficients (Parseval)."""
    return power_sum(spectral_power(F))


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Inhomogeneous H^s norm ((2*pi)^3 sum (1+|k|^2)^s |c_k|^2)^(1/2)."""
    if s < 0:
        raise ValueError(f"Sobolev index must satisfy s >= 0, got {s}")
    return math.sqrt(power_sum(spectral_power(F), sobolev_weights(F.grid, s)))


def vector_forward(U: VectorField) -> VectorField:
    return VectorField(*[forward_transform(c) for c in U.components])


def vector_backward(U: VectorField) -> VectorField:
    return VectorField(*[backward_transform(c) for c in U.components])


def entry_magnitude(grid: Grid, rows) -> RealField:
    """Pointwise sqrt of the sum of squares of every entry of rows, in row
    order: a vector's magnitude, or a grad_u block's.  The sum starts from the
    first square, which is the sum from zero bit for bit (0 + x is x)."""
    first, *rest = [d for row in rows for d in row]
    sq = first**2
    for d in rest:
        sq += d**2
    return RealField(grid, np.sqrt(sq, out=sq))


def vector_magnitude(U: VectorField) -> RealField:
    """Pointwise Euclidean magnitude of a real vector field."""
    return entry_magnitude(U.grid, [[c.samples for c in U.components]])


def spectral_tail_fraction(*fields: SpectralField) -> float:
    """Energy fraction in the outer half of the retained band.

    Given several fields (the components of a vector field), the fraction
    of their summed power.  Reported beside grid-max L-inf values, which
    under-report for marginally resolved fields; a large tail means the
    maximum is not trustworthy.
    """
    g = fields[0].grid
    cap = np.floor(g.n / 3.0)
    outer = (
        (np.abs(g.kx) > cap / 2) | (np.abs(g.ky) > cap / 2) | (np.abs(g.kz) > cap / 2)
    )
    total = tail = 0.0
    for F in fields:
        power = spectral_power(F)
        total += power.sum()
        tail += power[np.broadcast_to(outer, power.shape)].sum()
    if total == 0.0:
        return 0.0
    return float(tail / total)
