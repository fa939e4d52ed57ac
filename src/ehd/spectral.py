"""Spectral fields and operators on the periodic box [0, 2*pi)^3.

Fourier convention: a real field is represented as f(x) = sum_k c_k exp(i k.x)
over integer wavenumbers k, so a unit cosine carries a conjugate pair of
coefficients of value 1/2, and Parseval reads ||f||_L2^2 = (2*pi)^3 sum |c_k|^2.

Every spectral field is dealiased by the 2/3 rule (modes with any |k_i| >
n/3 are zero), which makes quadratic products alias-free and grid sums of
triple products exact.  The modes the rule keeps form a box, `Grid.block`,
and that box is the one spectral layout: a `SpectralField`'s coefficients,
a state's, the solver's RK3 arithmetic and the observers' products all
live there.  Because fields are real, only its kz >= 0 half is stored; the
kz < 0 modes are the implied conjugates, so Hermitian symmetry lives on
the kz = 0 plane, where c(-kx,-ky) must equal conj(c(kx,ky)).  Lattice
sums over all modes weight the stored modes off that plane by two
(`Block.mult`).  Powers and norm weights are block arrays; a norm sums
its product in half-spectrum zeros (`_spread`), in the full layout's order.

All operations are pure functions of their field snapshots; constructed
fields are safe to share across threads.  Each transform runs on one thread
(the solver may run two at once, on separate arrays), and outputs are
bitwise deterministic.

Every transform passes through `_coeffs_from_samples` and
`_samples_from_coeffs`, which call scipy's pocketfft binding directly, bit
for bit what `scipy.fft.rfftn`/`irfftn` return without their per-call
checks.  They run only the 1-D lines that reach or leave the block, bit
for bit the block of the full transform.  A caller may give each the
array its output lands in (the forward's r2c pass, the inverse's samples).
They take the public call instead, then gather or scatter the block, when
the binding does not import, when `scipy.fft.rfftn`/`irfftn` is no longer
the function scipy had at import (a tracer counting transforms replaced
it), or when the forward's input is not native float64 samples.  The
inverse scatters any coefficients into its complex128 work array first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

try:
    from scipy.fft._pocketfft.pypocketfft import c2c as _c2c, c2r as _c2r, r2c as _r2c
except ImportError:
    _r2c = _c2c = _c2r = None
_RFFTN, _IRFFTN = _fft.rfftn, _fft.irfftn
_F8 = np.dtype(np.float64)

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
    """Uniform n^3 periodic grid with its wavenumbers and dealiased block.

    n must be a power of two >= 8.  Wavenumbers are the integers
    -n/2 .. n/2-1 per axis (kz stored as 0 .. n/2); the unmatched Nyquist
    row lies outside the block, with everything above n/3.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid resolution must be a power of two >= 8, got {n}")
        self.n = n
        self.spacing = 2.0 * np.pi / n
        self.cell_volume = self.spacing**3

        k = np.fft.fftfreq(n, d=1.0 / n)  # exact integers 0..n/2-1, -n/2..-1
        self.k1d = k
        self.kx = k[:, None, None]
        self.ky = k[None, :, None]
        self.kz = np.fft.rfftfreq(n, d=1.0 / n)[None, None, :]  # 0..n/2

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
    def block(self) -> Block:
        return self.table("block", lambda: Block(self))

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """The half spectrum's shape, that of a full transform."""
        return (self.n, self.n, self.n // 2 + 1)

    def __repr__(self):
        return f"Grid(n={self.n})"


class Block:
    """The modes the 2/3 rule keeps, every |k_i| <= c = n//3, as one compact
    array of shape (2c+1, 2c+1, c+1), with its kx, ky, kz, k2, kmag, inv_k2
    and mult (each mode's multiplicity in full-lattice sums: 1 on the kz = 0
    plane, 2 above it) tables.  Keeping these modes alone is the dealiasing.

    Rows keep the half spectrum's order, k = 0..c then -c..-1, so k = 0 is
    entry (0, 0, 0) and row i's mirror -k is row (-i) mod (2c+1).  In the
    half spectrum the block is four boxes, the low and high kx rows by the
    low and high ky rows; `pieces` pairs the slices of each in the block
    and in a half-spectrum array.  `rows` holds a half-spectrum array's two
    slices of kept rows (either axis), `planes` its kept kz planes.
    """

    def __init__(self, grid: Grid):
        n, c = grid.n, grid.n // 3
        self.shape = (2 * c + 1, 2 * c + 1, c + 1)
        self.rows, self.planes = (slice(0, c + 1), slice(n - c, None)), slice(0, c + 1)
        rows, kz = tuple(zip((slice(0, c + 1), slice(c + 1, None)), self.rows)), self.planes
        self.pieces = [((bx, by, kz), (fx, fy, kz)) for bx, fx in rows for by, fy in rows]
        k = grid.k1d[np.r_[0 : c + 1, n - c : n]]
        self.kx, self.ky, self.kz = k[:, None, None], k[None, :, None], grid.kz[..., kz]
        self.k2 = self.kx**2 + self.ky**2 + self.kz**2
        self.kmag = np.sqrt(self.k2)
        self.inv_k2 = np.zeros_like(self.k2)
        np.divide(1.0, self.k2, out=self.inv_k2, where=self.k2 > 0)
        self.mult = np.where(self.kz == 0, 1.0, 2.0)

    def gather(self, full: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The block of the half-spectrum array full, in out."""
        for b, f in self.pieces:
            out[b] = full[f]
        return out

    def scatter(self, block: np.ndarray, full: np.ndarray) -> np.ndarray:
        """full with block written into the block's modes; the rest untouched."""
        for b, f in self.pieces:
            full[f] = block[b]
        return full


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
    """Scalar field as complex coefficients on the dealiased block
    (`Grid.block`), Hermitian on its kz = 0 plane."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.block.shape:
            raise ValueError(
                f"expected coefficients of the block's shape {self.grid.block.shape}, "
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
# (norm="forward"; the binding's inorm 2 forward, 0 inverse).  n^3 is a power
# of two, so this equals dividing the unnormalized forward transform by n^3,
# bit for bit.
#
# Each helper runs rfftn's/irfftn's 1-D passes one axis at a time in their
# order (forward z, x, y; inverse x, y, z), on the lines that reach or leave
# the block only (FFT pruning), with the same inputs: the forward's 1/n^3
# becomes three exact factors 1/n (bitwise for inputs within about
# 1e+-300), and each line the inverse skips holds only +0, which pocketfft
# maps to +0.
def _direct(public, original) -> bool:
    return None not in (_r2c, _c2c, _c2r) and public is original


def _coeffs_from_samples(grid: Grid, samples: np.ndarray, block: np.ndarray,
                         work: np.ndarray | None = None) -> np.ndarray:
    """The block of samples' coefficients, gathered into block, an array of
    the block's shape.  The r2c pass writes every kz plane of work, a
    half-spectrum work array (a new array when not given)."""
    if not (_direct(_fft.rfftn, _RFFTN) and samples.dtype == _F8):
        full = _fft.rfftn(samples, norm="forward")
    else:
        full = _r2c(samples, (2,), True, 2, work, 1)
        kept = full[..., grid.block.planes]
        _c2c(kept, (0,), True, 2, kept, 1)
        for rows in grid.block.rows:
            _c2c(kept[rows], (1,), True, 2, kept[rows], 1)
    return grid.block.gather(full, block)


def _zero_coeffs(grid: Grid) -> np.ndarray:
    """A half-spectrum array of +0: a work array for the seam's transforms."""
    return np.zeros(grid.spectral_shape, dtype=complex)


def _samples_from_coeffs(grid: Grid, coeffs: np.ndarray, full: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Samples of the block array coeffs, in out (a new array when not
    given).  full is a half-spectrum work array, which a forward may have
    left written in every plane: it is zeroed whole, the block is scattered
    into its kept kz planes, and the transform overwrites those."""
    full.fill(0.0)
    kept = full[..., grid.block.planes]
    full = grid.block.scatter(coeffs, full)
    if not _direct(_fft.irfftn, _IRFFTN):
        samples = _fft.irfftn(full, s=(grid.n,) * 3, norm="forward")
        if out is None:
            return samples
        np.copyto(out, samples)
        return out
    for rows in grid.block.rows:
        _c2c(kept[:, rows], (0,), False, 0, kept[:, rows], 1)
    _c2c(kept, (1,), False, 0, kept, 1)
    return _c2r(full, (2,), grid.n, False, 0, out, 1)


def forward_transform(f: RealField) -> SpectralField:
    """Transform samples to dealiased spectral coefficients: the block of
    the full transform's, bit for bit.

    Rejects non-finite input, naming the first offending node.
    """
    _check_finite(f.samples, "sample", lambda node: f"grid node {node}")
    coeffs = np.empty(f.grid.block.shape, dtype=complex)
    return SpectralField(f.grid, _coeffs_from_samples(f.grid, f.samples, coeffs))


def _check_finite(values: np.ndarray, what: str, where):
    finite = np.isfinite(values)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteFieldError(f"non-finite {what} {values[index]} at {where(index)}")


def hermitian_defect(F: SpectralField) -> float:
    """Max |c(k) - conj(c(-k))| over the self-conjugate kz = 0 plane.

    Above that plane the half-spectrum storage makes the symmetry
    structural, so the plane carries the entire constraint.  A NaN maximum
    counts as no defect.
    """
    plane = F.coeffs[..., 0]
    mirror = -np.arange(plane.shape[0]) % plane.shape[0]
    mirrored = np.conjugate(plane[mirror][:, mirror])
    diff = np.subtract(plane, mirrored, out=mirrored)
    return max(0.0, float(np.abs(diff).max()))


def _check_hermitian(F: SpectralField):
    """Reject non-finite coefficients (a NaN hides any defect), then broken symmetry.

    The tolerance is 1e-12 * max(1, max |c|), so a defect of at most 1e-12
    passes at any scale and the scale is only measured above that.
    """
    b = F.grid.block
    _check_finite(F.coeffs, "coefficient", lambda i: f"block entry {i}, wavenumber "
                  f"{tuple(int(k.flat[j]) for k, j in zip((b.kx, b.ky, b.kz), i))}")
    defect = hermitian_defect(F)
    if defect > 1e-12 and defect > 1e-12 * max(1.0, float(np.abs(F.coeffs).max())):
        raise HermitianSymmetryError(
            "coefficients violate c(-k) = conj(c(k)) on a self-conjugate plane; "
            "field is not real"
        )


def backward_transform(F: SpectralField) -> RealField:
    """Transform coefficients back to samples; rejects non-finite
    coefficients, naming the first, and broken Hermitian symmetry."""
    _check_hermitian(F)
    return RealField(F.grid, _samples_from_coeffs(F.grid, F.coeffs, _zero_coeffs(F.grid)))


def gradient(F: SpectralField) -> VectorField:
    """Spectral gradient: component j is i*k_j*c(k)."""
    g = F.grid
    return VectorField(*(SpectralField(g, c) for c in _gradient_blocks(g.block, F.coeffs)))


def _gradient_blocks(block: Block, coeffs: np.ndarray, work: np.ndarray | None = None):
    """The block arrays of the gradient of the field with block array
    coeffs, each i*k*coeffs, formed in work (an array of the block's shape),
    which the next one overwrites, or in new arrays when work is None."""
    for kk in (block.kx, block.ky, block.kz):
        yield np.multiply(1j * kk, coeffs, out=work)


def _add_term(block: Block, total, d, f, work):
    """total = kx*f for d = 0, else total += k_d*f (in work): a k.F sum in order."""
    if d == 0:
        np.multiply(block.kx, f, out=total)
    else:
        total += np.multiply((block.kx, block.ky, block.kz)[d], f, out=work)


def _k_dot(block: Block, cx, cy, cz, work=None) -> np.ndarray:
    """kx*cx + ky*cy + kz*cz on block arrays, in that order (`_add_term`), in
    the two arrays of work (new arrays when not given); returns the first."""
    kd, tmp = work or (np.empty_like(cx), np.empty_like(cx))
    for d, c in enumerate((cx, cy, cz)):
        _add_term(block, kd, d, c, tmp)
    return kd


def divergence(U: VectorField) -> SpectralField:
    c = _k_dot(U.grid.block, *(a.coeffs for a in U.components))
    return SpectralField(U.grid, np.multiply(1j, c, out=c))


def laplacian(F: SpectralField) -> SpectralField:
    return SpectralField(F.grid, -F.grid.block.k2 * F.coeffs)


def curl(U: VectorField) -> VectorField:
    g = U.grid
    curl_coeffs = _curl_coeffs(g.block, U.x.coeffs, U.y.coeffs, U.z.coeffs)
    return VectorField(*(SpectralField(g, c) for c in curl_coeffs))


def _curl_coeffs(block: Block, cx, cy, cz):
    """curl on raw block coefficient arrays, one component at a time."""
    kx, ky, kz = block.kx, block.ky, block.kz
    yield 1j * (ky * cz - kz * cy)
    yield 1j * (kz * cx - kx * cz)
    yield 1j * (kx * cy - ky * cx)


def leray_project(U: VectorField) -> VectorField:
    """Remove the gradient part: P(u)_i = u_i - k_i (k.u)/|k|^2.

    Idempotent; divergence-free fields (including the mean mode) pass through.
    """
    g = U.grid
    projected = _leray_coeffs(g.block, *(c.coeffs.copy() for c in U.components))
    return VectorField(*(SpectralField(g, c) for c in projected))


def _leray_coeffs(block: Block, cx, cy, cz, work=None) -> tuple:
    """leray_project on raw block coefficient arrays, in place; returns them.

    Computes c_i - k_i * ((kx*cx + ky*cy + kz*cz) * inv_k2) with the
    operations and operand order of that expression, in the two arrays of
    work (allocated when not given).
    """
    if work is None:
        work = (np.empty_like(cx), np.empty_like(cx))
    kd = _k_dot(block, cx, cy, cz, work)
    kd *= block.inv_k2
    for kk, c in zip((block.kx, block.ky, block.kz), (cx, cy, cz)):
        c -= np.multiply(kk, kd, out=work[1])
    return cx, cy, cz


def solve_poisson(eta: SpectralField) -> SpectralField:
    """Solve laplacian(psi) = eta on the torus, with zero-mean gauge for psi.

    Requires |mean(eta)| <= 1e-10 (charge neutrality); otherwise the periodic
    problem has no solution and the call is rejected with the measured net
    charge.
    """
    return SpectralField(eta.grid, _poisson_coeffs(eta.grid.block, eta.coeffs))


def _poisson_coeffs(block: Block, eta: np.ndarray, out=None) -> np.ndarray:
    """solve_poisson on a raw block coefficient array, into out (a new array
    when not given; out may be eta)."""
    mean = eta[0, 0, 0]
    if abs(mean) > NEUTRALITY_TOL:
        raise ChargeNeutralityError(
            f"right-hand side is not neutral: mean={mean.real:.6e}, "
            f"net charge over the box = {mean.real * VOLUME:.6e}"
        )
    psi = np.negative(eta, out=out)
    psi *= block.inv_k2
    psi[0, 0, 0] = 0.0
    return psi


def lp_norm(f: RealField, p: float) -> float:
    """L^p norm as the uniform Riemann sum; p = inf is the grid maximum."""
    if not p >= 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    if np.isinf(p):
        # max |samples| without an |samples| array; abs() clears the sign of -0.0 and NaN.
        return abs(max(float(f.samples.max()), -float(f.samples.min())))
    a = np.abs(f.samples)
    a **= p  # one temporary; numpy's scalar-power fast paths apply in place too
    return float((np.sum(a) * f.grid.cell_volume) ** (1.0 / p))


def spectral_power(F: SpectralField) -> np.ndarray:
    """|c_k|^2 with the conjugate modes counted (full-lattice power), on the block."""
    b, c = F.grid.block, F.coeffs
    return b.mult * (c.real**2 + c.imag**2)


def _spread(grid: Grid, block: np.ndarray) -> np.ndarray:
    """The real block array block in fresh half-spectrum zeros: summed there,
    it keeps the full layout's summation order, hence its norms' bits."""
    return grid.block.scatter(block, np.zeros(grid.spectral_shape))


def power_sum(grid: Grid, power: np.ndarray, weights: np.ndarray | None = None) -> float:
    """(2*pi)^3 sum weights * power, block arrays: the squared norm with
    Fourier weights weights (1 when None) of the field of full-lattice power power."""
    if weights is not None:
        power = weights * power
    return float(VOLUME * _spread(grid, power).sum())


def sobolev_weights(grid: Grid, s: float) -> np.ndarray:
    """(1 + |k|^2)^s on the block, kept on the grid."""
    return grid.table(("sobolev", float(s)), lambda: (1.0 + grid.block.k2) ** s)


def l2_norm_sq(F: SpectralField) -> float:
    """||f||_L2^2 from coefficients (Parseval)."""
    return power_sum(F.grid, spectral_power(F))


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Inhomogeneous H^s norm ((2*pi)^3 sum (1+|k|^2)^s |c_k|^2)^(1/2)."""
    if not s >= 0:
        raise ValueError(f"Sobolev index must satisfy s >= 0, got {s}")
    return math.sqrt(power_sum(F.grid, spectral_power(F), sobolev_weights(F.grid, s)))


def vector_forward(U: VectorField) -> VectorField:
    return VectorField(*[forward_transform(c) for c in U.components])


def vector_backward(U: VectorField) -> VectorField:
    return VectorField(*[backward_transform(c) for c in U.components])


def _streamed_magnitudes(grid: Grid, blocks, part=()) -> list:
    """The pointwise magnitudes of the inverse transforms of the block
    arrays that blocks yields, and of those at the positions part lists,
    bitwise `vector_magnitude`'s sum of squares over that many entries:
    each transform is squared once, added to the running sums in order and
    dropped, so the entries are never alive together."""
    full, total, part_total = _zero_coeffs(grid), None, None
    for i, c in enumerate(blocks):
        sq = _samples_from_coeffs(grid, c, full)
        np.square(sq, out=sq)
        if i in part:
            part_total = sq.copy() if part_total is None else np.add(part_total, sq, out=part_total)
        total = sq if total is None else np.add(total, sq, out=total)
    return [RealField(grid, np.sqrt(a, out=a)) for a in (total, part_total) if a is not None]


def vector_magnitude(U: VectorField) -> RealField:
    """Pointwise Euclidean magnitude of a real vector field; the sum of squares
    starts from the first, bitwise the sum from zero (0 + x is x)."""
    first, *rest = (c.samples for c in U.components)
    sq = first**2
    for d in rest:
        sq += d**2
    return RealField(U.grid, np.sqrt(sq, out=sq))


def spectral_tail_fraction(*fields: SpectralField | RealField) -> float:
    """Energy fraction in the outer half of the retained band.

    Given several fields (the components of a vector field), the fraction
    of their summed power; a real field counts as its `forward_transform`.
    Reported beside grid-max L-inf values, which under-report for
    marginally resolved fields; a large tail means the maximum is not
    trustworthy.
    """
    g = fields[0].grid
    half = np.floor(g.n / 3.0) / 2
    outer = (np.abs(g.kx) > half) | (np.abs(g.ky) > half) | (np.abs(g.kz) > half)
    total = tail = 0.0
    for F in fields:
        F = forward_transform(F) if isinstance(F, RealField) else F
        power = _spread(g, spectral_power(F))
        total += power.sum()
        tail += power[outer].sum()
    if total == 0.0:
        return 0.0
    return float(tail / total)
