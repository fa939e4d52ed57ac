"""Dyadic frequency decomposition, homogeneous Besov norms, and Bernstein checks.

The radial cutoff phi equals 1 on |xi| <= 5/4 and 0 on |xi| >= 3/2, so the
band profile varphi(xi) = phi(xi) - phi(2 xi) is supported on the annulus
5/8 <= |xi| <= 3/2 and the rescaled profiles varphi(2^-j xi) telescope to 1
at every nonzero frequency.  On the torus the quotient by polynomials is the
removal of the mean mode, and the band index is truncated to the range the
dealiased grid can represent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    RealField,
    SpectralField,
    _check_hermitian,
    _samples_from_coeffs,
    _zero_coeffs,
    backward_transform,
    forward_transform,
    lp_norm,
)


def _sigma(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, else 0 (smooth, flat at 0)."""
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: exactly 0 for t <= 0, exactly 1 for t >= 1, monotone."""
    a = _sigma(t)
    b = _sigma(1.0 - t)
    return a / (a + b)


def phi(r):
    """The radial cutoff: 1 for r <= 5/4, 0 for r >= 3/2, smooth and
    nonincreasing between."""
    r = np.asarray(r, dtype=float)
    return _smoothstep((1.5 - r) / (1.5 - 1.25))


def varphi(r):
    """The band profile phi(r) - phi(2 r)."""
    r = np.asarray(r, dtype=float)
    return phi(r) - phi(2.0 * r)


@dataclass(frozen=True)
class BesovParams:
    """Homogeneous Besov indices: regularity s, Lebesgue p, summation r."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not 1 <= self.p:
            raise ValueError(f"Lebesgue exponent must satisfy 1 <= p <= inf, got {self.p}")
        if not 1 <= self.r:
            raise ValueError(f"summation exponent must satisfy 1 <= r <= inf, got {self.r}")


@dataclass
class DyadicBand:
    """Band index j and the field restricted to the annulus 5*2^j/8 <= |k| <= 3*2^j/2."""

    j: int
    field: SpectralField


def band_range(grid: Grid) -> tuple[int, int]:
    """Band indices whose annuli meet the resolvable frequencies.

    j_min is the smallest j whose annulus reaches |k| >= 1 (the lowest
    nonzero torus frequency); j_max the largest whose annulus meets the
    dealiased ball |k| <= n/3.
    """
    # Band 0 reaches 3/2 and band -1 only 3/4 < 1, so j_min is 0 on every grid.
    kcap = grid.n / 3.0
    j_max = 0
    while 5.0 * 2.0 ** (j_max + 1) / 8.0 <= kcap:
        j_max += 1
    return 0, j_max


def band_weight(grid: Grid, j: int) -> np.ndarray:
    """varphi(2^-j |k|) on the grid's block, kept on the grid."""
    return grid.table(("band", j), lambda: varphi(grid.block.kmag / 2.0**j))


def decompose(f: SpectralField) -> list[DyadicBand]:
    """Split into dyadic bands; the bands sum back to f minus its mean mode."""
    j_min, j_max = band_range(f.grid)
    return [
        DyadicBand(j, SpectralField(f.grid, f.coeffs * band_weight(f.grid, j)))
        for j in range(j_min, j_max + 1)
    ]


def besov_norm(f: SpectralField | RealField, params: BesovParams) -> float:
    """Homogeneous Besov norm over the representable bands.

    (sum_j 2^(j s r) ||band_j||_Lp^r)^(1/r), with the supremum over j when
    r = inf.  Band L^p norms are taken on samples (`_block_bands`).  A real
    field counts as its `forward_transform`.  Given coefficients, their
    Hermitian symmetry is checked once, as `backward_transform` checks it:
    the band weights are real and even in k, so each band of a Hermitian
    field is Hermitian.
    """
    if isinstance(f, RealField):
        f = forward_transform(f)
    else:
        _check_hermitian(f)
    terms = [2.0 ** (j * params.s) * lp_norm(samples, params.p) for j, samples in _block_bands(f)]
    if np.isinf(params.r):
        return float(max(terms))
    return float(sum(t**params.r for t in terms) ** (1.0 / params.r))


def _block_bands(f: SpectralField):
    """(j, samples of band j) of f: each band is formed in one work array
    and takes the block inverse transform, with no Hermitian check."""
    grid, work = f.grid, np.empty_like(f.coeffs)
    full = _zero_coeffs(grid)
    j_min, j_max = band_range(grid)
    for j in range(j_min, j_max + 1):
        band = np.multiply(f.coeffs, band_weight(grid, j), out=work)
        yield j, RealField(grid, _samples_from_coeffs(grid, band, full))


@dataclass
class BernsteinReport:
    """Measured constants for the band-limited derivative inequalities."""

    j: int
    k: int
    p: float
    q: float
    trials: int
    ratio_min: float  # sup_|a|=k ||d^a f||_q / (2^(jk + 3j(1/p - 1/q)) ||f||_p)
    ratio_max: float
    two_sided_min: float  # sup_|a|=k ||d^a f||_p / (2^(jk) ||f||_p)
    two_sided_max: float


def _multi_indices(k: int):
    """All 3d derivative multi-indices of total order k."""
    out = []
    for combo in itertools.combinations_with_replacement(range(3), k):
        alpha = [0, 0, 0]
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


def random_band_field(grid: Grid, j: int, rng) -> SpectralField:
    """Random real field spectrally supported in band j.

    Draws a superposition of four randomly placed, randomly weighted copies of
    the band's mother wave packet (the inverse transform of varphi_j).  Packets
    at band j+1 are dyadic dilates of packets at band j, so the ensemble is
    scale-covariant and measured Bernstein ratios are comparable across bands;
    white-noise band fields would not be (their maxima fall short of the
    band-limited extremizers by a band-dependent factor).
    """
    b = grid.block
    phases = np.zeros(b.shape, dtype=complex)
    for _ in range(4):
        center = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amp = rng.standard_normal()
        phases += amp * np.exp(-1j * (b.kx * center[0] + b.ky * center[1] + b.kz * center[2]))
    return SpectralField(grid, band_weight(grid, j) * phases)


def bernstein_check(
    grid: Grid,
    j: int,
    k: int = 1,
    p: float = 2.0,
    q: float = math.inf,
    trials: int = 100,
    seed: int = 0,
) -> BernsteinReport:
    """Measure Bernstein ratios for random fields supported in band j.

    For each trial draws a band-j field f and evaluates
    sup_{|alpha|=k} ||d^alpha f||_Lq against the scaling
    2^(jk + 3j(1/p - 1/q)) ||f||_Lp, plus the same-exponent ratio against
    2^(jk) ||f||_Lp (the two-sided comparison).  Reports min and max over
    trials; the constants are expected to be stable in j.
    """
    if not 1 <= p <= q:
        raise ValueError(f"exponents must satisfy 1 <= p <= q <= inf, got p={p}, q={q}")
    if k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    j_min, j_max = band_range(grid)
    if not j_min <= j <= j_max:
        raise ValueError(
            f"band j={j} is not representable on n={grid.n} (valid range {j_min}..{j_max})"
        )

    rng = np.random.Generator(np.random.Philox(key=seed))
    scale_pq = 2.0 ** (j * k + 3.0 * j * (1.0 / p - (0.0 if np.isinf(q) else 1.0 / q)))
    scale_pp = 2.0 ** (j * k)
    alphas, b = _multi_indices(k), grid.block

    ratios, two_sided = [], []
    for _ in range(trials):
        f = random_band_field(grid, j, rng)
        base_p = lp_norm(backward_transform(f), p)
        if base_p == 0.0:
            continue
        sup_q = 0.0
        sup_p = 0.0
        for alpha in alphas:
            factor = (1j * b.kx) ** alpha[0] * (1j * b.ky) ** alpha[1] * (1j * b.kz) ** alpha[2]
            deriv = backward_transform(SpectralField(grid, f.coeffs * factor))
            sup_q = max(sup_q, lp_norm(deriv, q))
            sup_p = max(sup_p, lp_norm(deriv, p))
        ratios.append(sup_q / (scale_pq * base_p))
        two_sided.append(sup_p / (scale_pp * base_p))

    return BernsteinReport(
        j=j,
        k=k,
        p=p,
        q=q,
        trials=len(ratios),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
        two_sided_min=min(two_sided),
        two_sided_max=max(two_sided),
    )
