"""Dyadic frequency bands, homogeneous Besov norms, Bernstein ratios.

The smooth radial cutoff equals 1 inside |xi| <= 5/4 and 0 outside
|xi| >= 3/2; differences of its dyadic rescalings tile frequency space.
A single Fourier mode therefore lands in exactly one band, band sums
reconstruct any field up to its mean, and band-limited fields obey the
derivative inequalities with constants that do not depend on the band.
"""

import math

import numpy as np

import ehd
from ehd import BesovParams

grid = ehd.Grid(32)
j_min, j_max = ehd.band_range(grid)
print(f"bands representable on n={grid.n}: j = {j_min} .. {j_max}")

# --- a single mode lands in one band ---------------------------------------
# Coefficients live on the dealiased block, rows k = 0..n//3 then -n//3..-1.
coeffs = np.zeros(grid.block.shape, dtype=complex)
coeffs[4, 0, 0] = 0.5
coeffs[-4, 0, 0] = 0.5  # together: cos(4 x1)
mode = ehd.SpectralField(grid, coeffs)
print("\nband energies of cos(4 x1):")
for band in ehd.decompose(mode):
    print(f"  j={band.j}: {ehd.l2_norm_sq(band.field):.6f}")

for s in (0.0, 1.0):
    value = ehd.besov_norm(mode, BesovParams(s, math.inf, math.inf))
    print(f"sup-type norm with regularity s={s}: {value:.6f} "
          f"(weight 2^(j s) on band j=2)")

# --- reconstruction --------------------------------------------------------
rng = np.random.Generator(np.random.Philox(key=42))
noise = ehd.forward_transform(ehd.RealField(grid, rng.standard_normal((32,) * 3)))
total = sum(b.field.coeffs for b in ehd.decompose(noise))
expected = noise.coeffs.copy()
expected[0, 0, 0] = 0.0
print(f"\nband-sum reconstruction error on white noise: "
      f"{np.abs(total - expected).max():.2e} (mean mode excluded)")

# --- Bernstein ratios across adjacent bands ---------------------------------
print("\nmeasured derivative ratios, k=1, L2 -> Linf, 40 packet trials:")
for j in (2, 3):
    r = ehd.bernstein_check(grid, j, k=1, p=2.0, q=math.inf, trials=40, seed=j)
    print(f"  band {j}: ratio in [{r.ratio_min:.4f}, {r.ratio_max:.4f}], "
          f"same-exponent ratio in [{r.two_sided_min:.4f}, {r.two_sided_max:.4f}]")
print("adjacent bands agree because trials are dilates of one packet family.")
