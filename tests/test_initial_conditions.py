"""The random_smooth preset: its argument checks, its zero-energy case, and
its samples against the full-layout formulas it is built from."""

import numpy as np
import pytest

import ehd
from ehd import Grid, RealField, SpectralField, VectorField


def full_layout_random_smooth(grid, seed, energy, peak):
    """random_smooth's samples (ux, uy, uz, v, w), formed with the public
    half-spectrum API: each transform full, each inverse Hermitian-checked."""
    rng = np.random.Generator(np.random.Philox(key=seed))

    def smooth():
        c = ehd.forward_transform(RealField(grid, rng.standard_normal((grid.n,) * 3))).coeffs
        c *= np.exp(-((grid.kmag / peak) ** 2))
        c[0, 0, 0] = 0.0
        return ehd.backward_transform(SpectralField(grid, c))

    u_hat = ehd.curl(VectorField(*(ehd.forward_transform(smooth()) for _ in range(3))))
    scale = np.sqrt(energy / sum(ehd.l2_norm_sq(c) for c in u_hat.components))
    u = [ehd.backward_transform(SpectralField(grid, c.coeffs * scale)).samples
         for c in u_hat.components]
    charges = []
    for _ in range(2):
        pert = smooth().samples
        pert /= max(np.abs(pert).max(), 1e-300)
        charges.append(1.0 + 0.5 * pert)
    return (*u, *charges)


class TestRandomSmooth:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("seed", [0, 12345])
    @pytest.mark.parametrize("energy, peak", [(1.0, 3.0), (50.0, 3.0), (1e-6, 1.5)])
    def test_samples_are_the_full_layout_formulas(self, n, seed, energy, peak):
        """The preset works on the dealiased block, bit for bit the full layout."""
        grid = Grid(n)
        s = ehd.random_smooth(grid, seed=seed, energy=energy, peak_wavenumber=peak)
        expected = full_layout_random_smooth(grid, seed, energy, peak)
        for got, want in zip(s.samples, expected):
            assert got.tobytes() == want.tobytes()

    def test_negative_energy_rejected(self, grid16):
        with pytest.raises(ValueError, match="energy must be nonnegative, got -1"):
            ehd.random_smooth(grid16, seed=3, energy=-1)

    def test_zero_energy_gives_zero_velocity(self, grid16):
        s = ehd.random_smooth(grid16, seed=3, energy=0.0)
        charged = ehd.random_smooth(grid16, seed=3)
        assert all(not c.samples.any() for c in s.u.components)
        # The charges draw the same noise as at any energy.
        assert s.v.samples.tobytes() == charged.v.samples.tobytes()
        assert s.w.samples.tobytes() == charged.w.samples.tobytes()

    def test_velocity_carries_the_prescribed_energy(self, grid16):
        s = ehd.random_smooth(grid16, seed=3, energy=2.5)
        assert sum(ehd.lp_norm(c, 2.0) ** 2 for c in s.u.components) == pytest.approx(
            2.5, rel=1e-12)
