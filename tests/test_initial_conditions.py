"""The random_smooth preset: its argument checks, its zero-energy case, and
its samples against the full-layout formulas it is built from."""

import numpy as np
import pytest

import ehd
from ehd import Grid
from full_layout import layout


def full_layout_random_smooth(grid, seed, energy, peak):
    """random_smooth's samples (ux, uy, uz, v, w), formed on the full
    layout: each forward transform full, then dealiased, each inverse
    full."""
    ref = layout(grid.n)
    rng = np.random.Generator(np.random.Philox(key=seed))

    def forward(samples):
        return ref.forward(samples) * ref.mask

    def smooth():
        c = forward(rng.standard_normal((grid.n,) * 3))
        c *= np.exp(-((ref.kmag / peak) ** 2))
        c[0, 0, 0] = 0.0
        return ref.inverse(c)

    cx, cy, cz = (forward(smooth()) for _ in range(3))
    u_hat = (1j * (ref.ky * cz - ref.kz * cy), 1j * (ref.kz * cx - ref.kx * cz),
             1j * (ref.kx * cy - ref.ky * cx))
    raw = sum(float((2.0 * np.pi) ** 3 * ref.power(c).sum()) for c in u_hat)
    u = [ref.inverse(c * np.sqrt(energy / raw)) for c in u_hat]
    charges = []
    for _ in range(2):
        pert = smooth()
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

    @pytest.mark.parametrize("params, message", [
        ({"energy": float("nan")}, "energy must be finite, got nan"),
        ({"energy": float("inf")}, "energy must be finite, got inf"),
        ({"energy": -float("inf")}, "energy must be nonnegative, got -inf"),
        ({"peak_wavenumber": 0.0}, "peak_wavenumber must be finite and positive, got 0.0"),
        ({"peak_wavenumber": -3.0}, "peak_wavenumber must be finite and positive, got -3.0"),
        ({"peak_wavenumber": float("nan")}, "peak_wavenumber must be finite and positive, got nan"),
        ({"peak_wavenumber": float("inf")}, "peak_wavenumber must be finite and positive, got inf"),
    ])
    def test_senseless_parameters_rejected(self, params, message, grid16):
        """nan energy gave u = 0, inf energy a non-finite state, a zero peak
        a division by zero, a negative one its absolute value, and a nan
        peak a NonFiniteFieldError; each is now named before any work."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ehd.random_smooth(grid16, seed=3, **params)

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
