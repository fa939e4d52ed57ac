"""The full half-spectrum layout, as a reference for the tests.

ehd keeps spectral coefficients on the dealiased block alone.  This module
states the layout a full transform gives, shape (n, n, n/2+1), with
wavenumber tables of its own and transforms written on
`scipy.fft.rfftn`/`irfftn(norm="forward")`.  It shares no code with
`ehd.spectral`, so a test that compares the block code with it compares
two independent formulas.
"""

import functools

import numpy as np
import scipy.fft


class Layout:
    """The half spectrum of an n^3 grid: its tables, transforms, and the
    map between it and the dealiased block (every |k_i| <= n//3, rows in
    the order k = 0..c, -c..-1, kz planes 0..c)."""

    def __init__(self, n):
        self.n = n
        self.shape = (n, n, n // 2 + 1)
        k = np.fft.fftfreq(n, d=1.0 / n)
        self.kx, self.ky = k[:, None, None], k[None, :, None]
        self.kz = np.fft.rfftfreq(n, d=1.0 / n)[None, None, :]
        self.k2 = self.kx**2 + self.ky**2 + self.kz**2
        self.kmag = np.sqrt(self.k2)
        self.inv_k2 = np.zeros_like(self.k2)
        np.divide(1.0, self.k2, out=self.inv_k2, where=self.k2 > 0)
        # Interior kz planes stand for themselves and their conjugates.
        self.mult = np.where((self.kz == 0) | (self.kz == n // 2), 1.0, 2.0)
        cut = n / 3.0
        self.mask = (np.abs(self.kx) <= cut) & (np.abs(self.ky) <= cut) & (
            np.abs(self.kz) <= cut)
        c = n // 3
        rows = np.r_[0 : c + 1, n - c : n]
        self._index = np.ix_(rows, rows, np.arange(c + 1))

    def forward(self, samples):
        """The full transform of samples, not dealiased."""
        return scipy.fft.rfftn(samples, norm="forward")

    def inverse(self, coeffs):
        """The samples of half-spectrum coefficients."""
        return scipy.fft.irfftn(coeffs, s=(self.n,) * 3, norm="forward")

    def block(self, full):
        """The dealiased block of a half-spectrum array, as a new array."""
        return full[self._index]

    def spread(self, block):
        """A block array written into half-spectrum zeros."""
        full = np.zeros(self.shape, dtype=block.dtype)
        full[self._index] = block
        return full

    def power(self, coeffs):
        """|c_k|^2 with the conjugate modes counted."""
        return self.mult * (coeffs.real**2 + coeffs.imag**2)


@functools.cache
def layout(n) -> Layout:
    return Layout(n)
