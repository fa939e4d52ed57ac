"""Dyadic decomposition, Besov norms, and Bernstein-ratio measurements."""

import math

import numpy as np
import pytest

import ehd
from ehd import BesovParams, RealField, SpectralField
from full_layout import layout
from ehd.littlewood_paley import phi, varphi


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def cos4x_spectral(grid):
    """cos(4 x1) built directly in coefficient space (exact pair at k = +-4)."""
    coeffs = np.zeros(grid.block.shape, dtype=complex)
    coeffs[4, 0, 0] = 0.5
    coeffs[-4, 0, 0] = 0.5
    return SpectralField(grid, coeffs)


class TestCutoff:
    def test_plateau_is_exactly_one(self):
        r = np.array([0.0, 0.3, 1.0, 1.25])
        assert np.all(phi(r) == 1.0)

    def test_support_edge_is_exactly_zero(self):
        r = np.array([1.5, 1.6, 2.0, 100.0])
        assert np.all(phi(r) == 0.0)

    def test_monotone_nonincreasing_in_transition(self):
        r = np.linspace(1.25, 1.5, 400)
        values = phi(r)
        assert np.all(np.diff(values) <= 0)
        assert np.all((0 <= values) & (values <= 1))

    def test_band_profile_support(self):
        r = np.array([0.0, 0.5, 5.0 / 8.0, 1.5, 3.0])
        v = varphi(r)
        assert v[0] == 0.0 and v[1] == 0.0 and v[3] == 0.0 and v[4] == 0.0

    def test_partition_of_unity_at_sample_points(self):
        """Sum over j of varphi(2^-j xi) telescopes to 1 for xi != 0."""
        for xi in np.concatenate([np.linspace(0.1, 20, 57), [1.0, 4.0, 5.0 / 8.0]]):
            total = sum(varphi(np.array([xi / 2.0**j]))[0]
                        for j in range(-12, 13))
            assert abs(total - 1.0) <= 1e-12


class TestBandRange:
    def test_known_grids(self, grid8, grid16, grid32):
        # lowest band reaches |k| = 1; top band's annulus must meet |k| <= n/3
        assert ehd.band_range(grid16) == (0, 3)
        assert ehd.band_range(grid8) == (0, 2)
        assert ehd.band_range(grid32) == (0, 4)

    def test_range_is_ordered(self, grid8, grid16, grid32):
        for g in (grid8, grid16, grid32):
            j_min, j_max = ehd.band_range(g)
            assert j_min <= j_max

    def test_partition_exact_on_larger_grids(self):
        """Power-of-two resolutions keep the top band covering every retained
        mode, including the corners of the dealias cube."""
        for n in (32, 64):
            g = ehd.Grid(n)
            j_min, j_max = ehd.band_range(g)
            total = sum(ehd.band_weight(g, j) for j in range(j_min, j_max + 1))
            retained = g.block.kmag > 0
            defect = np.abs(total[retained] - 1.0).max()
            assert defect <= 1e-12


class TestDecompose:
    def test_single_mode_localizes_to_band_two(self, grid16):
        """cos(4 x1) lives exactly in band j = 2: varphi_2(4) = 1, others 0."""
        F = cos4x_spectral(grid16)
        bands = ehd.decompose(F)
        for band in bands:
            if band.j == 2:
                np.testing.assert_array_equal(band.field.coeffs, F.coeffs)
            else:
                assert np.all(band.field.coeffs == 0)

    def test_constant_field_gives_zero_bands(self, grid16):
        F = ehd.forward_transform(RealField(grid16, full(grid16, 2.5)))
        for band in ehd.decompose(F):
            assert np.abs(band.field.coeffs).max() < 1e-15

    def test_reconstruction_random_fields(self, grid16, band_limited):
        """Bands sum to the field minus its mean mode."""
        for _ in range(100):
            F = ehd.forward_transform(band_limited(grid16))
            total = sum(band.field.coeffs for band in ehd.decompose(F))
            expected = F.coeffs.copy()
            expected[0, 0, 0] = 0.0
            assert np.abs(total - expected).max() <= 1e-12

    def test_band_support_annulus(self, grid16, band_limited):
        F = ehd.forward_transform(band_limited(grid16))
        kmag = grid16.block.kmag
        for band in ehd.decompose(F):
            lo, hi = 5.0 * 2.0**band.j / 8.0, 3.0 * 2.0**band.j / 2.0
            outside = (kmag < lo - 1e-12) | (kmag > hi + 1e-12)
            assert np.abs(band.field.coeffs[outside]).max() == 0.0

    def test_non_adjacent_bands_have_disjoint_support(self, grid16, band_limited):
        F = ehd.forward_transform(band_limited(grid16))
        bands = ehd.decompose(F)
        for a in bands:
            for b in bands:
                if abs(a.j - b.j) >= 2:
                    overlap = np.abs(a.field.coeffs) * np.abs(b.field.coeffs)
                    assert overlap.max() == 0.0


class TestBesovNorm:
    def test_single_mode_sup_norm(self, grid16):
        F = cos4x_spectral(grid16)
        assert ehd.besov_norm(F, BesovParams(0.0, math.inf, math.inf)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_mode_regularity_weight(self, grid16):
        F = cos4x_spectral(grid16)
        assert ehd.besov_norm(F, BesovParams(1.0, math.inf, math.inf)) == pytest.approx(
            4.0, abs=1e-11
        )

    def test_zero_field(self, grid16):
        F = SpectralField(grid16, np.zeros(grid16.block.shape, dtype=complex))
        for params in (BesovParams(0, 2, 2), BesovParams(1.5, 4, 1), BesovParams(-1, math.inf, math.inf)):
            assert ehd.besov_norm(F, params) == 0.0

    def test_sup_summation_bounded_by_finite_r(self, grid16, band_limited):
        for _ in range(10):
            F = ehd.forward_transform(band_limited(grid16))
            for s, p in ((0.0, 2.0), (0.5, 4.0), (-0.5, math.inf)):
                sup = ehd.besov_norm(F, BesovParams(s, p, math.inf))
                for r in (1.0, 2.0, 3.0):
                    assert sup <= ehd.besov_norm(F, BesovParams(s, p, r)) + 1e-14

    def test_l2_summation_matches_l2_on_plateau_fields(self, grid16, rng):
        """Fields supported where a single band weight is 1 have equal norms."""
        kmag = grid16.block.kmag
        plateau = ((kmag >= 3.0) & (kmag <= 5.0)) | (kmag == 1.0)
        for _ in range(10):
            noise = RealField(grid16, rng.standard_normal((16,) * 3))
            F = ehd.forward_transform(noise)
            F = SpectralField(grid16, np.where(plateau, F.coeffs, 0.0))
            besov = ehd.besov_norm(F, BesovParams(0.0, 2.0, 2.0))
            l2 = math.sqrt(ehd.l2_norm_sq(F))
            assert besov == pytest.approx(l2, rel=1e-10)

    def test_params_validated(self):
        with pytest.raises(ValueError, match="1 <= p"):
            BesovParams(0.0, 0.5, 2.0)
        with pytest.raises(ValueError, match="1 <= r"):
            BesovParams(0.0, 2.0, 0.0)


class TestBernstein:
    def test_zero_order_same_exponents_is_identity(self, grid16):
        report = ehd.bernstein_check(grid16, 2, k=0, p=2.0, q=2.0, trials=5, seed=3)
        assert report.ratio_min == 1.0
        assert report.ratio_max == 1.0

    def test_single_mode_first_derivative_ratio(self, grid16):
        """For cos(4 x1) in band 2 the derivative gains exactly 2^j = 4."""
        F = cos4x_spectral(grid16)
        f = ehd.backward_transform(F)
        sup = 0.0
        for comp in ehd.gradient(F).components:
            sup = max(sup, ehd.lp_norm(ehd.backward_transform(comp), 2.0))
        ratio = sup / (2.0**2 * ehd.lp_norm(f, 2.0))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_single_mode_second_derivative_ratio(self, grid16):
        """Order k = 2 gains 2^(2j) = 16; mixed derivatives of the mode vanish."""
        F = cos4x_spectral(grid16)
        f = ehd.backward_transform(F)
        sup = 0.0
        for alpha in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)):
            b = grid16.block
            factor = (1j * b.kx) ** alpha[0] * (1j * b.ky) ** alpha[1] * (1j * b.kz) ** alpha[2]
            deriv = ehd.backward_transform(SpectralField(grid16, F.coeffs * factor))
            sup = max(sup, ehd.lp_norm(deriv, 2.0))
        ratio = sup / (2.0 ** (2 * 2) * ehd.lp_norm(f, 2.0))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_second_order_check_runs(self, grid16):
        report = ehd.bernstein_check(grid16, 2, k=2, p=2.0, q=2.0, trials=5, seed=9)
        assert 0.0 < report.two_sided_min <= report.two_sided_max < 10.0

    def test_adjacent_bands_agree(self, grid32):
        r2 = ehd.bernstein_check(grid32, 2, k=1, p=2.0, q=math.inf, trials=30, seed=5)
        r3 = ehd.bernstein_check(grid32, 3, k=1, p=2.0, q=math.inf, trials=30, seed=6)
        spread = abs(r2.ratio_max - r3.ratio_max) / max(r2.ratio_max, r3.ratio_max)
        assert spread <= 0.15

    def test_lower_bound_holds_with_measured_constant(self, grid32):
        report = ehd.bernstein_check(grid32, 2, k=1, p=2.0, q=2.0, trials=20, seed=7)
        assert report.two_sided_min > 0.0
        assert report.two_sided_max < 10.0

    def test_unrepresentable_band_rejected(self, grid16):
        with pytest.raises(ValueError, match="not representable"):
            ehd.bernstein_check(grid16, 9, k=1, p=2.0, q=2.0, trials=1)

    def test_exponent_order_enforced(self, grid16):
        with pytest.raises(ValueError, match="p <= q"):
            ehd.bernstein_check(grid16, 2, k=1, p=4.0, q=2.0, trials=1)

    def test_negative_order_rejected(self, grid16):
        with pytest.raises(ValueError, match="derivative order must be nonnegative, got -1"):
            ehd.bernstein_check(grid16, 2, k=-1, trials=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, grid16, trials):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            ehd.bernstein_check(grid16, 2, trials=trials)

    def test_band_fields_live_in_band(self, grid16, rng):
        f = ehd.random_band_field(grid16, 2, rng)
        kmag = grid16.block.kmag
        outside = (kmag < 5.0 * 4 / 8 - 1e-12) | (kmag > 3.0 * 4 / 2 + 1e-12)
        assert np.abs(f.coeffs[outside]).max() == 0.0
        assert ehd.hermitian_defect(f) < 1e-12

    @pytest.mark.parametrize("n, j", [(16, 0), (16, 3), (32, 4)])
    def test_band_field_is_the_block_of_the_full_layout_field(self, n, j):
        """The same draws as the full layout's field, whose block it is, bit
        for bit: the modes outside the block are those the 2/3 rule drops."""
        ref = layout(n)
        draws = np.random.Generator(np.random.Philox(key=4))
        phases = np.zeros(ref.shape, dtype=complex)
        for _ in range(4):
            center = draws.uniform(0.0, 2.0 * np.pi, size=3)
            amp = draws.standard_normal()
            phases += amp * np.exp(
                -1j * (ref.kx * center[0] + ref.ky * center[1] + ref.kz * center[2]))
        want = ref.block(varphi(ref.kmag / 2.0**j) * phases)
        got = ehd.random_band_field(ehd.Grid(n), j, np.random.Generator(np.random.Philox(key=4)))
        assert got.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [16, 32])
    def test_every_representable_band_gives_finite_ratios(self, n):
        """The top band raised HermitianSymmetryError while band fields
        carried weight on the unmatched Nyquist row; on the block every band
        is dealiased and Hermitian."""
        grid = ehd.Grid(n)
        j_min, j_max = ehd.band_range(grid)
        for j in range(j_min, j_max + 1):
            report = ehd.bernstein_check(grid, j, k=1, p=2.0, q=math.inf, trials=5, seed=j)
            ratios = (report.ratio_min, report.ratio_max, report.two_sided_min,
                      report.two_sided_max)
            assert all(math.isfinite(r) and r > 0.0 for r in ratios), (j, ratios)
