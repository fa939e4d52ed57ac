"""Transforms, differential operators, projection, Poisson solve, norms."""

import math

import numpy as np
import pytest
import scipy.fft

import ehd
from ehd import (
    ChargeNeutralityError,
    Grid,
    GridMismatchError,
    HermitianSymmetryError,
    NonFiniteFieldError,
    RealField,
    SpectralField,
    VectorField,
)

PI = math.pi


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def cos_field(grid, k, axis=0):
    coord = (grid.x, grid.y, grid.z)[axis]
    return RealField(grid, full(grid, np.cos(k * coord)))


def sin_field(grid, k, axis=0):
    coord = (grid.x, grid.y, grid.z)[axis]
    return RealField(grid, full(grid, np.sin(k * coord)))


class TestGrid:
    def test_resolution_must_be_power_of_two(self):
        for bad in (7, 12, 20, 100):
            with pytest.raises(ValueError, match="power of two"):
                Grid(bad)

    def test_resolution_must_be_at_least_eight(self):
        with pytest.raises(ValueError, match=">= 8"):
            Grid(4)

    def test_wavenumber_table(self, grid16):
        assert grid16.k1d[0] == 0.0
        assert grid16.k1d[1] == 1.0
        assert grid16.k1d[-1] == -1.0
        assert grid16.k1d[8] == -8.0  # unmatched Nyquist row

    def test_retained_set_is_symmetric(self, grid16):
        """Every retained wavenumber has its negative retained too."""
        mask = np.broadcast_to(grid16.dealias_mask, grid16.spectral_shape)
        kx = np.broadcast_to(grid16.kx, grid16.spectral_shape)
        ky = np.broadcast_to(grid16.ky, grid16.spectral_shape)
        kz = np.broadcast_to(grid16.kz, grid16.spectral_shape)
        retained = {
            (int(a), int(b), int(c))
            for a, b, c in zip(kx[mask], ky[mask], kz[mask])
        }
        lattice = retained | {(-a, -b, -c) for a, b, c in retained}
        for k in lattice:
            assert (-k[0], -k[1], -k[2]) in lattice

    def test_dealias_mask_cuts_above_third(self, grid16):
        """|k_i| <= n/3 retained; above (including Nyquist) masked."""
        assert grid16.dealias_mask[5, 0, 0]  # k = (5,0,0), 5 <= 16/3
        assert not grid16.dealias_mask[6, 0, 0]
        assert not grid16.dealias_mask[8, 0, 0]  # Nyquist row zeroed
        assert not grid16.dealias_mask[0, 0, 8]

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_block_is_exactly_the_dealias_mask(self, n):
        """The block's gather takes each mode of the dealias mask once and no
        other; its scatter writes exactly those modes; its tables are the
        grid's at those modes."""
        g = Grid(n)
        b = g.block
        shape = g.spectral_shape
        mask = np.broadcast_to(g.dealias_mask, shape)
        labels = np.arange(mask.size, dtype=np.int32).reshape(shape)
        taken = b.gather(labels, np.empty(b.shape, dtype=labels.dtype))
        assert taken[0, 0, 0] == 0  # k = 0 leads the block
        assert np.array_equal(np.sort(taken, axis=None), labels[mask])
        assert np.array_equal(b.scatter(np.ones(b.shape, bool), np.zeros(shape, bool)), mask)
        for name in ("kx", "ky", "kz", "k2", "inv_k2"):
            want = np.broadcast_to(getattr(g, name), shape).flat[taken]
            assert np.array_equal(np.broadcast_to(getattr(b, name), b.shape), want)
        assert b.dealias_mask.all() and b.dealias_mask.shape == b.shape
        assert g.block is b  # built once per grid


class TestTransforms:
    def test_zero_field_zero_coefficients(self, grid16):
        F = ehd.forward_transform(RealField(grid16, np.zeros((16,) * 3)))
        assert np.all(F.coeffs == 0)

    def test_single_cosine_coefficients(self, grid16):
        """cos(x1) carries exactly the conjugate pair at k = (+-1, 0, 0), value 1/2."""
        F = ehd.forward_transform(cos_field(grid16, 1, axis=0))
        assert F.coeffs[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        rest = F.coeffs.copy()
        rest[1, 0, 0] = 0.0
        rest[-1, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-15

    def test_parseval_random_fields(self, grid16, band_limited):
        for _ in range(100):
            f = band_limited(grid16)
            F = ehd.forward_transform(f)
            riemann = ehd.lp_norm(f, 2) ** 2
            spectral = ehd.l2_norm_sq(F)
            assert spectral == pytest.approx(riemann, rel=1e-12)

    def test_round_trip_random_fields(self, grid16, band_limited):
        for _ in range(100):
            f = band_limited(grid16)
            back = ehd.backward_transform(ehd.forward_transform(f))
            assert np.abs(back.samples - f.samples).max() < 1e-12

    def test_non_finite_input_names_node(self, grid16):
        samples = np.zeros((16,) * 3)
        samples[2, 3, 4] = np.nan
        with pytest.raises(NonFiniteFieldError, match=r"\(2, 3, 4\)"):
            ehd.forward_transform(RealField(grid16, samples))

    def test_backward_single_mode_pair(self, grid16):
        """Coefficient 1/2 at (0,2,0) plus its conjugate synthesize cos(2 x2)."""
        coeffs = np.zeros(grid16.spectral_shape, dtype=complex)
        coeffs[0, 2, 0] = 0.5
        coeffs[0, -2, 0] = 0.5
        f = ehd.backward_transform(SpectralField(grid16, coeffs))
        assert np.abs(f.samples - cos_field(grid16, 2, axis=1).samples).max() < 1e-13

    def test_backward_zero(self, grid16):
        f = ehd.backward_transform(
            SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
        )
        assert np.all(f.samples == 0)

    def test_broken_hermitian_symmetry_rejected(self, grid16):
        coeffs = np.zeros(grid16.spectral_shape, dtype=complex)
        coeffs[1, 0, 0] = 1.0  # mirror at (-1, 0, 0) missing
        with pytest.raises(HermitianSymmetryError, match="not real"):
            ehd.backward_transform(SpectralField(grid16, coeffs))

    def test_hermitian_defect_measures_asymmetry(self, grid16):
        coeffs = np.zeros(grid16.spectral_shape, dtype=complex)
        coeffs[1, 0, 0] = 1.0
        coeffs[-1, 0, 0] = 1.0  # conjugate of 1.0 is itself: symmetric
        assert ehd.hermitian_defect(SpectralField(grid16, coeffs)) < 1e-15
        coeffs[-1, 0, 0] = 0.5
        assert ehd.hermitian_defect(SpectralField(grid16, coeffs)) == pytest.approx(0.5)

    def test_broken_symmetry_on_nyquist_plane_rejected(self, grid16):
        coeffs = np.zeros(grid16.spectral_shape, dtype=complex)
        coeffs[1, 0, grid16.n // 2] = 1.0  # mirror at (-1, 0, n/2) missing
        with pytest.raises(HermitianSymmetryError):
            ehd.backward_transform(SpectralField(grid16, coeffs))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_symmetry_verdict_is_the_scaled_tolerance(self, scale, grid16, band_limited):
        """Accepted exactly when defect <= 1e-12 * max(1, max |c|), the
        expression the check measured the scale for on every call."""
        symmetric = scale * ehd.forward_transform(band_limited(grid16)).coeffs
        verdicts = []
        for defect in (0.0, 1e-14, 9e-13, 3e-12, 1e-9, 1e-6, 1e-3):
            coeffs = symmetric.copy()
            coeffs[1, 2, 0] += defect  # its mirror (-1, -2, 0) is left as it was
            F = SpectralField(grid16, coeffs)
            old = ehd.hermitian_defect(F) > 1e-12 * max(1.0, float(np.abs(coeffs).max()))
            try:
                ehd.backward_transform(F)
                rejected = False
            except HermitianSymmetryError:
                rejected = True
            assert rejected == old, defect
            verdicts.append(rejected)
        assert verdicts[0] is False and verdicts[-1] is True


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _layout(a, layout):
    """a as C-ordered, F-ordered (a restarted state's samples) or read-only."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "read-only":
        a = a.copy()
        a.flags.writeable = False
    return a


@pytest.fixture
def calls(monkeypatch):
    """The names of the binding's functions the seam calls, in call order."""
    made = []
    for name in ("_r2c", "_c2c", "_c2r"):
        fn = getattr(ehd.spectral, name)
        monkeypatch.setattr(
            ehd.spectral, name, lambda *a, fn=fn, name=name: made.append(name) or fn(*a))
    return made


class TestDirectBinding:
    """The seam calls pocketfft's binding; its bits are the public call's."""

    @pytest.mark.parametrize("layout", ["C", "F", "read-only"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bitwise_the_public_call(self, n, layout, calls, rng):
        grid = Grid(n)
        x = _layout(rng.standard_normal((n,) * 3), layout)
        c = ehd.spectral._coeffs_from_samples(grid, x)
        assert _same_bits(c, scipy.fft.rfftn(x, norm="forward"))
        c = _layout(c, layout)
        y = ehd.spectral._samples_from_coeffs(grid, c)
        assert _same_bits(y, scipy.fft.irfftn(c, s=(n,) * 3, norm="forward"))
        assert calls == ["_r2c", "_c2r"]

    @pytest.mark.parametrize("dtype, out", [
        (np.int64, np.complex128), (">f8", np.complex128), (np.float32, np.complex64)])
    def test_other_sample_types_take_the_public_call(self, dtype, out, grid8, calls):
        """The binding raises on int64 and '>f8', where scipy converts."""
        x = (np.arange(8**3).reshape((8,) * 3) % 7).astype(dtype)
        F = ehd.forward_transform(RealField(grid8, x))
        expected = scipy.fft.rfftn(x, norm="forward")
        expected *= grid8.dealias_mask
        assert F.coeffs.dtype == out
        assert _same_bits(F.coeffs, expected)
        assert calls == []


def _forward_inputs(n, rng):
    """(name, samples): random, zero, signed-zero and far-scaled fields."""
    x = rng.standard_normal((n,) * 3)
    yield "random", x
    yield "zeros", np.zeros_like(x)
    yield "negative zeros", np.full_like(x, -0.0)
    signed = x.copy()
    signed[x > 0.7] = 0.0
    signed[x < -0.7] = -0.0
    yield "signed zeros", signed
    for e in (-280, -140, 140, 280):
        yield f"scaled 1e{e}", x * 10.0**e


def _block_inputs(shape, rng):
    """(name, block coefficients): random, with -0 entries, with exact-zero
    planes of each axis, all -0."""
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    yield "random", c
    signed = c.copy()
    signed.real[c.real > 0.5] = -0.0
    signed.imag[c.imag < -0.5] = -0.0
    yield "negative zeros", signed
    planes = c.copy()
    planes[1], planes[:, -1], planes[..., 0] = 0.0, -0.0, 0.0
    yield "zero planes", planes
    yield "all negative zeros", np.full(shape, -0.0 - 0.0j)


class TestBlockMode:
    """Given a block array, each helper runs only the 1-D lines that reach
    or leave the block, bit for bit the block of the full transform.  The
    bits can differ only for inputs beyond about 1e+-300: the forward's
    1/n^3 is applied as three factors 1/n, whose products over- or underflow
    at other magnitudes than the full transform's."""

    @pytest.mark.parametrize("layout", ["C", "F", "read-only"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_forward_is_the_gathered_public_call(self, n, layout, calls, rng):
        grid = Grid(n)
        block = grid.block
        inputs = list(_forward_inputs(n, rng))
        for name, x in inputs:
            x = _layout(x, layout)
            expected = block.gather(scipy.fft.rfftn(x, norm="forward"),
                                    np.empty(block.shape, complex))
            out = np.full(block.shape, np.nan, complex)
            assert ehd.spectral._coeffs_from_samples(grid, x, out) is out
            assert _same_bits(out, expected), name
        # z on every line, x on the kept kz planes, y on their kept kx rows.
        assert calls == ["_r2c", "_c2c", "_c2c", "_c2c"] * len(inputs)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_inverse_is_the_public_call_of_the_scatter(self, n, calls, rng):
        """One work array for every call, its kept kz planes NaN to start:
        nothing carries over from one call to the next, and the planes above
        the block stay +0."""
        grid = Grid(n)
        block = grid.block
        work = np.zeros(grid.spectral_shape, complex)
        work[..., block.planes] = np.nan
        inputs = list(_block_inputs(block.shape, rng))
        for name, c in inputs:
            expected = scipy.fft.irfftn(
                block.scatter(c, np.zeros(grid.spectral_shape, complex)), s=(n,) * 3,
                norm="forward")
            assert _same_bits(ehd.spectral._samples_from_coeffs(grid, c, work), expected), name
        assert not work[..., block.planes.stop:].view(np.int64).any()
        # x on the block's ky rows of the kept planes, y on those planes, z on every line.
        assert calls == ["_c2c", "_c2c", "_c2c", "_c2r"] * len(inputs)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_binding_maps_plus_zero_lines_to_plus_zero(self, n):
        """Why the inverse may skip a line that holds only +0: pocketfft's
        1-D transforms map it to +0, c2c in both directions and c2r.  Each
        batch of seven lines runs the vectorised path and the scalar one."""
        spectral = ehd.spectral
        for axis, shape in ((0, (n, 7)), (1, (7, n))):
            for forward in (True, False):
                out = spectral._c2c(np.zeros(shape, complex), (axis,), forward, 0, None, 1)
                assert not out.view(np.int64).any(), (axis, forward)
        for axis, shape in ((0, (n // 2 + 1, 7)), (1, (7, n // 2 + 1))):
            out = spectral._c2r(np.zeros(shape, complex), (axis,), n, False, 0, None, 1)
            assert not out.view(np.int64).any(), axis

    @pytest.mark.parametrize("missing", ["_r2c", "_c2c", "_c2r", "replaced"])
    def test_fallback_gathers_and_scatters_the_public_call(self, missing, grid16, rng,
                                                           monkeypatch):
        """Without any one binding name, or with scipy.fft's functions
        replaced, both helpers make the full public transform: same bits."""
        block = grid16.block
        x = rng.standard_normal((16,) * 3)
        c = next(_block_inputs(block.shape, rng))[1]
        expected = (ehd.spectral._coeffs_from_samples(grid16, x, np.empty(block.shape, complex)),
                    ehd.spectral._samples_from_coeffs(
                        grid16, c, np.zeros(grid16.spectral_shape, complex)))
        public = []
        for name in ("rfftn", "irfftn"):
            fn = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name,
                                lambda *a, fn=fn, name=name, **k: public.append(name) or fn(*a, **k))
        if missing != "replaced":
            monkeypatch.setattr(ehd.spectral, "_RFFTN", scipy.fft.rfftn)
            monkeypatch.setattr(ehd.spectral, "_IRFFTN", scipy.fft.irfftn)
            monkeypatch.setattr(ehd.spectral, missing, None)
        work = np.full(grid16.spectral_shape, np.nan, complex)
        work[..., block.planes.stop:] = 0.0
        got = (ehd.spectral._coeffs_from_samples(grid16, x, np.empty(block.shape, complex)),
               ehd.spectral._samples_from_coeffs(grid16, c, work))
        assert public == ["rfftn", "irfftn"]
        for a, b in zip(got, expected):
            assert _same_bits(a, b)


def _roll_defect(F):
    """hermitian_defect as the np.roll expression it replaced."""
    defect = 0.0
    for iz in (0, F.grid.n // 2):
        plane = F.coeffs[:, :, iz]
        mirrored = np.conj(np.roll(plane[::-1, ::-1], (1, 1), axis=(0, 1)))
        defect = max(defect, float(np.abs(plane - mirrored).max()))
    return defect


def _rejected(F):
    try:
        ehd.backward_transform(F)
    except HermitianSymmetryError:
        return True
    return False


class TestMirrorTable:
    """hermitian_defect gathers the mirrored planes through a table on the
    Grid: the same value as np.roll, and the same verdict for any input."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_same_value_as_roll(self, n, scale, band_limited):
        grid = ehd.Grid(n)
        h = n // 2
        symmetric = scale * ehd.forward_transform(band_limited(grid)).coeffs
        assert ehd.hermitian_defect(SpectralField(grid, symmetric)) == _roll_defect(
            SpectralField(grid, symmetric))
        defects = [((1, 2, 0), 1e-13), ((-3, 1, 0), 2e-12j), ((0, 0, 0), 1e-9j),
                   ((1, 0, h), 1e-6), ((2, -1, h), 3e-3 + 1e-3j), ((h, h, h), 0.5j)]
        for index, delta in defects:
            coeffs = symmetric.copy()
            coeffs[index] += scale * delta
            F = SpectralField(grid, coeffs)
            assert ehd.hermitian_defect(F) == _roll_defect(F), index
            assert ehd.hermitian_defect(F) > 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_same_verdict_for_non_finite(self, n, bad, band_limited):
        grid = ehd.Grid(n)
        h = n // 2
        symmetric = ehd.forward_transform(band_limited(grid)).coeffs
        cases = [
            [((1, 2, 0), bad)],
            [((0, 0, 0), bad)],
            [((1, 2, h), bad)],
            [((1, 2, 0), bad), ((2, 1, h), 1e-3)],  # real defect in plane n/2 only
            [((1, 2, h), bad), ((2, 1, 0), 1e-3)],
            [((1, 2, 0), bad), ((2, 1, h), bad)],
            [((1, 2, 3), bad)],  # off the self-conjugate planes
        ]
        for case in cases:
            coeffs = symmetric.copy()
            for index, value in case:
                coeffs[index] += value
            F = SpectralField(grid, coeffs)
            old = _roll_defect(F)
            old_rejects = old > 1e-12 and old > 1e-12 * max(1.0, float(np.abs(coeffs).max()))
            assert _rejected(F) == old_rejects, case
            new = ehd.hermitian_defect(F)
            assert new == old or (math.isnan(new) and math.isnan(old)), case

    def test_nan_plane_does_not_hide_a_defect_in_the_other(self, grid16, band_limited):
        coeffs = ehd.forward_transform(band_limited(grid16)).coeffs
        coeffs[1, 2, 0] = np.nan
        coeffs[2, 1, grid16.n // 2] += 1e-3
        F = SpectralField(grid16, coeffs)
        with np.errstate(invalid="ignore"):
            assert ehd.hermitian_defect(F) == pytest.approx(1e-3)
            assert _rejected(F)

    def test_table_lives_on_the_grid(self):
        g = ehd.Grid(8)
        ehd.hermitian_defect(SpectralField(g, np.zeros(g.spectral_shape, dtype=complex)))
        src, mirror = g.tables["mirror"]
        assert src.shape == mirror.shape == (2, 64)


class TestOperators:
    def test_gradient_of_sine(self, grid16):
        F = ehd.forward_transform(sin_field(grid16, 1, axis=0))
        grad = ehd.vector_backward(ehd.gradient(F))
        assert np.abs(grad.x.samples - cos_field(grid16, 1, axis=0).samples).max() < 1e-13
        assert np.abs(grad.y.samples).max() < 1e-14
        assert np.abs(grad.z.samples).max() < 1e-14

    def test_gradient_of_constant_is_zero(self, grid16):
        F = ehd.forward_transform(RealField(grid16, full(grid16, 3.7)))
        grad = ehd.vector_backward(ehd.gradient(F))
        for c in grad.components:
            assert np.abs(c.samples).max() < 1e-13

    def test_gradient_of_cos_2x2(self, grid16):
        F = ehd.forward_transform(cos_field(grid16, 2, axis=1))
        grad = ehd.vector_backward(ehd.gradient(F))
        expected = -2.0 * sin_field(grid16, 2, axis=1).samples
        assert np.abs(grad.x.samples).max() < 1e-13
        assert np.abs(grad.y.samples - expected).max() < 1e-12
        assert np.abs(grad.z.samples).max() < 1e-13

    def test_curl_of_shear(self, grid16):
        """u = (sin x2, 0, 0) has curl (0, 0, -cos x2)."""
        zero = RealField(grid16, np.zeros((16,) * 3))
        u = VectorField(sin_field(grid16, 1, axis=1), zero, zero)
        omega = ehd.vector_backward(ehd.curl(ehd.vector_forward(u)))
        assert np.abs(omega.x.samples).max() < 1e-13
        assert np.abs(omega.y.samples).max() < 1e-13
        expected = -cos_field(grid16, 1, axis=1).samples
        assert np.abs(omega.z.samples - expected).max() < 1e-12

    def test_curl_of_gradient_vanishes(self, grid16, band_limited):
        phi = RealField(
            grid16, full(grid16, np.sin(grid16.x) * np.sin(grid16.y))
        )
        for f in (phi, band_limited(grid16)):
            grad = ehd.gradient(ehd.forward_transform(f))
            rot = ehd.vector_backward(ehd.curl(grad))
            for c in rot.components:
                assert np.abs(c.samples).max() < 1e-12

    def test_divergence_of_curl_vanishes(self, grid16, band_limited):
        u = VectorField(*[band_limited(grid16) for _ in range(3)])
        omega = ehd.curl(ehd.vector_forward(u))
        div = ehd.backward_transform(ehd.divergence(omega))
        assert np.abs(div.samples).max() < 1e-12

    def test_laplacian_eigenfunction(self, grid16):
        F = ehd.forward_transform(cos_field(grid16, 2, axis=1))
        lap = ehd.backward_transform(ehd.laplacian(F))
        expected = -4.0 * cos_field(grid16, 2, axis=1).samples
        assert np.abs(lap.samples - expected).max() < 1e-12

    def test_mismatched_grids_rejected(self, grid8, grid16):
        a = ehd.forward_transform(cos_field(grid16, 1))
        b = ehd.forward_transform(cos_field(grid8, 1))
        with pytest.raises(GridMismatchError):
            VectorField(a, a, b)

    def test_fields_of_the_wrong_shape_rejected(self, grid8, grid16):
        with pytest.raises(ValueError, match=r"expected samples of shape \(16, 16, 16\)"):
            RealField(grid16, np.zeros((8,) * 3))
        with pytest.raises(ValueError, match=r"expected coefficients of shape \(16, 16, 9\)"):
            SpectralField(grid16, np.zeros(grid8.spectral_shape, dtype=complex))

    def test_mixed_representations_rejected(self, grid16):
        f = cos_field(grid16, 1)
        with pytest.raises(ValueError, match="share one representation"):
            VectorField(f, f, ehd.forward_transform(f))

    def test_operations_preserve_hermitian_symmetry(self, grid16, band_limited):
        F = ehd.forward_transform(band_limited(grid16))
        U = ehd.vector_forward(
            VectorField(*[band_limited(grid16) for _ in range(3)])
        )
        outputs = [
            *ehd.gradient(F).components,
            ehd.laplacian(F),
            ehd.divergence(U),
            *ehd.curl(U).components,
            *ehd.leray_project(U).components,
        ]
        for out in outputs:
            assert ehd.hermitian_defect(out) < 1e-14


class TestLerayProjection:
    def test_pure_gradient_annihilated(self, grid16):
        phi = RealField(grid16, full(grid16, np.sin(grid16.x) * np.sin(grid16.y)))
        grad = ehd.gradient(ehd.forward_transform(phi))
        proj = ehd.vector_backward(ehd.leray_project(grad))
        for c in proj.components:
            assert np.abs(c.samples).max() < 1e-13

    def test_divergence_free_passes_through(self, grid16):
        zero = RealField(grid16, np.zeros((16,) * 3))
        u = VectorField(sin_field(grid16, 1, axis=1), zero, zero)
        U = ehd.vector_forward(u)
        proj = ehd.vector_backward(ehd.leray_project(U))
        assert np.abs(proj.x.samples - u.x.samples).max() < 1e-12
        assert np.abs(proj.y.samples).max() < 1e-13
        assert np.abs(proj.z.samples).max() < 1e-13

    def test_idempotent_on_random_fields(self, grid16, band_limited):
        for _ in range(100):
            U = ehd.vector_forward(
                VectorField(*[band_limited(grid16) for _ in range(3)])
            )
            once = ehd.leray_project(U)
            twice = ehd.leray_project(once)
            for a, b in zip(once.components, twice.components):
                assert np.abs(a.coeffs - b.coeffs).max() < 1e-12

    def test_in_place_operators_are_bitwise_the_expressions(self, grid16, band_limited):
        """leray_project, divergence and solve_poisson compute in place, yet
        equal their expression forms bit for bit and leave their input alone."""
        g = grid16
        U = ehd.vector_forward(VectorField(*[band_limited(g) for _ in range(3)]))
        cx, cy, cz = (c.coeffs.copy() for c in U.components)
        kd = (g.kx * cx + g.ky * cy + g.kz * cz) * g.inv_k2
        want = [cx - g.kx * kd, cy - g.ky * kd, cz - g.kz * kd,
                1j * (g.kx * cx + g.ky * cy + g.kz * cz)]
        eta = ehd.forward_transform(band_limited(g)).coeffs
        eta[0, 0, 0] = 0.0
        psi = -eta * g.inv_k2
        psi[0, 0, 0] = 0.0
        got = [*(c.coeffs for c in ehd.leray_project(U).components),
               ehd.divergence(U).coeffs,
               ehd.solve_poisson(SpectralField(g, eta)).coeffs]
        for a, b in zip(got, [*want, psi], strict=True):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        for c, before in zip(U.components, (cx, cy, cz)):
            assert np.array_equal(c.coeffs.view(np.int64), before.view(np.int64))

    def test_projected_field_is_divergence_free(self, grid16, band_limited):
        U = ehd.vector_forward(VectorField(*[band_limited(grid16) for _ in range(3)]))
        div = ehd.backward_transform(ehd.divergence(ehd.leray_project(U)))
        assert np.abs(div.samples).max() < 1e-10


class TestPoisson:
    def test_sine_eigenmode(self, grid16):
        eta = ehd.forward_transform(sin_field(grid16, 1, axis=0))
        psi = ehd.backward_transform(ehd.solve_poisson(eta))
        expected = -sin_field(grid16, 1, axis=0).samples
        assert np.abs(psi.samples - expected).max() < 1e-13

    def test_cos_2x2_eigenmode(self, grid16):
        eta = ehd.forward_transform(cos_field(grid16, 2, axis=1))
        psi = ehd.backward_transform(ehd.solve_poisson(eta))
        expected = -cos_field(grid16, 2, axis=1).samples / 4.0
        assert np.abs(psi.samples - expected).max() < 1e-13

    def test_zero_source(self, grid16):
        eta = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
        psi = ehd.solve_poisson(eta)
        assert np.all(psi.coeffs == 0)

    def test_residual_on_random_mean_free_source(self, grid16, band_limited):
        f = band_limited(grid16)
        F = ehd.forward_transform(f)
        F.coeffs[0, 0, 0] = 0.0
        psi = ehd.solve_poisson(F)
        residual = ehd.backward_transform(
            SpectralField(grid16, ehd.laplacian(psi).coeffs - F.coeffs)
        )
        assert np.abs(residual.samples).max() < 1e-12

    def test_gauge_is_zero_mean(self, grid16, band_limited):
        F = ehd.forward_transform(band_limited(grid16))
        F.coeffs[0, 0, 0] = 0.0
        psi = ehd.solve_poisson(F)
        assert psi.coeffs[0, 0, 0] == 0.0

    def test_net_charge_rejected(self, grid16):
        F = ehd.forward_transform(RealField(grid16, full(grid16, 1e-6)))
        with pytest.raises(ChargeNeutralityError, match="net charge"):
            ehd.solve_poisson(F)


class TestNorms:
    def test_sup_norm_of_resolved_cosine(self, grid16):
        assert ehd.lp_norm(cos_field(grid16, 4), math.inf) == pytest.approx(1.0)

    def test_l2_of_cos_4x1(self, grid16):
        # int cos^2(4 x1) over the box = (2 pi)^3 / 2 = 4 pi^3
        expected = math.sqrt(4.0 * PI**3)
        assert ehd.lp_norm(cos_field(grid16, 4), 2) == pytest.approx(expected, rel=1e-13)

    def test_zero_field_all_norms_zero(self, grid16):
        zero = RealField(grid16, np.zeros((16,) * 3))
        for p in (1, 2, 3.5, math.inf):
            assert ehd.lp_norm(zero, p) == 0.0
        assert ehd.sobolev_norm(ehd.forward_transform(zero), 2.0) == 0.0

    def test_exponent_below_one_rejected(self, grid16):
        with pytest.raises(ValueError, match="p >= 1"):
            ehd.lp_norm(cos_field(grid16, 1), 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf])
    @pytest.mark.parametrize(
        "case", ["signed", "zeros", "negative_zeros", "nan", "negative_nan", "inf", "negative_inf"]
    )
    def test_bitwise_the_norm_of_the_absolute_copy(self, case, p, grid8, rng):
        """lp_norm forms no |samples| copy at p = inf and raises |samples| to p
        in place otherwise; either way its bits are those of the expression on
        np.abs(samples), signed zeros and non-finite samples included."""
        s = rng.standard_normal((8,) * 3)
        if case == "zeros":
            s = np.zeros_like(s)
            s[::2] = -0.0
        elif case == "negative_zeros":
            s = np.full_like(s, -0.0)
        elif case != "signed":
            s[3, 1, 4] = {"nan": np.nan, "negative_nan": -np.nan,
                          "inf": np.inf, "negative_inf": -np.inf}[case]
        a = np.abs(s)
        if math.isinf(p):
            expected = float(a.max())
        else:
            expected = float((np.sum(a**p) * grid8.cell_volume) ** (1.0 / p))
        got = ehd.lp_norm(RealField(grid8, s), p)
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)

    def test_negative_sobolev_index_rejected(self, grid16):
        F = ehd.forward_transform(cos_field(grid16, 1))
        with pytest.raises(ValueError, match="s >= 0"):
            ehd.sobolev_norm(F, -1.0)

    def test_sobolev_zero_matches_l2(self, grid16, band_limited):
        for _ in range(20):
            f = band_limited(grid16)
            F = ehd.forward_transform(f)
            assert ehd.sobolev_norm(F, 0.0) == pytest.approx(
                ehd.lp_norm(f, 2), rel=1e-12
            )

    def test_sobolev_weights_single_mode(self, grid16):
        # cos(2 x2): |k|^2 = 4, so H^s = (1+4)^(s/2) times the L2 norm
        f = cos_field(grid16, 2, axis=1)
        F = ehd.forward_transform(f)
        l2 = ehd.lp_norm(f, 2)
        assert ehd.sobolev_norm(F, 3.0) == pytest.approx(5.0**1.5 * l2, rel=1e-12)

    def test_tail_fraction(self, grid16):
        assert ehd.spectral_tail_fraction(ehd.forward_transform(cos_field(grid16, 1))) < 1e-28
        high = ehd.forward_transform(cos_field(grid16, 5))
        assert ehd.spectral_tail_fraction(high) == pytest.approx(1.0)
        zero = SpectralField(grid16, np.zeros(grid16.spectral_shape, dtype=complex))
        assert ehd.spectral_tail_fraction(zero) == 0.0

    def test_tail_fraction_of_several_fields(self, grid16, band_limited):
        from ehd.spectral import spectral_power

        fields = [ehd.forward_transform(band_limited(grid16)) for _ in range(3)]
        g = grid16
        cap = np.floor(g.n / 3.0) / 2
        outer = (np.abs(g.kx) > cap) | (np.abs(g.ky) > cap) | (np.abs(g.kz) > cap)
        powers = [spectral_power(F) for F in fields]
        tail = sum(float(P[np.broadcast_to(outer, P.shape)].sum()) for P in powers)
        total = sum(float(P.sum()) for P in powers)
        assert ehd.spectral_tail_fraction(*fields) == tail / total  # same summation order
        # One field: the fraction of that field's own power, bit for bit.
        P = powers[0]
        one = float(P[np.broadcast_to(outer, P.shape)].sum() / P.sum())
        assert ehd.spectral_tail_fraction(fields[0]) == one

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_tail_fraction_of_real_fields_is_that_of_their_transforms(self, n, rng):
        """Given samples, the fraction of their `forward_transform`s, bit for
        bit: white noise, so the modes the dealias mask drops carry power."""
        g = Grid(n)
        fields = [RealField(g, rng.standard_normal((n,) * 3)) for _ in range(3)]
        spectral = [ehd.forward_transform(f) for f in fields]
        assert ehd.spectral_tail_fraction(*fields) == ehd.spectral_tail_fraction(*spectral)
        assert ehd.spectral_tail_fraction(fields[1]) == ehd.spectral_tail_fraction(spectral[1])
        zero = RealField(g, np.zeros((n,) * 3))
        assert ehd.spectral_tail_fraction(zero) == 0.0
