"""The per-step snapshot: transform budget, lazily shared fields, read-only arrays."""

import hashlib
import math

import numpy as np
import pytest
import scipy.fft

import ehd
from ehd import BesovParams, SpectralField, StepControl


class FFTCounter:
    """Records every scipy.fft.rfftn / irfftn call: kind, input digest, nonzero."""

    def __init__(self, monkeypatch):
        self.calls = []
        for kind, name in (("fwd", "rfftn"), ("inv", "irfftn")):
            monkeypatch.setattr(scipy.fft, name, self._wrap(kind, getattr(scipy.fft, name)))

    def _wrap(self, kind, fn):
        def counted(x, *args, **kwargs):
            a = np.ascontiguousarray(x)
            self.calls.append((kind, hashlib.sha1(a).hexdigest(), bool(a.any())))
            return fn(x, *args, **kwargs)

        return counted

    def count(self, kind=None):
        return sum(1 for k, _, _ in self.calls if kind in (None, k))


def _step_windows(monkeypatch, state0, control):
    """Transforms made in each step of a run whose only hook marks the steps."""
    counter = FFTCounter(monkeypatch)
    marks = []
    report = ehd.run(state0, control, hooks=[lambda s, d, dt: marks.append(len(counter.calls))])
    assert report.status is ehd.RunStatus.COMPLETED
    return [counter.calls[a:b] for a, b in zip(marks, marks[1:])]


class TestTransformBudget:
    def test_charged_step_makes_61_transforms(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.charged_shear(grid16),
                              StepControl(dt=1e-3, t_end=5e-3))
        assert len(steps) == 5
        # The first step also inverts the initial coefficients for stage 1.
        assert [len(s) for s in steps[1:]] == [61] * 4

    def test_uncharged_step_makes_30_transforms(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.taylor_green(grid16),
                              StepControl(dt=1e-3, t_end=5e-3))
        assert [len(s) for s in steps[1:]] == [30] * 4

    def test_no_transform_repeats_within_a_step(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.random_smooth(grid16, seed=3),
                              StepControl(dt=1e-3, t_end=4e-3))
        for calls in steps:
            keys = [(kind, digest) for kind, digest, nonzero in calls if nonzero]
            assert len(keys) == len(set(keys))

    def test_setup_transforms_the_initial_state_once(self, grid16, monkeypatch):
        s0 = ehd.random_smooth(grid16, seed=3)
        counter = FFTCounter(monkeypatch)
        ehd.validate_initial_state(s0)
        ehd.cfl_limit(s0, 0.4)
        ehd.AuditLedger.from_state(s0, ehd.derive(s0))
        ehd.validate_initial_state(s0)
        # 5 forward transforms of the samples; the divergence twice, grad psi once.
        assert (counter.count("fwd"), counter.count("inv")) == (5, 5)


def _finished(grid, seed=3, steps=3):
    return ehd.run(ehd.random_smooth(grid, seed=seed),
                   StepControl(dt=1e-3, t_end=steps * 1e-3)).final_state


def _bits(a):
    return np.asarray(a).tobytes()


class TestLazyFields:
    def test_fields_match_eager_formulas_bitwise(self, grid16):
        s = _finished(grid16)
        g = grid16
        u_hat = s.u_hat
        v_hat, w_hat = s.v_hat.coeffs, s.w_hat.coeffs
        psi = ehd.backward_transform(ehd.solve_poisson(SpectralField(g, v_hat - w_hat)))
        assert _bits(s.psi.samples) == _bits(psi.samples)
        omega = ehd.vector_backward(ehd.curl(u_hat))
        for a, b in zip(s.omega.components, omega.components):
            assert _bits(a.samples) == _bits(b.samples)
        assert _bits(s.zeta.samples) == _bits(s.v.samples + s.w.samples)
        assert _bits(s.eta.samples) == _bits(s.v.samples - s.w.samples)

        sq = np.zeros((g.n,) * 3)
        for comp in u_hat.components:
            for d in ehd.gradient(comp).components:
                sq += ehd.backward_transform(d).samples ** 2
        assert _bits(s.grad_u_magnitude().samples) == _bits(np.sqrt(sq))

        c1, c2 = u_hat.x.coeffs, u_hat.y.coeffs
        sq = np.zeros((g.n,) * 3)
        for coeffs, kk in ((c1, g.kx), (c1, g.ky), (c2, g.kx), (c2, g.ky)):
            sq += ehd.backward_transform(SpectralField(g, 1j * kk * coeffs)).samples ** 2
        block = ehd.horizontal_block_magnitude(s)
        assert _bits(block.samples) == _bits(np.sqrt(sq))

    def test_observers_share_vorticity_and_gradient(self, grid16, monkeypatch):
        s = _finished(grid16)
        counter = FFTCounter(monkeypatch)

        def inverse_after(fn):
            before = counter.count("inv")
            fn()
            return counter.count("inv") - before

        bkm = ehd.make_accumulator("BKM")
        grad = ehd.make_accumulator("PS_grad_u", 2.0)
        assert inverse_after(lambda: ehd.instantaneous_quantity(bkm, s, s)) == 3
        assert inverse_after(lambda: ehd.log_sobolev_ratio(s, s)) == 9
        assert inverse_after(lambda: ehd.instantaneous_quantity(grad, s, s)) == 0
        assert inverse_after(lambda: ehd.horizontal_block_magnitude(s)) == 0
        assert inverse_after(lambda: ehd.instantaneous_quantity(bkm, s, s)) == 0

    def test_aniso_criterion_uses_shared_block(self, grid16):
        s = _finished(grid16)
        acc = ehd.make_accumulator("BESOV_ANISO", math.inf)
        direct = ehd.besov_norm(
            ehd.forward_transform(ehd.horizontal_block_magnitude(s)),
            BesovParams(0.0, math.inf, math.inf),
        )
        assert ehd.instantaneous_quantity(acc, s, s) == direct

    def test_derive_rebuilds_coefficients_from_samples(self, grid16):
        s0 = ehd.random_smooth(grid16, seed=3)
        assert ehd.derive(s0) is s0
        final = _finished(grid16)
        fresh = ehd.derive(final)
        assert fresh is not final
        for f, c in zip((*final.u.components, final.v, final.w), fresh.coeffs):
            assert _bits(ehd.forward_transform(f).coeffs) == _bits(c)


class TestReadOnly:
    def test_hook_writing_into_samples_raises(self, grid16):
        def vandal(state, derived, dt):
            if dt > 0:
                state.u.x.samples[0, 0, 0] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=3e-3),
                    hooks=[vandal])

    def test_reused_arrays_are_read_only(self, grid16):
        s = _finished(grid16)
        arrays = [*s.samples, *s.coeffs, *s.grad_psi]
        assert not any(a.flags.writeable for a in arrays)


class TestMemory:
    def test_run_drops_the_initial_snapshot_fields(self, grid16):
        s0 = ehd.charged_shear(grid16)
        ehd.run(s0, StepControl(dt=1e-3, t_end=2e-3), hooks=[lambda s, d, dt: d.omega])
        assert not {"coeffs", "grad_psi", "omega"} & set(vars(s0))

    def test_weight_tables_live_on_the_grid(self):
        g = ehd.Grid(8)
        assert ehd.band_weight(g, 0) is ehd.band_weight(g, 0)
        assert ehd.band_weight(ehd.Grid(8), 0) is not ehd.band_weight(g, 0)
        assert ("sobolev", 2.0) not in g.tables
        ehd.sobolev_norm(ehd.forward_transform(ehd.RealField(g, np.ones((8,) * 3))), 2.0)
        assert ("sobolev", 2.0) in g.tables
