"""The per-step snapshot: transform budget, lazily shared fields, read-only arrays."""

import hashlib
import math
import sys

import numpy as np
import pytest
import scipy.fft

import ehd
import ehd.spectral
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

    def test_uncharged_step_makes_28_transforms(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.taylor_green(grid16),
                              StepControl(dt=1e-3, t_end=5e-3))
        # Only the velocity is carried: no transform of the zero charges.
        assert [len(s) for s in steps[1:]] == [28] * 4

    def test_no_transform_repeats_within_a_step(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.random_smooth(grid16, seed=3),
                              StepControl(dt=1e-3, t_end=4e-3))
        for calls in steps:
            keys = [(kind, digest) for kind, digest, nonzero in calls if nonzero]
            assert len(keys) == len(set(keys))

    def test_run_transforms_the_initial_state_in_setup(self, grid16, monkeypatch):
        """All five fields of a user state before the t = 0 hook, none in step 1."""
        s0 = ehd.random_smooth(grid16, seed=3)
        counter = FFTCounter(monkeypatch)
        forward = []
        ehd.run(s0, StepControl(dt=1e-3, t_end=2e-3),
                hooks=[lambda s, d, dt: forward.append(counter.count("fwd"))])
        assert forward[0] == 5
        assert forward[1] - forward[0] == forward[2] - forward[1]

    def test_setup_transforms_the_initial_state_once(self, grid16, monkeypatch):
        s0 = ehd.random_smooth(grid16, seed=3)
        counter = FFTCounter(monkeypatch)
        ehd.validate_initial_state(s0)
        ehd.cfl_limit(s0, 0.4)
        ehd.AuditLedger.from_state(s0)
        ehd.validate_initial_state(s0)
        # 5 forward transforms of the samples; the divergence twice, grad psi once.
        assert (counter.count("fwd"), counter.count("inv")) == (5, 5)


class TestPowerBudget:
    @pytest.mark.parametrize("preset, per_step", [("charged_shear", 7), ("taylor_green", 6)])
    def test_observers_form_each_power_once(self, preset, per_step, tmp_path, monkeypatch):
        """One power array per field (ux, uy, uz, v, w, psi) per observed
        step, and one for the transform of v that gn_ratios makes; 26 when
        every norm formed its own."""
        from ehd import cli

        original = ehd.spectral.spectral_power
        calls = []

        def counted(F):
            calls.append(F)
            return original(F)

        for module in [m for name, m in sys.modules.items() if name.startswith("ehd.")]:
            if getattr(module, "spectral_power", None) is original:
                monkeypatch.setattr(module, "spectral_power", counted)
        per_hook = []
        observe = cli._Orchestra.__call__

        def counted_hook(self, state, derived, dt):
            before = len(calls)
            observe(self, state, derived, dt)
            per_hook.append(len(calls) - before)

        monkeypatch.setattr(cli._Orchestra, "__call__", counted_hook)
        config = tmp_path / "run.cfg"
        config.write_text(f"grid_n = 16\nt_end = 2e-3\ninitial_condition = {preset}\n"
                          f"output_dir = {tmp_path}\n")
        assert cli.main(["run", str(config)]) == 0
        # The t = 0 hook reads the powers the ledger's set-up formed.
        assert per_hook[0] == per_step - 6
        assert per_hook[1:] == [per_step] * 4


class TestFinalisation:
    def test_cli_finalisation_transforms_only_u(self, tmp_path, monkeypatch):
        """After the run: u forward (3), omega inverse (3) and forward (3)."""
        from ehd import cli

        counter = FFTCounter(monkeypatch)
        marks = []

        def marked_run(*args, **kwargs):
            report = ehd.run(*args, **kwargs)
            marks.append(len(counter.calls))
            return report

        monkeypatch.setattr(cli, "run", marked_run)
        config = tmp_path / "run.cfg"
        config.write_text("grid_n = 16\nt_end = 2e-3\ninitial_condition = charged_shear\n"
                          f"output_dir = {tmp_path}\n")
        assert cli.main(["run", str(config)]) == 0
        final = counter.calls[marks[0]:]
        assert [kind for kind, _, _ in final] == ["fwd"] * 3 + ["inv"] * 3 + ["fwd"] * 3

    def test_user_state_transforms_each_field_once_when_asked(self, grid16, monkeypatch):
        s = ehd.random_smooth(grid16, seed=3)
        counter = FFTCounter(monkeypatch)
        s.u_hat
        assert counter.count("fwd") == 3
        s.v_hat, s.u_hat.x
        assert counter.count("fwd") == 4
        s.coeffs, s.psi_hat, s.w_hat
        assert counter.count("fwd") == 5
        assert len({digest for _, digest, _ in counter.calls}) == 5
        for f, c in zip((*s.u.components, s.v, s.w), s.coeffs):
            assert _bits(ehd.forward_transform(f).coeffs) == _bits(c)


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
        assert _bits(s.grad_u_magnitude.samples) == _bits(np.sqrt(sq))

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
        assert inverse_after(lambda: ehd.instantaneous_quantity(bkm, s)) == 3
        assert inverse_after(lambda: ehd.log_sobolev_ratio(s)) == 9
        assert inverse_after(lambda: ehd.instantaneous_quantity(grad, s)) == 0
        assert inverse_after(lambda: ehd.horizontal_block_magnitude(s)) == 0
        assert inverse_after(lambda: ehd.instantaneous_quantity(bkm, s)) == 0

    def test_aniso_criterion_uses_shared_block(self, grid16):
        s = _finished(grid16)
        acc = ehd.make_accumulator("BESOV_ANISO", math.inf)
        direct = ehd.besov_norm(
            ehd.forward_transform(ehd.horizontal_block_magnitude(s)),
            BesovParams(0.0, math.inf, math.inf),
        )
        assert ehd.instantaneous_quantity(acc, s) == direct

    def test_derive_rebuilds_coefficients_from_samples(self, grid16):
        s0 = ehd.random_smooth(grid16, seed=3)
        assert ehd.derive(s0) is s0
        final = _finished(grid16)
        fresh = ehd.derive(final)
        assert fresh is not final
        for f, c in zip((*final.u.components, final.v, final.w), fresh.coeffs):
            assert _bits(ehd.forward_transform(f).coeffs) == _bits(c)


class TestOnePath:
    """Observers called on a run snapshot read its fields, computed from the
    run's coefficients: no forward transform of the five fields, and bitwise
    the values the run's hook recorded."""

    def test_standalone_observers_equal_the_hook(self, grid16, monkeypatch):
        control = StepControl(dt=1e-3, t_end=3e-3)
        s0 = ehd.random_smooth(grid16, seed=3)
        ledger = ehd.AuditLedger.from_state(s0)
        accs = [ehd.make_accumulator(k, p) for k, p in (
            ("BKM", math.inf), ("PS_u", 6.0), ("PS_grad_u", 2.0), ("BESOV_ANISO", 2.0))]
        records = []

        def observe(state, _, dt):
            for acc in accs:
                ehd.observe(acc, state, dt)
            records.append(ledger.update(state, dt))

        ehd.run(s0, control, hooks=[observe])
        # The same run, unobserved: its final snapshot computes each field afresh.
        s = ehd.run(ehd.random_smooth(grid16, seed=3), control).final_state
        counter = FFTCounter(monkeypatch)
        got = [ehd.y_growth(s), ehd.log_sobolev_ratio(s), ledger.check_velocity_decay(s)]
        assert counter.count("fwd") == 0
        last = records[-1]
        assert _bits(got) == _bits([last.y, last.ls_ratio, last.velocity_margin])
        for acc in accs:
            before = counter.count("fwd")
            value = ehd.instantaneous_quantity(acc, s)
            # The anisotropic kind transforms its block magnitude, nothing else.
            block = 1 if acc.kind is ehd.CriterionKind.BESOV_ANISO else 0
            assert counter.count("fwd") - before == block
            assert _bits(value) == _bits(acc.last_value)


class TestHermitianChecks:
    """A snapshot's coefficients describe real fields by construction, so
    its inverse transforms make no Hermitian check; the Besov bands, whose
    coefficients a caller may pass, keep theirs."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        original = ehd.spectral.hermitian_defect

        def counted(F):
            calls.append(F)
            return original(F)

        monkeypatch.setattr(ehd.spectral, "hermitian_defect", counted)
        return calls

    @pytest.mark.parametrize("made_by_run", [True, False])
    def test_snapshot_fields_make_no_check(self, grid16, checks, made_by_run):
        s = _finished(grid16) if made_by_run else ehd.random_smooth(grid16, seed=3)
        checks.clear()
        s.omega, s.grad_u, s.grad_u_magnitude, s.psi, s.grad_psi
        assert checks == []

    def test_default_cli_step_checks_only_the_besov_bands(self, tmp_path, checks, monkeypatch):
        from ehd import cli

        observe = cli._Orchestra.__call__
        per_hook = []

        def counted_hook(self, state, derived, dt):
            before = len(checks)
            observe(self, state, derived, dt)
            per_hook.append(len(checks) - before)

        monkeypatch.setattr(cli._Orchestra, "__call__", counted_hook)
        config = tmp_path / "run.cfg"
        config.write_text("grid_n = 16\nt_end = 2e-3\ninitial_condition = charged_shear\n"
                          f"output_dir = {tmp_path}\n")
        assert cli.main(["run", str(config)]) == 0
        j_min, j_max = ehd.band_range(ehd.Grid(16))
        assert j_max - j_min + 1 == 4
        assert per_hook == [4] * 5  # one check per band, at t = 0 and in each step


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
        arrays = [*s.samples, *s.coeffs, *s.grad_psi,
                  *s.u_power, s.v_power, s.w_power, s.psi_power]
        assert not any(a.flags.writeable for a in arrays)


class TestMemory:
    def test_run_drops_the_initial_snapshot_fields(self, grid16):
        s0 = ehd.charged_shear(grid16)
        ehd.run(s0, StepControl(dt=1e-3, t_end=2e-3),
                hooks=[lambda s, d, dt: (d.omega, d.u_power)])
        assert not {"_transforms", "grad_psi", "omega", "u_power"} & set(vars(s0))

    def test_run_drops_observer_fields_after_the_hooks(self, grid16):
        kept = []

        def hook(s, d, dt):
            s.grad_psi
            kept.append((s, s.omega_magnitude.samples, s.u_power, s.u_h3_norm))

        ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=3e-3), hooks=[hook])
        for s, omega_mag, u_power, h3 in kept[1:]:
            assert "grad_psi" in vars(s)  # the next step's input
            assert not {"omega", "omega_magnitude", "u_power", "u_h3_norm", "u_hat"} & set(vars(s))
            assert _bits(s.omega_magnitude.samples) == _bits(omega_mag)
            assert _bits(s.u_power) == _bits(u_power) and s.u_h3_norm == h3

    def test_weight_tables_live_on_the_grid(self):
        g = ehd.Grid(8)
        assert ehd.band_weight(g, 0) is ehd.band_weight(g, 0)
        assert ehd.band_weight(ehd.Grid(8), 0) is not ehd.band_weight(g, 0)
        assert ("sobolev", 2.0) not in g.tables
        ehd.sobolev_norm(ehd.forward_transform(ehd.RealField(g, np.ones((8,) * 3))), 2.0)
        assert ("sobolev", 2.0) in g.tables
