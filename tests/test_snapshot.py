"""The per-step snapshot: transform budget, lazily shared fields, read-only arrays."""

import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
import scipy.fft

import ehd
import ehd.spectral
from ehd import BesovParams, SpectralField, StepControl
from ehd.littlewood_paley import varphi
from full_layout import layout


class FFTCounter:
    """Records every scipy.fft.rfftn / irfftn call: kind, input digest,
    nonzero in calls, and in threads the thread that made it."""

    def __init__(self, monkeypatch):
        self.calls, self.threads = [], []
        self.lock = threading.Lock()
        for kind, name in (("fwd", "rfftn"), ("inv", "irfftn")):
            monkeypatch.setattr(scipy.fft, name, self._wrap(kind, getattr(scipy.fft, name)))

    def _record(self, records, threads, item):
        """Append item to records and the calling thread to threads."""
        with self.lock:
            records.append(item)
            threads.append(threading.current_thread())

    def _wrap(self, kind, fn):
        def counted(x, *args, **kwargs):
            a = np.ascontiguousarray(x)
            self._record(self.calls, self.threads,
                         (kind, hashlib.sha1(a).hexdigest(), bool(a.any())))
            return fn(x, *args, **kwargs)

        return counted

    def count(self, kind=None):
        return sum(1 for k, _, _ in self.calls if kind in (None, k))


class SeamCounter(FFTCounter):
    """Records every call of the seam's pocketfft binding, r2c and c2r in
    calls, and in passes every c2c (the x or y pass of a block transform),
    each with its thread; scipy.fft is left alone."""

    def __init__(self, monkeypatch):
        self.calls, self.passes, self.threads, self.pass_threads = [], [], [], []
        self.lock = threading.Lock()
        for kind, name in (("fwd", "_r2c"), ("inv", "_c2r")):
            monkeypatch.setattr(ehd.spectral, name, self._wrap(kind, getattr(ehd.spectral, name)))
        c2c = ehd.spectral._c2c
        monkeypatch.setattr(ehd.spectral, "_c2c", lambda *a: (
            self._record(self.passes, self.pass_threads, a[2]) or c2c(*a)))

    def marks(self, thread=None) -> tuple:
        """(transforms, c2c passes) so far, or those thread made."""
        if thread is None:
            return len(self.calls), len(self.passes)
        return self.threads.count(thread), self.pass_threads.count(thread)


def _step_windows(monkeypatch, state0, control, counter_type=FFTCounter):
    """Transforms made in each step of a run whose only hook marks the steps."""
    counter = counter_type(monkeypatch)
    marks = []
    report = ehd.run(state0, control, hooks=[lambda s, d, dt: marks.append(len(counter.calls))])
    assert report.status is ehd.RunStatus.COMPLETED
    return [counter.calls[a:b] for a, b in zip(marks, marks[1:])]


class TestTransformBudget:
    def test_charged_step_makes_60_transforms(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.charged_shear(grid16),
                              StepControl(dt=1e-3, t_end=5e-3))
        # Each step but the last makes the grad psi of its snapshot, which
        # the next step reads (3 transforms).  The first step also inverts
        # the initial coefficients for stage 1 and makes the initial grad
        # psi; the last leaves its snapshot's grad psi until asked.
        assert [len(s) for s in steps] == [68, 60, 60, 60, 57]

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("preset, total", [("charged_shear", 310), ("taylor_green", 143)])
    def test_run_transform_totals(self, preset, total, n, monkeypatch):
        """Five steps of an unobserved run, set-up included: 5 + 68 + 3 * 60
        + 57 charged, 5 + 30 + 4 * 27 uncharged, on either lane rule."""
        s0 = getattr(ehd, preset)(ehd.Grid(n))
        counter = FFTCounter(monkeypatch)
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=5e-3))
        assert report.steps == 5
        assert counter.count() == total

    def test_uncharged_step_makes_27_transforms(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.taylor_green(grid16),
                              StepControl(dt=1e-3, t_end=5e-3))
        # Only the velocity is carried: no transform of the zero charges.
        assert [len(s) for s in steps[1:]] == [27] * 4

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
        # 5 forward transforms of the samples and grad psi once; the
        # divergence bound settles both divergence checks.
        assert (counter.count("fwd"), counter.count("inv")) == (5, 3)


class TestDirectBinding:
    """The budget holds when counted at the binding the seam calls, so an
    untraced run makes every transform there, none through scipy.fft."""

    def test_charged_step_windows(self, grid16, monkeypatch):
        steps = _step_windows(monkeypatch, ehd.charged_shear(grid16),
                              StepControl(dt=1e-3, t_end=5e-3), SeamCounter)
        assert [len(s) for s in steps] == [68, 60, 60, 60, 57]

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("preset, total", [("charged_shear", 310), ("taylor_green", 143)])
    def test_run_transform_totals(self, preset, total, n, monkeypatch):
        s0 = getattr(ehd, preset)(ehd.Grid(n))
        counter = SeamCounter(monkeypatch)
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=5e-3))
        assert report.steps == 5
        assert counter.count() == total


def _pass_windows(monkeypatch, state0, control):
    """(transforms, c2c passes) counted at the binding before the t = 0 hook
    and in each step of a run whose only hook marks the steps."""
    counter = SeamCounter(monkeypatch)
    marks = [(0, 0)]
    report = ehd.run(state0, control, hooks=[lambda s, d, dt: marks.append(counter.marks())])
    assert report.status is ehd.RunStatus.COMPLETED
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]


class TestBlockTransforms:
    """Every transform the solver, a state's coefficients and a snapshot's
    observer fields make takes the seam's block mode, three c2c passes each
    (the forward's x and two y passes, the inverse's two x and one y), set-up's
    forward transforms of the user state among them."""

    def test_charged_windows(self, grid16, monkeypatch):
        windows = _pass_windows(monkeypatch, ehd.charged_shear(grid16),
                                StepControl(dt=1e-3, t_end=5e-3))
        # Set-up transforms the five fields; step 1 makes the initial
        # State.grad_psi (3 transforms) beside its 65 solver transforms.
        assert windows == [(5, 15), (68, 3 * 68)] + [(60, 3 * 60)] * 3 + [(57, 3 * 57)]

    def test_uncharged_windows(self, grid16, monkeypatch):
        windows = _pass_windows(monkeypatch, ehd.taylor_green(grid16),
                                StepControl(dt=1e-3, t_end=5e-3))
        assert windows == [(5, 15), (30, 3 * 30)] + [(27, 3 * 27)] * 4

    def test_charged_windows_at_64_with_the_lane(self, monkeypatch):
        """At 64^3 on two CPUs the lane makes half of each step's
        transforms, through its own work arrays; inline on one."""
        windows = _pass_windows(monkeypatch, ehd.charged_shear(ehd.Grid(64)),
                                StepControl(dt=1e-3, t_end=3e-3))
        assert windows == [(5, 15), (68, 3 * 68), (60, 3 * 60), (57, 3 * 57)]

    def test_passes_run_in_the_transform_direction(self, grid16, monkeypatch):
        counter = SeamCounter(monkeypatch)
        ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=1e-3))
        forward = sum(1 for kind, _, _ in counter.calls if kind == "fwd")
        assert counter.passes.count(True) == 3 * forward
        assert counter.passes.count(False) == 3 * (len(counter.calls) - forward)

    def test_observers_take_the_block_path(self, tmp_path, monkeypatch):
        """`ehd run`'s hooks: at t = 0 the set-up's grad psi (3), then
        omega (3), grad u (9), the anisotropic norm's forward and 4 bands,
        and gn_ratios' forward; grad psi again for the final snapshot, which
        the run leaves lazy.  Each takes block mode."""
        per_hook = hook_windows(monkeypatch, tmp_path, 16, "charged_shear", 2e-3)
        assert [made for made, _ in per_hook] == [21, 18, 18, 18, 21]
        assert all(passes == 3 * made for made, passes in per_hook)

    def test_recomputed_grad_psi_takes_the_block_path(self, grid16, monkeypatch):
        s = ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=2e-3),
                    hooks=[lambda s, d, dt: s.grad_psi]).final_state
        s._release()
        counter = SeamCounter(monkeypatch)
        s.grad_psi
        assert counter.marks() == (3, 9)


def count_hooks(monkeypatch) -> list:
    """The list that each later call of `ehd run`'s observer hook appends
    its (transforms, c2c passes) to, counted at the binding.  Only the hook's
    thread is counted: where the run takes the step lane, the next step's
    transforms are made on the worker meanwhile."""
    from ehd import cli

    counter = SeamCounter(monkeypatch)
    per_hook = []
    observe = cli._Orchestra.__call__

    def counted_hook(self, state, derived, dt):
        here = threading.current_thread()
        before = counter.marks(here)
        observe(self, state, derived, dt)
        per_hook.append(tuple(b - a for a, b in zip(before, counter.marks(here))))

    monkeypatch.setattr(cli._Orchestra, "__call__", counted_hook)
    return per_hook


def hook_windows(monkeypatch, out_dir, n, preset, t_end):
    """`count_hooks` of an `ehd run` of preset on an n^3 grid."""
    from ehd import cli

    per_hook = count_hooks(monkeypatch)
    config = out_dir / "run.cfg"
    config.write_text(f"grid_n = {n}\nt_end = {t_end!r}\ninitial_condition = {preset}\n"
                      f"output_dir = {out_dir}\n")
    assert cli.main(["run", str(config)]) == 0
    return per_hook


class TestPowerBudget:
    @pytest.mark.parametrize("preset, per_step", [("charged_shear", 7), ("taylor_green", 6)])
    def test_observers_form_each_power_once(self, preset, per_step, tmp_path, monkeypatch):
        """One power array per field (ux, uy, uz, v, w, psi) per observed
        step, and one for the transform of v that gn_ratios makes; 26 when
        every norm formed its own."""
        from ehd import cli

        original = ehd.spectral.spectral_power
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

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
        # The ledger's set-up forms the t = 0 powers inside the first hook,
        # and the hook reads them.
        assert per_hook == [per_step] * 5
        # Five observed snapshots, then the report's tail fractions of u and
        # omega (three each).
        assert len(calls) == 5 * per_step + 6


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
        _assert_block_of_forward(s, s)


def _assert_block_of_forward(s, source):
    """Each block array of s is bitwise the block of the full layout's
    dealiased forward transform of the same field of source, and `coeffs`
    holds those arrays."""
    ref = layout(s.grid.n)
    for f, block, coeffs in zip((*source.u.components, source.v, source.w), s._blocks(),
                                s.coeffs):
        assert _bits(ref.block(ref.forward(f.samples) * ref.mask)) == _bits(block)
        assert coeffs is block


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
        b = g.block
        for coeffs, kk in ((c1, b.kx), (c1, b.ky), (c2, b.kx), (c2, b.ky)):
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
        _assert_block_of_forward(fresh, final)


PRESETS = {"taylor_green": ehd.taylor_green, "charged_shear": ehd.charged_shear,
           "random_smooth": lambda g: ehd.random_smooth(g, seed=7)}


def _snapshot(n, preset, made_by_run):
    """A user state, or the run's step-1 snapshot with the grad psi the run
    made for it (at 64^3 on two CPUs, in the charge lane)."""
    s0 = PRESETS[preset](ehd.Grid(n))
    if not made_by_run:
        return s0
    kept = []
    ehd.run(s0, StepControl(dt=5e-4, t_end=1e-3),
            hooks=[lambda s, d, dt: kept.append((s, s.grad_psi))])
    s, grad_psi = kept[1]
    s.__dict__["grad_psi"] = grad_psi  # the next step dropped it
    return s


def _gradient(F: SpectralField) -> list:
    """The samples of grad F, each component transformed in full."""
    return [ehd.backward_transform(d).samples for d in ehd.gradient(F).components]


def _full_layout(s) -> dict:
    """The observer fields of s by the full-layout formulas: products of
    half-spectrum arrays (the block arrays spread into zeros), each
    transformed in full."""
    g, ref = s.grid, layout(s.grid.n)
    c = [ref.spread(a) for a in s.coeffs]
    kvec = (ref.kx, ref.ky, ref.kz)
    curl = (1j * (ref.ky * c[2] - ref.kz * c[1]), 1j * (ref.kz * c[0] - ref.kx * c[2]),
            1j * (ref.kx * c[1] - ref.ky * c[0]))
    psi_hat = -(c[3] - c[4]) * ref.inv_k2
    psi_hat[0, 0, 0] = 0.0
    grad_u = [[ref.inverse(1j * kk * a) for kk in kvec] for a in c[:3]]
    block = ehd.RealField(g, np.sqrt(sum(d**2 for row in grad_u[:2] for d in row[:2])))
    F = ref.forward(block.samples) * ref.mask
    j_min, j_max = ehd.band_range(g)
    charged = c[3].any() or c[4].any()
    return {
        "omega": [ref.inverse(a) for a in curl],
        "grad_u": [d for row in grad_u for d in row],
        "psi": [ref.inverse(psi_hat)],
        "grad_psi": [ref.inverse(1j * kk * psi_hat) for kk in kvec] if charged else [],
        "bands": [ref.inverse(F * varphi(ref.kmag / 2.0**j)) for j in range(j_min, j_max + 1)],
        "powers": [ref.power(a) for a in (*c, psi_hat)],
        "block": block,
    }


CRITERIA = [("BKM", math.inf), ("PS_u", 6.0), ("PS_u", math.inf), ("PS_grad_u", 2.0),
            ("PS_grad_u", 3.0), ("BESOV_ANISO", 2.0), ("BESOV_ANISO", math.inf)]


class TestBlockLayout:
    """Observer fields formed on the block, with the block transforms, give
    the numbers of the full-layout formulas: equal samples (an exact zero
    may differ in sign), bitwise equal magnitudes, powers (the block of the
    full layout's), norms (its full-shape sums) and criterion values."""

    @pytest.mark.parametrize("n, preset, made_by_run", [
        *((n, preset, made) for n in (16, 32) for preset in PRESETS for made in (False, True)),
        (64, "charged_shear", True)])
    def test_fields_equal_the_full_layout(self, n, preset, made_by_run):
        s = _snapshot(n, preset, made_by_run)
        want = _full_layout(s)
        g = s.grid
        got = {
            "omega": [f.samples for f in s.omega.components],
            "grad_u": [d for row in s.grad_u for d in row],
            "psi": [s.psi.samples],
            "grad_psi": s.grad_psi or [],
            "bands": [f.samples for _, f in ehd.littlewood_paley._block_bands(
                ehd.forward_transform(ehd.horizontal_block_magnitude(s)))],
        }
        assert len(want["grad_psi"]) == (0 if preset == "taylor_green" else 3)
        for name, arrays in got.items():
            assert len(arrays) == len(want[name]), name
            for a, b in zip(arrays, want[name]):
                assert np.array_equal(a, b), name
                assert _bits(np.abs(a)) == _bits(np.abs(b)), name
        # Powers and weights live on the block; each norm is the full
        # layout's sum, in its summation order, bit for bit.
        full = layout(n)
        powers = [*s.u_power, s.v_power, s.w_power, s.psi_power]
        assert _bits(powers) == _bits([full.block(P) for P in want["powers"]])
        weights = [(None, 1.0), (g.block.k2, full.k2), (g.block.k2**2, full.k2**2),
                   *((ehd.spectral.sobolev_weights(g, k), (1.0 + full.k2) ** k) for k in (2.0, 3.0))]

        def full_sum(P, w):
            return float(ehd.spectral.VOLUME * (w * P).sum())

        for P, P_full in zip(powers, want["powers"]):
            for w, w_full in weights:
                assert _bits(ehd.power_sum(g, P, w)) == _bits(full_sum(P_full, w_full))
        h3 = math.sqrt(sum(math.sqrt(full_sum(P, (1.0 + full.k2) ** 3.0)) ** 2
                           for P in want["powers"][:3]))
        assert _bits(s.u_h3_norm) == _bits(h3)
        omega = ehd.RealField(g, np.sqrt(sum(a**2 for a in want["omega"])))
        grad_u = ehd.RealField(g, np.sqrt(sum(a**2 for a in want["grad_u"])))
        for kind, p in CRITERIA:
            acc = ehd.make_accumulator(kind, p)
            ref = {"BKM": lambda: ehd.lp_norm(omega, p),
                   "PS_u": lambda: ehd.lp_norm(ehd.vector_magnitude(s.u), p),
                   "PS_grad_u": lambda: ehd.lp_norm(grad_u, p),
                   "BESOV_ANISO": lambda: ehd.besov_norm(ehd.forward_transform(want["block"]),
                                                         BesovParams(0.0, p, acc.r))}[kind]()
            assert _bits(ehd.instantaneous_quantity(acc, s)) == _bits(ref), (kind, p)
        assert _bits(ehd.spectral_power(ehd.forward_transform(s.v))) == (
            _bits(full.block(full.power(full.forward(s.v.samples) * full.mask))))


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
    """A snapshot's coefficients, and the bands of a real field's Besov
    norm, describe real fields by construction, so their inverse transforms
    make no Hermitian check; `ehd.backward_transform` and `ehd.besov_norm`
    given coefficients, which a caller passes, keep theirs, the norm one
    check of its input."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        original = ehd.spectral.hermitian_defect

        def counted(F):
            calls.append(F)
            return original(F)

        monkeypatch.setattr(ehd.spectral, "hermitian_defect", counted)
        return calls

    def test_besov_norm_checks_given_coefficients_once(self, grid16, checks):
        """Not each band: the band weights are real and even in k, so each
        band of a Hermitian field is Hermitian.  A non-Hermitian input still
        raises."""
        F = ehd.forward_transform(ehd.random_smooth(grid16, seed=3).v)
        checks.clear()
        ehd.besov_norm(F, BesovParams(0.0, 2.0, 2.0))
        assert len(checks) == 1
        coeffs = F.coeffs.copy()
        coeffs[1, 2, 0] += 1e-3
        with pytest.raises(ehd.HermitianSymmetryError):
            ehd.besov_norm(SpectralField(grid16, coeffs), BesovParams(0.0, 2.0, 2.0))

    @pytest.mark.parametrize("made_by_run", [True, False])
    def test_snapshot_fields_make_no_check(self, grid16, checks, made_by_run):
        s = _finished(grid16) if made_by_run else ehd.random_smooth(grid16, seed=3)
        checks.clear()
        s.omega, s.grad_u, s.grad_u_magnitude, s.psi, s.grad_psi
        assert checks == []

    def test_default_cli_step_makes_no_check(self, tmp_path, checks, monkeypatch):
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
        assert per_hook == [0] * 5  # at t = 0 and in each step
        assert checks == []


class TestSinglePath:
    """Every transform of a default `ehd run`, from the preset's or the
    restart's set-up through the report's tail fractions, takes the seam's
    block mode: the binding's r2c and c2r over the z axis alone, three c2c
    passes each, and no Hermitian check."""

    @pytest.mark.parametrize("preset", ["taylor_green", "charged_shear",
                                        "random_smooth(seed=3)", "restart"])
    def test_default_run_takes_the_block_mode_throughout(self, preset, tmp_path, monkeypatch):
        from ehd import cli

        if preset == "restart":
            path = tmp_path / "restart.ehds"
            ehd.write_checkpoint(path, ehd.random_smooth(ehd.Grid(16), seed=5))
            preset = f"from_checkpoint(path={path})"
        axes, passes, checks = [], [], []
        for name in ("_r2c", "_c2r"):
            binding = getattr(ehd.spectral, name)
            monkeypatch.setattr(ehd.spectral, name, lambda a, ax, *rest, f=binding: (
                axes.append(ax) or f(a, ax, *rest)))
        c2c, defect = ehd.spectral._c2c, ehd.spectral.hermitian_defect
        monkeypatch.setattr(ehd.spectral, "_c2c", lambda *a: passes.append(a[1]) or c2c(*a))
        monkeypatch.setattr(ehd.spectral, "hermitian_defect",
                            lambda F: checks.append(F) or defect(F))
        config = tmp_path / "run.cfg"
        config.write_text(f"grid_n = 16\nt_end = 2e-3\ninitial_condition = {preset}\n"
                          f"output_dir = {tmp_path}\n")
        assert cli.main(["run", str(config)]) == 0
        assert axes and set(axes) == {(2,)}
        assert len(passes) == 3 * len(axes)
        assert checks == []


class TestEagerPotential:
    """A run hands out each snapshot but the last with grad psi made by the
    step (on the block, in the charge lane), bitwise the lazy property's."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("preset", ["charged_shear", "seed_7", "seed_5_energy_50"])
    def test_handed_out_grad_psi_is_the_lazy_one(self, preset, n):
        build = {"charged_shear": ehd.charged_shear,
                 "seed_7": lambda g: ehd.random_smooth(g, seed=7),
                 "seed_5_energy_50": lambda g: ehd.random_smooth(g, seed=5, energy=50.0)}[preset]
        grid = ehd.Grid(n)
        eager, lazy = [], []

        def check(s, d, dt):
            if "grad_psi" not in vars(s):
                lazy.append(s.step_index)
                return
            want = _gradient(s.psi_hat)
            for got, ref in zip(s.grad_psi, want, strict=True):
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))
                assert not got.flags.writeable
            eager.append(s.step_index)

        report = ehd.run(build(grid), StepControl(dt=5e-4, t_end=1.5e-3), hooks=[check])
        assert report.status is ehd.RunStatus.COMPLETED and report.steps == 3
        # The initial (user) state and the final snapshot keep it lazy.
        assert eager == [1, 2] and lazy == [0, 3]
        assert "grad_psi" not in vars(report.final_state)

    def test_uncharged_snapshot_has_no_potential(self, grid16):
        seen = []
        report = ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=3e-3),
                         hooks=[lambda s, d, dt: seen.append("grad_psi" in vars(s))])
        assert seen == [False] * 4
        assert report.final_state.grad_psi is None


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

    @pytest.mark.parametrize("made_by_run", [True, False])
    def test_writing_into_full_coefficients_raises(self, grid16, made_by_run):
        s = _finished(grid16) if made_by_run else ehd.random_smooth(grid16, seed=3)
        for F in (s.psi_hat, *s.u_hat.components, s.v_hat, s.w_hat):
            with pytest.raises(ValueError, match="read-only"):
                F.coeffs[1, 0, 0] = 1.0


def _arrays_in(x):
    """The arrays x holds, through dicts, sequences and dataclass fields."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (dict, list, tuple)):
        for item in x.values() if isinstance(x, dict) else x:
            yield from _arrays_in(item)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _arrays_in(getattr(x, f.name))


def _observed_run(s0) -> list:
    """Run s0 for three steps with a hook that runs the audit ledger and
    every criterion and then asks for every field of the snapshot; returns
    the shapes of the arrays each snapshot held in its hook."""
    ledger, shapes = ehd.AuditLedger.from_state(s0), []
    accs = [ehd.make_accumulator(kind, p) for kind, p in CRITERIA]
    fields = [name for name, attr in vars(ehd.State).items()
              if isinstance(attr, (property, cached_property))]

    def hook(s, d, dt):
        ledger.update(s, dt)
        for acc in accs:
            ehd.observe(acc, s, dt)
        for name in fields:
            getattr(s, name)
        shapes.append({a.shape for a in _arrays_in(vars(s))})

    ehd.run(s0, StepControl(dt=1e-3, t_end=3e-3), hooks=[hook])
    return shapes


def _run_peak_arrays(out_dir) -> float:
    """The tracemalloc peak of `ehd run` at 32^3 on random_smooth(seed=7)
    with the default observers, in n^3 float64 arrays."""
    from ehd import cli

    config = out_dir / "run.cfg"
    config.write_text("grid_n = 32\nt_end = 2e-3\ninitial_condition = random_smooth(seed=7)\n"
                      f"output_dir = {out_dir}\n")
    tracemalloc.start()
    try:
        assert cli.main(["run", str(config)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * 32**3)


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
        for i, (s, omega_mag, u_power, h3) in enumerate(kept[1:], 2):
            # grad psi is the next step's input, dropped once it has read it:
            # only the final snapshot keeps it.
            assert ("grad_psi" in vars(s)) == (i == len(kept))
            assert not {"omega", "omega_magnitude", "u_power", "u_h3_norm", "u_hat"} & set(vars(s))
            assert _bits(s.omega_magnitude.samples) == _bits(omega_mag)
            assert _bits(s.u_power) == _bits(u_power) and s.u_h3_norm == h3

    def test_run_made_snapshot_keeps_its_block_alone(self, grid16):
        """Once its hooks return, a snapshot the run made holds its five
        block arrays and no half-spectrum array, whatever the hooks asked
        for."""
        kept = []

        def hook(s, d, dt):
            s.coeffs, s.u_hat, s.psi_hat, s.psi, s.omega, s.grad_u, s.grad_psi
            s.u_power, s.v_power, s.w_power, s.psi_power
            kept.append(s)

        ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=3e-3), hooks=[hook])
        assert len(kept) == 4
        for s in kept[1:]:
            arrays = list(_arrays_in(vars(s)))
            assert [id(a) for a in arrays if a.dtype == complex] == [id(a) for a in s._block]
            assert all(a.shape == grid16.block.shape for a in s._block)
            assert not [a for a in arrays if a.shape == grid16.spectral_shape]

    def test_a_step_drops_the_potential_it_has_read(self, grid16):
        """Without observers each snapshot but the last carries the grad psi
        its step made, and no psi_hat; once the next step has read it, the
        snapshot keeps neither."""
        kept = []
        ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=3e-3),
                hooks=[lambda s, d, dt: kept.append(s)])
        assert len(kept) == 4
        for s in kept[:-1]:
            assert not {"grad_psi", "psi_hat"} & set(vars(s))

    def test_a_step_drops_every_cached_field_of_its_input(self, grid16):
        """A user state that `ehd.step` has read keeps none of the fields it
        made, its forward transforms among them."""
        s = ehd.random_smooth(grid16, seed=7)
        s.omega, s.u_power
        ehd.step(s, StepControl(dt=1e-3))
        cached = {name for name, attr in vars(ehd.State).items()
                  if isinstance(attr, cached_property)}
        assert "_transforms" in cached and not cached & set(vars(s))

    def test_grid_holds_no_full_table(self):
        """After a run whose hooks run every observer and ask for every
        field, each array the grid holds, its tables included, is at most
        the size of the block."""
        g = ehd.Grid(16)
        _observed_run(ehd.charged_shear(g))
        assert {("sobolev", 2.0), ("sobolev", 3.0), "diffusion"} <= set(g.tables)
        size = math.prod(g.block.shape)
        assert [a.shape for a in _arrays_in(vars(g)) if a.size > size] == []

    def test_snapshot_holds_no_half_spectrum_array_in_its_hooks(self, grid16):
        """While its hooks run, with every observer run and every field and
        power array asked for, a snapshot holds no array of the half
        spectrum's shape: its powers live on the block."""
        shapes = _observed_run(ehd.charged_shear(grid16))
        assert len(shapes) == 4 and all(shapes)
        assert grid16.block.shape in shapes[1] and (16, 16, 16) in shapes[1]
        assert not [held for held in shapes if grid16.spectral_shape in held]

    def test_run_frees_the_initial_state(self, grid16):
        """The run holds the state it steps in one name: once step 1 has
        replaced the t = 0 state, that state is freed by the step-2 hook
        when the caller kept no reference of its own."""
        refs, alive = [], []

        def hook(s, d, dt):
            if dt == 0.0:
                refs.append(weakref.ref(s))
            alive.append(refs[0]() is not None)

        ehd.run(ehd.random_smooth(grid16, seed=7), StepControl(dt=1e-3, t_end=3e-3),
                hooks=[hook])
        assert alive[0] and not alive[2]

    def test_run_peak_memory(self, tmp_path):
        """The tracemalloc peak of `ehd run` at 32^3 on random_smooth(seed=7)
        with the default observers, in n^3 float64 arrays: 43.1 measured
        before the streamed magnitudes, pinned with a 4% margin.  With them
        it reads 37.4 on two CPUs, where the next step runs beside the hooks
        and a second snapshot is alive, and 32.0 on one."""
        assert _run_peak_arrays(tmp_path) <= 43.1 * 1.04

    def test_inline_run_peak_memory(self, tmp_path, monkeypatch):
        """The same run with every step on the calling thread, after its
        snapshot's hooks: 32.0 measured, pinned with a 4% margin."""
        monkeypatch.setattr(ehd.solver, "_lanes_pay", lambda grid, charged: (False, False))
        assert _run_peak_arrays(tmp_path) <= 32.0 * 1.04

    def test_weight_tables_live_on_the_grid(self):
        g = ehd.Grid(8)
        assert ehd.band_weight(g, 0) is ehd.band_weight(g, 0)
        assert ehd.band_weight(ehd.Grid(8), 0) is not ehd.band_weight(g, 0)
        assert ("sobolev", 2.0) not in g.tables
        ehd.sobolev_norm(ehd.forward_transform(ehd.RealField(g, np.ones((8,) * 3))), 2.0)
        assert ("sobolev", 2.0) in g.tables
