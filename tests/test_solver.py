"""Right-hand sides, the integrating-factor step, and the run loop."""

import gc
import json
import math
import os
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.fft

import ehd
from ehd import solver, spectral
from full_layout import layout
from ehd import (
    BlowUpSuspected,
    ChargeNeutralityError,
    InvariantViolation,
    RealField,
    RunStatus,
    State,
    StepControl,
    VectorField,
)

PI = math.pi


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def zero_field(grid):
    return RealField(grid, np.zeros((grid.n,) * 3))


def zero_velocity(grid):
    return VectorField(zero_field(grid), zero_field(grid), zero_field(grid))


def quiescent(grid, v_samples, w_samples):
    return State(
        u=zero_velocity(grid),
        v=RealField(grid, v_samples),
        w=RealField(grid, w_samples),
    )


def kinetic_energy(state):
    return sum(ehd.lp_norm(c, 2) ** 2 for c in state.u.components)


class TestStepControl:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="dt_min"):
            StepControl(dt=1e-3, dt_min=1e-2)
        with pytest.raises(ValueError, match="cfl"):
            StepControl(cfl=1.5)
        with pytest.raises(ValueError, match="cfl"):
            StepControl(cfl=0.0)

    @pytest.mark.parametrize("t_end", [-1e-3, math.nan, math.inf])
    def test_horizon_must_be_nonnegative_and_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            StepControl(t_end=t_end)


class TestDerivedFields:
    def test_symmetrized_charges_pointwise(self, grid16, rng):
        v = RealField(grid16, 1.0 + 0.25 * rng.standard_normal((16,) * 3))
        w = RealField(grid16, v.samples.mean() - 1.0 + v.samples)  # same mean as v
        w = RealField(grid16, v.samples.copy())
        s = quiescent(grid16, v.samples, w.samples)
        d = ehd.derive(s)
        assert np.abs(d.zeta.samples - (v.samples + w.samples)).max() <= 1e-14
        assert np.abs(d.eta.samples - (v.samples - w.samples)).max() <= 1e-14

    def test_potential_solves_poisson(self, grid16):
        s = ehd.charged_shear(grid16)
        d = ehd.derive(s)
        lap = ehd.backward_transform(ehd.laplacian(d.psi_hat))
        eta_mean_free = d.eta.samples - d.eta.samples.mean()
        assert np.abs(lap.samples - eta_mean_free).max() <= 1e-10


class TestMomentumRhs:
    def test_equal_charges_no_force(self, grid16):
        v = full(grid16, 1.0 + 0.5 * np.sin(grid16.x))
        s = quiescent(grid16, v, v.copy())
        rhs, _, _ = ehd.nonlinear_rhs(s)
        for c in rhs.components:
            assert np.abs(c.samples).max() < 1e-12

    def test_taylor_green_advection_is_pure_gradient(self, grid32):
        s = ehd.taylor_green(grid32)
        rhs, _, _ = ehd.nonlinear_rhs(s)
        for c in rhs.components:
            assert np.abs(c.samples).max() < 1e-10

    def test_one_dimensional_charge_force_is_pure_gradient(self, grid16):
        v = full(grid16, 1.0 + np.sin(grid16.x))
        w = full(grid16, 1.0)
        s = quiescent(grid16, v, w)
        rhs, _, _ = ehd.nonlinear_rhs(s)
        for c in rhs.components:
            assert np.abs(c.samples).max() < 1e-10

    def test_neutrality_failure_propagates(self, grid16):
        s = quiescent(grid16, full(grid16, 1.1), full(grid16, 1.0))
        with pytest.raises(ChargeNeutralityError):
            ehd.nonlinear_rhs(s)


class TestChargeRhs:
    def test_uniform_charges_are_steady(self, grid16):
        s = quiescent(grid16, full(grid16, 1.0), full(grid16, 1.0))
        _, rv, rw = ehd.nonlinear_rhs(s)
        assert np.abs(rv.samples).max() < 1e-13
        assert np.abs(rw.samples).max() < 1e-13

    def test_divergence_form_means_vanish(self, grid16):
        v = full(grid16, 1.0 + 0.5 * np.sin(grid16.x))
        s = quiescent(grid16, v, full(grid16, 1.0))
        _, rv, rw = ehd.nonlinear_rhs(s)
        h3 = grid16.cell_volume
        assert abs(rv.samples.sum() * h3) < 1e-12
        assert abs(rw.samples.sum() * h3) < 1e-12

    def test_means_vanish_on_random_states(self, grid16):
        for seed in range(100):
            s = ehd.random_smooth(grid16, seed=seed, energy=1.0, peak_wavenumber=2.0)
            _, rv, rw = ehd.nonlinear_rhs(s)
            h3 = grid16.cell_volume
            assert abs(rv.samples.sum() * h3) < 1e-12
            assert abs(rw.samples.sum() * h3) < 1e-12


class TestStep:
    def test_taylor_green_single_step(self, grid32):
        s0 = ehd.taylor_green(grid32)
        s1 = ehd.step(s0, StepControl(dt=1e-3, t_end=1.0))
        exact = ehd.taylor_green_velocity(grid32, s1.t)
        err = max(
            np.abs(a.samples - b.samples).max()
            for a, b in zip(s1.u.components, exact.components)
        )
        assert err <= 1e-9
        assert s1.t == pytest.approx(1e-3)
        assert s1.step_index == 1

    def test_zero_state_stays_zero(self, grid16):
        s0 = quiescent(grid16, np.zeros((16,) * 3), np.zeros((16,) * 3))
        s1 = ehd.step(s0, StepControl(dt=1e-2, t_end=1.0))
        for f in (*s1.u.components, s1.v, s1.w):
            assert np.all(f.samples == 0.0)

    def test_taylor_green_initial_energy(self, grid32):
        s0 = ehd.taylor_green(grid32)
        assert kinetic_energy(s0) == pytest.approx(4.0 * PI**3, rel=1e-12)

    def test_cfl_clamps_dt(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, 50.0 * np.sin(grid16.y))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s0 = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        control = StepControl(dt=1e-2, cfl=0.4, t_end=1.0)
        limit = ehd.cfl_limit(s0, control.cfl)
        assert limit < control.dt
        s1 = ehd.step(s0, control)
        assert (s1.t - s0.t) == pytest.approx(limit)

    def test_dt_collapse_aborts(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, 1e6 * np.sin(grid16.y))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s0 = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        with pytest.raises(BlowUpSuspected, match="collapsed"):
            ehd.step(s0, StepControl(dt=1e-3, dt_min=1e-5, t_end=1.0))

    def test_final_step_clamped_to_horizon_without_abort(self, grid16):
        s0 = ehd.taylor_green(grid16)
        s0 = State(u=s0.u, v=s0.v, w=s0.w, t=0.0995)
        control = StepControl(dt=1e-3, dt_min=9e-4, t_end=0.1)
        s1 = ehd.step(s0, control)  # remaining 5e-4 < dt_min but is not a collapse
        assert s1.t == pytest.approx(0.1)

    def test_third_order_in_time_on_charged_flow(self, grid16):
        """Field error against a fine-dt reference shrinks ~8x per halving."""
        def final_fields(dt):
            report = ehd.run(ehd.charged_shear(grid16),
                             StepControl(dt=dt, t_end=0.02))
            s = report.final_state
            return np.concatenate(
                [c.samples.ravel() for c in (*s.u.components, s.v, s.w)]
            )

        reference = final_fields(1.25e-4)
        errors = [np.abs(final_fields(dt) - reference).max()
                  for dt in (2e-3, 1e-3, 5e-4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 5.0 <= coarse / fine <= 11.0

    def test_non_finite_input_rejected(self, grid16):
        samples = np.zeros((16,) * 3)
        samples[0, 0, 0] = np.inf
        s0 = quiescent(grid16, samples, np.zeros((16,) * 3))
        with pytest.raises(BlowUpSuspected, match="non-finite"):
            ehd.step(s0, StepControl(dt=1e-3, t_end=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_state_reports_blow_up(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, 1e160 * np.sin(grid16.y))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s0 = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        with pytest.raises(BlowUpSuspected):
            ehd.step(s0, StepControl(dt=1e-3, dt_min=1e-300, t_end=1.0))


class TestRun:
    def test_zero_horizon_completes_without_steps(self, grid16):
        report = ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=0.0))
        assert report.status is RunStatus.COMPLETED
        assert report.steps == 0

    def test_taylor_green_energy_decay(self, grid16):
        control = StepControl(dt=1e-3, t_end=0.1)
        report = ehd.run(ehd.taylor_green(grid16), control)
        assert report.status is RunStatus.COMPLETED
        energy = kinetic_energy(report.final_state)
        expected = 4.0 * PI**3 * math.exp(-4.0 * report.t_final)
        assert energy == pytest.approx(expected, rel=1e-6)

    def test_equal_charges_leave_the_flow_pure(self, grid16):
        """v = w kills the potential exactly, so the velocity evolves as in
        the uncharged system while the charges are passively mixed."""
        base = ehd.taylor_green(grid16)
        charge = full(grid16, 1.0 + 0.5 * np.sin(grid16.x))
        s0 = State(u=base.u, v=RealField(grid16, charge),
                   w=RealField(grid16, charge.copy()))
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.05))
        assert report.status is RunStatus.COMPLETED
        final = report.final_state
        exact = ehd.taylor_green_velocity(grid16, final.t)
        err = max(
            np.abs(a.samples - b.samples).max()
            for a, b in zip(final.u.components, exact.components)
        )
        assert err <= 1e-12
        # the charges were advected and diffused, not frozen
        assert np.abs(final.v.samples - charge).max() > 1e-3
        assert np.abs(final.v.samples - final.w.samples).max() <= 1e-12

    def test_charged_run_charges_stay_nonnegative(self, grid16):
        s0 = ehd.charged_shear(grid16)
        minima = []
        def watch(state, derived, dt):
            minima.append(min(state.v.samples.min(), state.w.samples.min()))
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.05), hooks=[watch])
        assert report.status is RunStatus.COMPLETED
        assert min(minima) >= -1e-8

    def test_charge_means_conserved(self, grid16):
        s0 = ehd.charged_shear(grid16)
        mean_v0 = s0.v.samples.mean()
        mean_w0 = s0.w.samples.mean()
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.05))
        final = report.final_state
        assert abs(final.v.samples.mean() - mean_v0) <= 1e-10 * abs(mean_v0)
        assert abs(final.w.samples.mean() - mean_w0) <= 1e-10 * abs(mean_w0)

    def test_divergence_invariant_every_step(self, grid16):
        s0 = ehd.charged_shear(grid16)
        worst = []
        def watch(state, derived, dt):
            div = ehd.backward_transform(ehd.divergence(derived.u_hat))
            worst.append(np.abs(div.samples).max())
        ehd.run(s0, StepControl(dt=1e-3, t_end=0.02), hooks=[watch])
        assert max(worst) <= 1e-9

    def test_non_neutral_initial_state_is_invariant_violation(self, grid16):
        s0 = quiescent(grid16, full(grid16, 1.5), full(grid16, 1.0))
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.01))
        assert report.status is RunStatus.INVARIANT_VIOLATION
        assert "neutral" in report.diagnostic

    def test_non_solenoidal_initial_state_is_invariant_violation(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, np.sin(grid16.x))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s0 = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.01))
        assert report.status is RunStatus.INVARIANT_VIOLATION
        assert "divergence" in report.diagnostic

    def test_hooks_see_initial_state_then_every_step(self, grid16):
        calls = []
        def watch(state, derived, dt):
            calls.append((state.step_index, dt))
        report = ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-2, t_end=0.03),
                         hooks=[watch])
        assert calls[0] == (0, 0.0)
        assert len(calls) == report.steps + 1
        assert all(dt > 0 for _, dt in calls[1:])

    def test_hook_blow_up_signal_sets_status(self, grid16):
        def bomb(state, derived, dt):
            if dt > 0:
                raise BlowUpSuspected("integrand is non-finite (test)")
        report = ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-2, t_end=0.05),
                         hooks=[bomb])
        assert report.status is RunStatus.BLOW_UP_SUSPECTED
        assert "non-finite" in report.diagnostic

    def test_hook_invariant_signal_sets_status(self, grid16):
        def check(state, derived, dt):
            if state.step_index >= 2:
                raise InvariantViolation("ledger check failed (test)")
        report = ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-2, t_end=0.05),
                         hooks=[check])
        assert report.status is RunStatus.INVARIANT_VIOLATION
        assert "ledger check" in report.diagnostic

    def test_unexpected_hook_error_propagates(self, grid16):
        def broken(state, derived, dt):
            raise ValueError("observer bug")
        with pytest.raises(ValueError, match="observer bug"):
            ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-2, t_end=0.05),
                    hooks=[broken])

    def test_checksum_is_deterministic(self, grid16):
        control = StepControl(dt=1e-3, t_end=0.02)
        r1 = ehd.run(ehd.charged_shear(grid16), control)
        r2 = ehd.run(ehd.charged_shear(grid16), control)
        assert r1.state_checksum == r2.state_checksum
        assert r1.steps == r2.steps


class TestRunInvariants:
    def test_divergent_velocity_rejected(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, np.sin(grid16.x))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        with pytest.raises(InvariantViolation, match="divergence invariant failed"):
            solver._check_run_invariants(s, 0.0, 0.0)

    def test_drifted_mean_rejected(self, grid16):
        s = ehd.charged_shear(grid16)
        mean_v0 = float(np.mean(s.v.samples))
        mean_w0 = float(np.mean(s.w.samples))
        solver._check_run_invariants(s, mean_v0, mean_w0)
        with pytest.raises(InvariantViolation, match="mean of w drifted"):
            solver._check_run_invariants(s, mean_v0, mean_w0 + 1e-6)


def with_gradient_part(base: State, amplitude: float, eps: float) -> State:
    """amplitude * (base's velocity - eps * (sin x, 0, 0)): a divergence of
    max |div u| = amplitude * eps, one cosine mode."""
    g = base.grid
    ux, uy, uz = (amplitude * c.samples for c in base.u.components)
    ux = ux - amplitude * eps * full(g, np.sin(g.x))
    return State(u=VectorField(*(RealField(g, a) for a in (ux, uy, uz))), v=base.v, w=base.w)


def count_inverse_transforms(monkeypatch) -> list:
    """Patch solver._samples_from_coeffs to record each call."""
    calls = []
    inverse = solver._samples_from_coeffs

    def counted(grid, coeffs, *full):
        calls.append(coeffs)
        return inverse(grid, coeffs, *full)

    monkeypatch.setattr(solver, "_samples_from_coeffs", counted)
    return calls


def _full_layout_divergence(s) -> float:
    """max |div u| of s by the full-layout formula, transformed in full."""
    ref = layout(s.grid.n)
    cx, cy, cz = spread(ref, s.coeffs[:3])
    div = 1j * (ref.kx * cx + ref.ky * cy + ref.kz * cz)
    return float(np.abs(ref.inverse(div)).max())


DIVERGENCE_CHECKS = {
    "initial": (ehd.validate_initial_state, "not divergence-free"),
    "run": (lambda s: solver._check_run_invariants(s, float(np.mean(s.v.samples)),
                                                   float(np.mean(s.w.samples))),
            "divergence invariant failed"),
}


class TestInitialDivergenceCheck:
    def test_large_amplitude_raises_no_hermitian_false_alarm(self, grid16, grid32):
        """The coefficients of Taylor-Green x 1e4 at 16^3 fail
        backward_transform's symmetry check by roundoff although max |div u|
        is 1.8e-11.  Taylor-Green x 1e6 at 32^3 (max |div u| 3.8e-9, roundoff
        of a field of size 1e6) failed an absolute 1e-9; the tolerance is
        relative to the size of grad u, so it passes too."""
        ehd.validate_initial_state(with_gradient_part(ehd.taylor_green(grid16), 1e4, 0.0))
        ehd.validate_initial_state(with_gradient_part(ehd.taylor_green(grid32), 1e6, 0.0))


class TestDivergenceTolerance:
    """The divergence invariant is relative to the size of grad u, and a
    bound on max |div u| settles it without a transform when it can."""

    @pytest.mark.parametrize("check", sorted(DIVERGENCE_CHECKS))
    @pytest.mark.parametrize("amplitude", [1.0, 1e4])
    def test_relative_divergence_is_caught_at_any_amplitude(self, check, amplitude, grid16):
        """A divergence of 1e-6 of max |grad u| (1 for Taylor-Green)."""
        checker, message = DIVERGENCE_CHECKS[check]
        checker(with_gradient_part(ehd.taylor_green(grid16), amplitude, 0.0))
        with pytest.raises(InvariantViolation, match=message):
            checker(with_gradient_part(ehd.taylor_green(grid16), amplitude, 1e-6))

    @pytest.mark.parametrize("check", sorted(DIVERGENCE_CHECKS))
    @pytest.mark.parametrize("fraction", [0.4, 0.6, 0.99, 1.01])
    def test_bound_and_transform_give_one_verdict(self, check, fraction, grid16, monkeypatch):
        """max |div u| at fraction x tol: the check passes exactly when the
        transformed divergence is within tol, and transforms only when the
        bound exceeds tol / 2 (here the bound is max |div u| itself)."""
        checker, message = DIVERGENCE_CHECKS[check]
        tg = ehd.taylor_green(grid16)
        _, tol = solver._divergence_bound(tg)
        s = with_gradient_part(tg, 1.0, fraction * tol)
        bound, tol = solver._divergence_bound(s)
        div = _full_layout_divergence(s)
        assert div == pytest.approx(fraction * tol, rel=1e-6)
        assert div <= bound == pytest.approx(div, rel=1e-6)
        transforms = count_inverse_transforms(monkeypatch)
        if div > tol:
            with pytest.raises(InvariantViolation, match=message):
                checker(s)
        else:
            checker(s)
        assert (div > tol) == (fraction > 1)
        assert len(transforms) == (0 if fraction < 0.5 else 1)

    @pytest.mark.parametrize("check", sorted(DIVERGENCE_CHECKS))
    @pytest.mark.parametrize("preset", ["taylor_green", "random_smooth"])
    @pytest.mark.parametrize("eps", [0.75, 1e-3, 1.0])
    def test_fallback_takes_the_block_inverse(self, check, preset, eps, grid16, monkeypatch):
        """A divergence of 0.75 tol, 1e-3 or 1: the fallback's max |div u|
        is bitwise that of the full-layout formula, and it takes one block
        inverse transform at the seam, a c2r along axis 2 after three c2c
        passes."""
        checker, message = DIVERGENCE_CHECKS[check]
        base = (ehd.taylor_green(grid16) if preset == "taylor_green"
                else ehd.random_smooth(grid16, seed=3))
        if eps == 0.75:
            eps *= solver._divergence_bound(base)[1]
        s = with_gradient_part(base, 1.0, eps)
        s._blocks()  # the forward transforms, before the seam is watched
        bound, tol = solver._divergence_bound(s)
        assert bound > tol / 2
        want = _full_layout_divergence(s)
        made, seam = [], []
        inverse = solver._samples_from_coeffs
        monkeypatch.setattr(solver, "_samples_from_coeffs",
                            lambda *a: made.append(inverse(*a)) or made[-1])
        for name in ("_r2c", "_c2r", "_c2c"):
            binding = getattr(spectral, name)
            monkeypatch.setattr(spectral, name, lambda *a, name=name, binding=binding: (
                seam.append((name, a[1])) or binding(*a)))
        if want > tol:
            with pytest.raises(InvariantViolation, match=message):
                checker(s)
        else:
            checker(s)
        assert len(made) == 1
        assert float(np.abs(made[0]).max()).hex() == want.hex()
        assert seam == [("_c2c", (0,))] * 2 + [("_c2c", (1,)), ("_c2r", (2,))]

    def test_non_finite_bound_falls_back_to_the_transform(self, grid16, monkeypatch):
        """A NaN coefficient makes the bound NaN, which settles nothing; the
        transformed maximum is NaN too, and NaN > tol is false, as before."""
        tg = ehd.taylor_green(grid16)
        c = [a.copy() for a in tg.coeffs]
        c[0][1, 0, 0] = np.nan
        s = State(u=tg.u, v=tg.v, w=tg.w, _block=tuple(c))
        assert math.isnan(solver._divergence_bound(s)[0])
        transforms = count_inverse_transforms(monkeypatch)
        DIVERGENCE_CHECKS["run"][0](s)
        assert len(transforms) == 1

    def test_strong_charges_no_longer_stop_on_the_divergence(self, grid16):
        """charged_shear with v and w x 3000 stopped after 201 steps on an
        absolute 1e-9 ("max |div u| = 1.223e-09").  Relative to the
        Coulomb-driven grad u it passed, but the CFL bound alone let the
        charge relaxation leave RK3's stability interval, and a collapsed
        time step ended the run 14 steps later.  With the relaxation bound
        the run completes."""
        s = ehd.charged_shear(grid16)
        s = State(u=s.u, v=RealField(grid16, 3000 * s.v.samples),
                  w=RealField(grid16, 3000 * s.w.samples))
        report = ehd.run(s, StepControl(dt=5e-4, t_end=0.2))
        assert report.status is RunStatus.COMPLETED
        assert report.steps == 1755


class TestCflLimit:
    def test_quiescent_state_is_unlimited(self, grid16):
        s = quiescent(grid16, full(grid16, 1.0), full(grid16, 1.0))
        assert ehd.cfl_limit(s, 0.4) == math.inf

    def test_known_speed(self, grid16):
        u = VectorField(
            RealField(grid16, full(grid16, 2.0 * np.sin(grid16.y))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        expected = 0.4 * grid16.spacing / 2.0
        assert ehd.cfl_limit(s, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_electric_drift_limits_the_step(self, grid16):
        """A quiescent charged state is still CFL-limited through grad psi."""
        s = ehd.charged_shear(grid16)
        # psi = -(sin x - sin y)/2, so max |grad psi| = sqrt(1/2)
        expected = 0.4 * grid16.spacing / math.sqrt(0.5)
        assert ehd.cfl_limit(s, 0.4) == pytest.approx(expected, rel=1e-12)


def strong_charges(grid, level):
    """charged_shear's velocity with charges level + sin(x)/2 and level + sin(y)/2."""
    s = ehd.charged_shear(grid)
    return State(u=s.u, v=RealField(grid, s.v.samples + (level - 1.0)),
                 w=RealField(grid, s.w.samples + (level - 1.0)))


class TestChargeRelaxationLimit:
    """The charges relax at a rate up to max v + max w; a step keeps dt
    times that rate inside RK3's real stability interval, scaled by cfl."""

    def test_stable_relaxation_is_not_a_blow_up(self, grid16):
        """At charges 1e4, dt 5e-4 took RK3 outside its stability interval:
        the run reported blow_up_suspected after 101 steps ("CFL limit
        9.360e-11"), with max |v - 1e4| at 7.7e9; dt 1e-4 completed with
        0.47562."""
        report = ehd.run(strong_charges(grid16, 1e4), StepControl(dt=5e-4, t_end=0.01))
        assert report.status is RunStatus.COMPLETED, report.diagnostic
        assert np.abs(report.final_state.v.samples - 1e4).max() <= 0.5

    def test_limit_is_the_scaled_stability_interval(self, grid16):
        s = strong_charges(grid16, 1e4)
        rate = float(s.v.samples.max()) + float(s.w.samples.max())
        new = ehd.step(s, StepControl(dt=5e-4, cfl=0.3))
        assert new.t == 0.3 * solver.RK3_REAL_STABILITY / rate

    def test_collapse_names_the_limit(self, grid16):
        with pytest.raises(BlowUpSuspected, match="time step collapsed: charge relaxation limit"):
            ehd.step(strong_charges(grid16, 1e4), StepControl(dt=5e-4, dt_min=1e-4))

    def test_uncharged_flow_has_no_relaxation_limit(self, grid16):
        s = ehd.taylor_green(grid16)
        assert ehd.step(s, StepControl(dt=5e-4)).t == 5e-4


# The expression-form right-hand side and RK3 step that the in-place solver
# arithmetic replaced, on the full layout (ref is `full_layout.layout(n)`),
# with the unnormalized transforms scaled by n^3 by hand.  The solver
# computes on the dealiased block only.  Its block arrays, spread into +0.0,
# must equal them bit for bit in the block, sign of zero included, where
# they give zeros of either sign outside it, so that the inverse transforms,
# the bytes state checksums hash, are bitwise theirs.
def _ref_forward(ref, samples):
    return scipy.fft.rfftn(samples, workers=1) / ref.n**3


def _ref_inverse(ref, coeffs):
    return scipy.fft.irfftn(coeffs, s=(ref.n,) * 3, workers=1) * ref.n**3


def _ref_leray(ref, cx, cy, cz):
    kd = (ref.kx * cx + ref.ky * cy + ref.kz * cz) * ref.inv_k2
    return cx - ref.kx * kd, cy - ref.ky * kd, cz - ref.kz * kd


def _ref_grad_psi(ref, psi_hat):
    return [_ref_inverse(ref, 1j * kk * psi_hat) for kk in (ref.kx, ref.ky, ref.kz)]


def _ref_nonlinear(ref, c, samples=None, dpsi=None):
    cv, cw = c[3], c[4]
    mask = ref.mask
    kx, ky, kz = ref.kx, ref.ky, ref.kz
    charged = bool(cv.any() or cw.any())
    if samples is None:
        samples = [_ref_inverse(ref, a) for a in (c if charged else c[:3])]
    u = samples[:3]
    if charged:
        v, w = samples[3], samples[4]
        if dpsi is None:
            psi = -(cv - cw) * ref.inv_k2
            psi[0, 0, 0] = 0.0
            dpsi = _ref_grad_psi(ref, psi)
    flux = {}
    for i in range(3):
        for j in range(i, 3):
            prod = u[i] * u[j]
            if charged:
                prod -= dpsi[i] * dpsi[j]
            flux[i, j] = _ref_forward(ref, prod)
    kvec = (kx, ky, kz)
    nu_hat = [
        -1j
        * (
            kvec[0] * flux[min(i, 0), max(i, 0)]
            + kvec[1] * flux[min(i, 1), max(i, 1)]
            + kvec[2] * flux[min(i, 2), max(i, 2)]
        )
        * mask
        for i in range(3)
    ]
    nu_hat = _ref_leray(ref, *nu_hat)
    if not charged:
        zero = np.zeros_like(cv)
        return (*nu_hat, zero, zero.copy())
    nv_hat = -1j * (
        kx * _ref_forward(ref, u[0] * v + v * dpsi[0])
        + ky * _ref_forward(ref, u[1] * v + v * dpsi[1])
        + kz * _ref_forward(ref, u[2] * v + v * dpsi[2])
    ) * mask
    nw_hat = -1j * (
        kx * _ref_forward(ref, u[0] * w - w * dpsi[0])
        + ky * _ref_forward(ref, u[1] * w - w * dpsi[1])
        + kz * _ref_forward(ref, u[2] * w - w * dpsi[2])
    ) * mask
    return (*nu_hat, nv_hat, nw_hat)


def _ref_advance(ref, c0, f1, dt):
    e_full = np.exp(-ref.k2 * dt)
    e_half = np.exp(-ref.k2 * (0.5 * dt))
    s2 = tuple(e_half * (a + 0.5 * dt * f) for a, f in zip(c0, f1))
    f2 = _ref_nonlinear(ref, s2)
    s3 = tuple(
        e_full * a + dt * (-e_full * fa + 2.0 * e_half * fb)
        for a, fa, fb in zip(c0, f1, f2)
    )
    f3 = _ref_nonlinear(ref, s3)
    c1 = tuple(
        e_full * a + (dt / 6.0) * (e_full * fa + 4.0 * e_half * fb + fc)
        for a, fa, fb, fc in zip(c0, f1, f2, f3)
    )
    mask = ref.mask
    return (*(a * mask for a in _ref_leray(ref, *c1[:3])), c1[3] * mask, c1[4] * mask)


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def spread(ref, blocks):
    """Block arrays written into half-spectrum zeros of the full layout."""
    return [ref.spread(a) for a in blocks]


def assert_equal_in_block(ref, got, want):
    """Half-spectrum arrays got equal want bit for bit in the dealiased block
    and are +0.0 outside it, where want is zero of either sign; the inverse
    transforms of got and want are bitwise equal."""
    mask = np.broadcast_to(ref.mask, ref.shape)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a[mask].view(np.int64), b[mask].view(np.int64))
        assert not a[~mask].view(np.int64).any()  # all bits zero: +0.0
        assert not b[~mask].any()
    assert_bitwise_equal([_ref_inverse(ref, a) for a in got],
                         [_ref_inverse(ref, b) for b in want])


class TestInPlaceArithmetic:
    """The in-place transforms, right-hand sides and RK3 step are bitwise the
    expression forms above."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_transform_helpers_equal_scaled_unnormalized_transforms(self, n, rng):
        grid, ref = ehd.Grid(n), layout(n)
        x = rng.standard_normal((n,) * 3)
        c = solver._coeffs_from_samples(grid, x, np.empty(grid.block.shape, complex))
        assert_bitwise_equal([c], [ref.block(_ref_forward(ref, x))])
        assert_bitwise_equal(
            [solver._samples_from_coeffs(grid, c, solver._zero_coeffs(grid))],
            [_ref_inverse(ref, ref.spread(c))],
        )

    @pytest.mark.parametrize("preset", ["random_smooth", "taylor_green"])
    @pytest.mark.parametrize("dt", [5e-4, 0.0201 - 0.02])  # base and horizon-clamped
    def test_step_equals_expression_form(self, preset, dt, grid16):
        build = {"random_smooth": lambda g: ehd.random_smooth(g, seed=5),
                 "taylor_green": ehd.taylor_green}[preset]
        user = build(grid16)
        snapshot = ehd.step(user, StepControl(dt=dt))  # carries the run's coefficients
        assert (user.coeffs[3].any()) == (preset == "random_smooth")
        ref = layout(16)
        for s, samples in ((user, None), (snapshot, snapshot.samples)):
            c0 = [a.copy() for a in s.coeffs]  # writable, so a write would land
            c_full = spread(ref, s.coeffs)
            before = tuple(a.copy() for a in c0)
            # Five arrays: grad psi is given, that of zero charges too, so
            # both calls take the charged arithmetic.
            made, dpsi = solver._materialize(c0, solver._Work(grid16), True)
            if s.grad_psi is not None:
                assert_bitwise_equal(dpsi, s.grad_psi)
            f1 = solver._nonlinear(made if samples is None else samples, dpsi,
                                   solver._Work(grid16), out=[np.empty_like(a) for a in c0])
            ref_f1 = _ref_nonlinear(ref, c_full, samples, s.grad_psi)
            assert_equal_in_block(ref, spread(ref, f1), ref_f1)
            assert_equal_in_block(
                ref, spread(ref, solver._nonlinear(made, dpsi, solver._Work(grid16),
                                                   out=[np.empty_like(a) for a in c0])),
                _ref_nonlinear(ref, c_full))
            c1 = solver._advance(c0, f1, dt, solver._Work(grid16))
            assert_equal_in_block(ref, spread(ref, c1), _ref_advance(ref, c_full, ref_f1, dt))
            assert_bitwise_equal(c0, before)
            if preset == "taylor_green":
                # Five arrays take the charged arithmetic; zero charges stay +0.
                assert not any(np.signbit(a.view(float)).any() for a in (*f1[3:], *c1[3:]))

    def test_nonlinear_rhs_inverts_the_expression_form(self, grid16):
        s = ehd.random_smooth(grid16, seed=5)
        u, v, w = ehd.nonlinear_rhs(s)
        ref = layout(16)
        want = [_ref_inverse(ref, a) for a in _ref_nonlinear(ref, spread(ref, s.coeffs))]
        assert_bitwise_equal([f.samples for f in (*u.components, v, w)], want)

    @pytest.mark.parametrize("lane", [False, True])
    @pytest.mark.parametrize("preset", ["random_smooth", "taylor_green"])
    def test_work_arrays_carry_nothing_between_steps(self, preset, lane, grid16):
        """Steps reusing one set of work arrays, the lane's own among them,
        filled with NaN to start (every plane of both half-spectrum arrays,
        which the forwards write whole and each inverse zeroes), equal
        steps with fresh ones: nothing is read before it is written."""
        control = StepControl(t_end=1.0)
        s = ehd.random_smooth(grid16, seed=5) if preset == "random_smooth" else (
            ehd.taylor_green(grid16))
        work = solver._Work(grid16, lane)
        try:
            real, spectral, side_full = work.side
            for a in (*work.real, *work.spectral, work.full, *real, *spectral, side_full,
                      *(x for stage in work.stages for x in stage)):
                a.fill(np.nan)
            for _ in range(3):
                reused = solver._step(s, control, work)
                fresh = solver._step(s, control, solver._Work(grid16))
                assert_bitwise_equal(reused.coeffs, fresh.coeffs)
                s = reused
        finally:
            work.close()


class TestUnchargedPath:
    """With v = w = 0 a step carries only the three velocity arrays, bitwise
    the five-array expression form, and the charges stay exact +0."""

    @pytest.mark.parametrize("dt", [5e-4, 1e-4])  # base and horizon-clamped
    def test_step_equals_five_array_expression_form(self, dt, grid16):
        def control_for(s):
            t_end = 1.0 if dt == 5e-4 else s.t + dt
            return StepControl(dt=5e-4, t_end=t_end)

        user = ehd.taylor_green(grid16)
        snapshot = ehd.step(user, StepControl(dt=5e-4))  # carries the run's coefficients
        for s, samples in ((user, None), (snapshot, snapshot.samples)):
            assert s.grad_psi is None
            control = control_for(s)
            used = min(control.dt, control.t_end - s.t)
            ref = layout(16)
            c0 = spread(ref, s.coeffs)
            want = _ref_advance(ref, c0, _ref_nonlinear(ref, c0, samples), used)

            work = solver._Work(grid16)
            new = solver._step(s, control, work)
            assert new.t == s.t + used
            assert_equal_in_block(ref, spread(ref, new.coeffs), want)
            assert_bitwise_equal(new.samples, [_ref_inverse(ref, a) for a in want])
            for a in (*new.coeffs[3:], *new.samples[3:]):
                assert not np.signbit(a.view(float)).any()

            # v and w are one shared read-only array, held by the run.
            assert new.v.samples is new.w.samples is work.zeros[0]
            assert new._block[3] is new._block[4] is work.zeros[1]
            assert not any(a.flags.writeable for a in work.zeros)

    def test_three_arrays_carried(self, grid16, monkeypatch):
        seen = []
        nonlinear = solver._nonlinear

        def record(*args, out):
            seen.append(len(out))
            return nonlinear(*args, out=out)

        monkeypatch.setattr(solver, "_nonlinear", record)
        ehd.run(ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=2e-3))
        ehd.run(ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=2e-3))
        assert seen == [3] * 6 + [5] * 6


def _old_max_magnitude(components):
    """The CFL magnitude before it reused two arrays."""
    scale = max(float(np.abs(a).max()) for a in components)
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    sq = sum((a / scale) ** 2 for a in components)
    return scale * float(np.sqrt(sq.max()))


def _fields_for_max_magnitude(rng):
    shape = (8, 8, 8)
    yield "random", [rng.standard_normal(shape) for _ in range(3)]
    yield "negative", [-np.abs(rng.standard_normal(shape)) for _ in range(3)]
    yield "1e300", [1e300 * rng.standard_normal(shape) for _ in range(3)]
    yield "zero", [np.zeros(shape) for _ in range(3)]
    yield "negative zero", [np.full(shape, -0.0) for _ in range(3)]
    yield "mixed zero", [np.zeros(shape), np.full(shape, -0.0), np.zeros(shape)]
    for name, bad in (("nan", np.nan), ("-nan", -np.nan), ("inf", np.inf),
                      ("-inf", -np.inf), ("inf - inf", np.inf - np.inf)):
        for i in range(3):
            fields = [rng.standard_normal(shape) for _ in range(3)]
            fields[i][1, 2, 3] = bad
            yield f"{name} in component {i}", fields
    fields = [rng.standard_normal(shape) for _ in range(3)]
    fields[0][0, 0, 0], fields[2][4, 4, 4] = np.inf, np.nan
    yield "inf and nan", fields
    yield "1e-300", [1e-300 * rng.standard_normal(shape) for _ in range(3)]


class TestMaxMagnitude:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_bits_as_the_old_formula(self, rng):
        for name, fields in _fields_for_max_magnitude(rng):
            before = [a.copy() for a in fields]
            got = np.float64(solver._max_magnitude(fields))
            want = np.float64(_old_max_magnitude(fields))
            assert got.view(np.int64) == want.view(np.int64), (name, got, want)
            assert_bitwise_equal(fields, before)


def _old_vector_magnitude(x, y, z):
    """spectral.vector_magnitude as one expression, summed from zero."""
    return np.sqrt(x**2 + y**2 + z**2)


class TestPointwiseMagnitude:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_bits_as_the_old_expressions(self, grid8, rng):
        for name, fields in _fields_for_max_magnitude(rng):
            got = ehd.vector_magnitude(VectorField(*(RealField(grid8, a) for a in fields)))
            want = _old_vector_magnitude(*fields)
            assert np.array_equal(got.samples.view(np.int64), want.view(np.int64)), name


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_to_one_cpu(patch):
    """An affinity mask of one CPU: every lane task runs inline."""
    patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    patch.setattr(os, "cpu_count", lambda: 1)


@pytest.fixture
def one_cpu(monkeypatch):
    pin_to_one_cpu(monkeypatch)


@pytest.fixture(scope="module")
def grid64():
    return ehd.Grid(64)


def on_threads(monkeypatch, name):
    """Patch solver.<name> to record the thread each call runs on."""
    threads = []
    task = getattr(solver, name)

    def record(*args):
        threads.append(threading.current_thread())
        return task(*args)

    monkeypatch.setattr(solver, name, record)
    return threads


# Each lane task by its calls in a two-step charged run.
LANE_TASKS = {"_lane_samples": 7, "_charge_terms": 6}


def three_steps(state):
    return ehd.run(state, StepControl(dt=5e-4, t_end=1.5e-3)).final_state


class TestLanes:
    """At 64^3 with two CPUs the charged right-hand sides run in two lanes;
    the bits are those of one lane, and no thread outlives the run."""

    @pytest.mark.parametrize("preset", ["charged_shear", "random_smooth"])
    def test_two_lanes_equal_one(self, preset, grid64, monkeypatch):
        build = {"charged_shear": ehd.charged_shear,
                 "random_smooth": lambda g: ehd.random_smooth(g, seed=7)}[preset]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            lanes = three_steps(build(grid64))
        finally:
            sys.setswitchinterval(interval)
        with monkeypatch.context() as m:
            pin_to_one_cpu(m)
            inline = three_steps(build(grid64))
        assert lanes.step_index == inline.step_index == 3
        assert_bitwise_equal(lanes.coeffs, inline.coeffs)
        assert_bitwise_equal(lanes.samples, inline.samples)

    @pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs in the affinity mask")
    @pytest.mark.parametrize("task", LANE_TASKS)
    def test_lane_tasks_run_off_the_main_thread_at_64_only(self, task, grid32, grid64,
                                                           monkeypatch):
        """Two steps from a user state: each of their six stages makes the
        charge terms.  The w samples are made by RK stages 2 and 3, by
        stage 1 of step 1 (which inverts the initial coefficients), and for
        each new snapshot, the first one with grad psi.  At 32^3 each task
        runs on the thread of its step: step 1 on the calling thread, step 2
        on the worker (the step lane)."""
        threads, stepping = on_threads(monkeypatch, task), on_threads(monkeypatch, "_step")
        control = StepControl(dt=5e-4, t_end=1e-3)
        ehd.run(ehd.charged_shear(grid64), control)
        assert len(threads) == LANE_TASKS[task] and threading.main_thread() not in threads
        assert stepping == [threading.main_thread()] * 2
        threads.clear()
        stepping.clear()
        ehd.run(ehd.charged_shear(grid32), control)
        first = {"_lane_samples": 4, "_charge_terms": 3}[task]
        assert stepping[0] is threading.main_thread() is not stepping[1]
        assert threads == [stepping[0]] * first + [stepping[1]] * (LANE_TASKS[task] - first)

    @pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs in the affinity mask")
    def test_the_worker_allocates_no_transform_output(self, grid64, monkeypatch):
        """Two charged steps at 64^3: every binding call that makes a
        transform's output off the calling thread is given its output
        array.  Each flux forward writes its r2c pass into the work array of
        its thread: `_nonlinear`'s into `_Work.full`, the lane's
        `_charge_terms` into the full array of `_Work.side`; the lane's
        inverses fill the sample arrays `_materialize` made."""
        made, seen = [], []

        class Recorded(solver._Work):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def recorded(name, out_at):
            binding = getattr(spectral, name)

            def call(*args):
                caller = sys._getframe(2)  # above the seam, and any comprehension
                while caller.f_code.co_name.startswith("<"):
                    caller = caller.f_back
                seen.append((name, threading.current_thread(), caller.f_code.co_name,
                             args[out_at]))
                return binding(*args)

            monkeypatch.setattr(spectral, name, call)

        recorded("_r2c", 4)
        recorded("_c2r", 5)
        monkeypatch.setattr(solver, "_Work", Recorded)
        ehd.run(ehd.charged_shear(grid64), StepControl(dt=5e-4, t_end=1e-3))
        (work,) = made
        main = threading.main_thread()
        off_main = [(name, caller) for name, thread, caller, out in seen if thread is not main]
        assert off_main and all(out is not None for _, thread, _, out in seen
                                if thread is not main)
        forwards = {"_nonlinear": [], "_charge_terms": []}
        for name, thread, caller, out in seen:
            if name == "_r2c" and caller in forwards:
                forwards[caller].append((thread is main, out))
        # Six flux forwards in each of the two steps' three stages.
        assert len(forwards["_nonlinear"]) == len(forwards["_charge_terms"]) == 36
        assert all(on_main and out is work.full for on_main, out in forwards["_nonlinear"])
        assert all(not on_main and out is work.side[2]
                   for on_main, out in forwards["_charge_terms"])
        # The lane's inverses: w, and grad psi through `_gradient_samples`.
        assert {caller for name, caller in off_main if name == "_c2r"} == {
            "_lane_samples", "_gradient_samples"}

    def test_one_cpu_starts_no_thread(self, grid64, monkeypatch, one_cpu):
        start = threading.Thread.start
        started = []

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        threads = {task: on_threads(monkeypatch, task) for task in LANE_TASKS}
        ehd.run(ehd.charged_shear(grid64), StepControl(dt=5e-4, t_end=1e-3))
        assert started == []
        assert all(t == [threading.main_thread()] * LANE_TASKS[task]
                   for task, t in threads.items())

    @pytest.mark.parametrize("task", LANE_TASKS)
    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_lane_error_ends_the_run_as_in_one_lane(self, cpus, task, grid64, monkeypatch,
                                                    request):
        """A ChargeNeutralityError in a lane task of RK stage 2 ends the run
        with the status and diagnostic it has in one lane, and stops the
        lane's thread."""
        if cpus == "one":
            request.getfixturevalue("one_cpu")
        lane_task = getattr(solver, task)
        calls = []

        def not_neutral_in_stage_2(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ChargeNeutralityError("right-hand side is not neutral (test)")
            lane_task(*args)

        monkeypatch.setattr(solver, task, not_neutral_in_stage_2)
        before = threading.active_count()
        report = ehd.run(ehd.charged_shear(grid64), StepControl(dt=5e-4, t_end=1e-3))
        assert report.status is RunStatus.INVARIANT_VIOLATION
        assert report.diagnostic == "right-hand side is not neutral (test)"
        assert report.steps == 0 and len(calls) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("asked_by_hook", [False, True])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_non_neutral_snapshot_ends_the_run_as_before(self, cpus, n, asked_by_hook,
                                                         monkeypatch, request):
        """Step 2 leaves v - w off neutrality by 1e-9, within the drift
        tolerance of charges of mean 100.  The snapshot's grad psi stays
        lazy, so the Poisson solve raises where it always has: in the hook
        that asks for it, else in step 3, which ends the run after 2 steps."""
        if cpus == "one":
            request.getfixturevalue("one_cpu")
        grid = ehd.Grid(n)
        shear = ehd.charged_shear(grid)
        s0 = State(u=shear.u, v=RealField(grid, shear.v.samples + 99.0),
                   w=RealField(grid, shear.w.samples + 99.0))
        advance = solver._advance
        calls = []

        def off_neutral_in_step_2(*args):
            c1 = advance(*args)
            calls.append(args)
            if len(calls) == 2:
                c1[3][0, 0, 0] += 1e-9
            return c1

        def hook(s, d, dt):
            if asked_by_hook:
                s.grad_psi

        monkeypatch.setattr(solver, "_advance", off_neutral_in_step_2)
        report = ehd.run(s0, StepControl(dt=5e-4, t_end=2e-3), hooks=[hook])
        assert report.status is RunStatus.INVARIANT_VIOLATION
        assert (report.steps, report.final_state.step_index) == (2, 2)
        assert report.t_final == report.final_state.t == 5e-4 + 5e-4
        assert report.diagnostic.startswith("right-hand side is not neutral: mean=1.0")
        with pytest.raises(ChargeNeutralityError) as raised:
            report.final_state.grad_psi
        assert report.diagnostic == str(raised.value)

    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_when_both_lanes_raise_the_main_lane_wins(self, cpus, grid64, monkeypatch,
                                                      request):
        """The charge terms (lane) and the momentum projection (this thread)
        both raise in stage 1; serially the projection comes first."""
        if cpus == "one":
            request.getfixturevalue("one_cpu")

        def lane(*args):
            raise ChargeNeutralityError("charge terms failed (test)")

        def main(*args):
            raise BlowUpSuspected("projection failed (test)")

        monkeypatch.setattr(solver, "_charge_terms", lane)
        monkeypatch.setattr(solver, "_leray_coeffs", main)
        report = ehd.run(ehd.charged_shear(grid64), StepControl(dt=5e-4, t_end=1e-3))
        assert report.status is RunStatus.BLOW_UP_SUSPECTED
        assert report.diagnostic == "projection failed (test)"

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_finished_run_frees_its_work_arrays(self, n, monkeypatch):
        """No reference cycle keeps them until the garbage collector runs."""
        made = []

        class Recorded(solver._Work):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(solver, "_Work", Recorded)
        gc.disable()
        try:
            ehd.run(ehd.charged_shear(ehd.Grid(n)), StepControl(dt=5e-4, t_end=1e-3))
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()

    def test_no_thread_outlives_the_run(self, grid64, monkeypatch):
        """Nor a lane left open: a completed run, a hook that raises after a
        step or at t = 0, and an initial state that fails validation."""
        closed = []
        close = solver._Work.close
        monkeypatch.setattr(solver._Work, "close", lambda work: (closed.append(1), close(work)))
        before = threading.active_count()
        control = StepControl(dt=5e-4, t_end=1e-3)
        ehd.run(ehd.charged_shear(grid64), control)
        assert threading.active_count() == before

        def broken(state, derived, dt):
            if dt > 0:
                raise ValueError("observer bug")

        with pytest.raises(ValueError, match="observer bug"):
            ehd.run(ehd.charged_shear(grid64), control, hooks=[broken])
        assert threading.active_count() == before

        def broken_at_start(state, derived, dt):
            raise ValueError("observer bug at t = 0")

        with pytest.raises(ValueError, match="at t = 0"):
            ehd.run(ehd.charged_shear(grid64), control, hooks=[broken_at_start])
        assert threading.active_count() == before

        shear = ehd.charged_shear(grid64)
        non_neutral = State(u=shear.u, v=RealField(grid64, shear.v.samples + 1.0), w=shear.w)
        report = ehd.run(non_neutral, control, hooks=[broken_at_start])
        assert report.status is RunStatus.INVARIANT_VIOLATION and report.steps == 0
        assert report.diagnostic.startswith("initial charges are not neutral")
        assert threading.active_count() == before
        assert len(closed) == 4

    def test_lane_tasks_keep_the_callers_errstate(self):
        """numpy's error state is context-local; the worker runs each task in
        a copy of the caller's context."""
        work = solver._Work(ehd.Grid(8), lane=True)
        try:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                with work.beside(np.multiply, np.float64(1e300), np.float64(1e300)):
                    pass
        finally:
            work.close()


def _run_tree(tmp_path, capsys, initial) -> tuple:
    """`ehd run` of initial at 32^3 for four steps, a checkpoint after
    each: exit code, stdout, report.json without wall_clock, and the bytes
    of every other file written.  The output directory is removed, so the
    next run writes the same paths."""
    from ehd import cli

    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"grid_n = 32\nt_end = 2e-3\ninitial_condition = {initial}\n"
                      f"checkpoint_every = 1\noutput_dir = {out}\n")
    code = cli.main(["run", str(config)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    report = json.loads(files.pop("report.json"))
    report.pop("wall_clock")
    shutil.rmtree(out)
    return code, capsys.readouterr().out, report, files


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs in the affinity mask")
class TestStepLane:
    """From 32^3 up, unless a charged step takes the charge lane, the
    worker runs step k + 1 while the calling thread runs the hooks of
    snapshot k."""

    @pytest.mark.parametrize("initial", ["random_smooth(seed=7)", "charged_shear",
                                         "taylor_green", "restart"])
    def test_cli_run_is_byte_identical_inline(self, initial, grid32, tmp_path, capsys,
                                              monkeypatch):
        if initial == "restart":
            path = tmp_path / "restart.ehds"
            u = ehd.random_smooth(grid32, seed=5).u
            ehd.write_checkpoint(path, State(u=u, v=zero_field(grid32), w=zero_field(grid32)))
            initial = f"from_checkpoint(path={path})"
        stepping = on_threads(monkeypatch, "_step")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            lane = _run_tree(tmp_path, capsys, initial)
        finally:
            sys.setswitchinterval(interval)
        assert len(stepping) == 4 and threading.main_thread() not in stepping[1:]
        with monkeypatch.context() as m:
            pin_to_one_cpu(m)
            inline = _run_tree(tmp_path, capsys, initial)
        assert stepping[4:] == [threading.main_thread()] * 4
        # Three CSVs, a checkpoint of each step and the final one.
        assert lane[0] == 0 and len(lane[3]) == 8
        assert lane == inline

    @pytest.mark.parametrize("hook_raises", [True, False])
    def test_a_hook_failure_wins_over_the_step_beside_it(self, hook_raises, grid32,
                                                         monkeypatch):
        """Step 3 fails while the hooks of snapshot 2 run.  A hook that
        raises at snapshot 2, after the step has failed, ends the run there
        with its own status and diagnostic; otherwise the step's failure
        ends it, once the hooks have returned."""
        advance, failed = solver._advance, threading.Event()

        def fails_in_step_3(c0, f1, dt, work):
            if len(calls) == 2:
                failed.set()
                raise InvariantViolation("step 3 failed (test)")
            calls.append(threading.current_thread())
            return advance(c0, f1, dt, work)

        def hook(s, d, dt):
            if s.step_index == 2:
                assert failed.wait(timeout=60)
                if hook_raises:
                    raise BlowUpSuspected("observer saw a blow-up (test)")

        calls = []
        monkeypatch.setattr(solver, "_advance", fails_in_step_3)
        report = ehd.run(ehd.charged_shear(grid32), StepControl(dt=5e-4, t_end=3e-3),
                         hooks=[hook])
        assert calls[1] is not threading.main_thread()
        if hook_raises:
            assert report.status is RunStatus.BLOW_UP_SUSPECTED
            assert report.diagnostic == "observer saw a blow-up (test)"
        else:
            assert report.status is RunStatus.INVARIANT_VIOLATION
            assert report.diagnostic == "step 3 failed (test)"
        assert report.steps == report.final_state.step_index == 2

    @pytest.mark.parametrize("preset", ["charged_shear", "taylor_green"])
    def test_hooks_run_on_the_calling_thread_and_no_thread_outlives_run(self, preset, grid32,
                                                                        monkeypatch):
        """Also when run is called off the main thread, and when a hook
        raises while a step runs beside it."""
        control = StepControl(dt=5e-4, t_end=2e-3)
        stepping = on_threads(monkeypatch, "_step")

        def caller(checks):
            here, before, seen = threading.current_thread(), threading.active_count(), []

            def hook(s, d, dt):
                seen.append(threading.current_thread())
                if s.step_index == 2 and checks:
                    raise ValueError("observer bug (test)")

            ehd.run(getattr(ehd, preset)(grid32), control, hooks=[hook])
            checks.append(threading.active_count() == before)
            checks.append(here not in stepping[-3:])  # steps 2 to 4 ran on the worker
            try:
                ehd.run(getattr(ehd, preset)(grid32), control, hooks=[hook])
            except ValueError as exc:
                checks.append(str(exc) == "observer bug (test)")
            checks.append(threading.active_count() == before)
            checks.append(seen == [here] * 8)  # t = 0 and four steps, then t = 0 to step 2

        checks = []
        caller(checks)
        assert checks == [True] * 5
        checks.clear()
        thread = threading.Thread(target=caller, args=(checks,))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and checks == [True] * 5
