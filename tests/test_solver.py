"""Right-hand sides, the integrating-factor step, and the run loop."""

import math

import numpy as np
import pytest
import scipy.fft

import ehd
from ehd import solver, spectral
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


class TestInitialDivergenceCheck:
    @staticmethod
    def taylor_green_times(grid, amplitude):
        tg = ehd.taylor_green(grid)
        u = VectorField(*(RealField(grid, amplitude * c.samples) for c in tg.u.components))
        return State(u=u, v=tg.v, w=tg.w)

    def test_large_amplitude_raises_no_hermitian_false_alarm(self, grid16, grid32):
        """div u is transformed without backward_transform's symmetry check:
        the coefficients of Taylor-Green x 1e4 at 16^3 fail that check by
        roundoff although max |div u| is 1.8e-11.  The absolute tolerance
        still rejects x 1e6 at 32^3, where max |div u| is 3.8e-9."""
        ehd.validate_initial_state(self.taylor_green_times(grid16, 1e4))
        with pytest.raises(InvariantViolation, match="not divergence-free"):
            ehd.validate_initial_state(self.taylor_green_times(grid32, 1e6))


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


# The expression-form right-hand side and RK3 step that the in-place solver
# arithmetic replaced, with the unnormalized transforms scaled by n^3 by hand.
# The solver must reproduce them bit for bit, sign of zero included, because
# state checksums hash the sample bytes.
def _ref_forward(grid, samples):
    return scipy.fft.rfftn(samples, workers=1) / grid.n**3


def _ref_inverse(grid, coeffs):
    return scipy.fft.irfftn(coeffs, s=(grid.n,) * 3, workers=1) * grid.n**3


def _ref_leray(grid, cx, cy, cz):
    kd = (grid.kx * cx + grid.ky * cy + grid.kz * cz) * grid.inv_k2
    return cx - grid.kx * kd, cy - grid.ky * kd, cz - grid.kz * kd


def _ref_grad_psi(grid, psi_hat):
    return [_ref_inverse(grid, 1j * kk * psi_hat) for kk in (grid.kx, grid.ky, grid.kz)]


def _ref_nonlinear(grid, c, samples=None, dpsi=None):
    cv, cw = c[3], c[4]
    mask = grid.dealias_mask
    kx, ky, kz = grid.kx, grid.ky, grid.kz
    charged = bool(cv.any() or cw.any())
    if samples is None:
        samples = [_ref_inverse(grid, a) for a in (c if charged else c[:3])]
    u = samples[:3]
    if charged:
        v, w = samples[3], samples[4]
        if dpsi is None:
            psi = -(cv - cw) * grid.inv_k2
            psi[0, 0, 0] = 0.0
            dpsi = _ref_grad_psi(grid, psi)
    flux = {}
    for i in range(3):
        for j in range(i, 3):
            prod = u[i] * u[j]
            if charged:
                prod -= dpsi[i] * dpsi[j]
            flux[i, j] = _ref_forward(grid, prod)
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
    nu_hat = _ref_leray(grid, *nu_hat)
    if not charged:
        zero = np.zeros_like(cv)
        return (*nu_hat, zero, zero.copy())
    nv_hat = -1j * (
        kx * _ref_forward(grid, u[0] * v + v * dpsi[0])
        + ky * _ref_forward(grid, u[1] * v + v * dpsi[1])
        + kz * _ref_forward(grid, u[2] * v + v * dpsi[2])
    ) * mask
    nw_hat = -1j * (
        kx * _ref_forward(grid, u[0] * w - w * dpsi[0])
        + ky * _ref_forward(grid, u[1] * w - w * dpsi[1])
        + kz * _ref_forward(grid, u[2] * w - w * dpsi[2])
    ) * mask
    return (*nu_hat, nv_hat, nw_hat)


def _ref_advance(grid, c0, f1, dt):
    e_full = np.exp(-grid.k2 * dt)
    e_half = np.exp(-grid.k2 * (0.5 * dt))
    s2 = tuple(e_half * (a + 0.5 * dt * f) for a, f in zip(c0, f1))
    f2 = _ref_nonlinear(grid, s2)
    s3 = tuple(
        e_full * a + dt * (-e_full * fa + 2.0 * e_half * fb)
        for a, fa, fb in zip(c0, f1, f2)
    )
    f3 = _ref_nonlinear(grid, s3)
    c1 = tuple(
        e_full * a + (dt / 6.0) * (e_full * fa + 4.0 * e_half * fb + fc)
        for a, fa, fb, fc in zip(c0, f1, f2, f3)
    )
    mask = grid.dealias_mask
    return (*(a * mask for a in _ref_leray(grid, *c1[:3])), c1[3] * mask, c1[4] * mask)


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestInPlaceArithmetic:
    """The in-place transforms, right-hand sides and RK3 step are bitwise the
    expression forms above."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_transform_helpers_equal_scaled_unnormalized_transforms(self, n, rng):
        grid = ehd.Grid(n)
        x = rng.standard_normal((n,) * 3)
        c = solver._coeffs_from_samples(grid, x)
        assert_bitwise_equal([c], [scipy.fft.rfftn(x, workers=1) / n**3])
        c *= grid.dealias_mask  # exact zeros of both signs
        assert_bitwise_equal(
            [solver._samples_from_coeffs(grid, c)],
            [scipy.fft.irfftn(c, s=(n,) * 3, workers=1) * n**3],
        )

    @pytest.mark.parametrize("preset", ["random_smooth", "taylor_green"])
    @pytest.mark.parametrize("dt", [5e-4, 0.0201 - 0.02])  # base and horizon-clamped
    def test_step_equals_expression_form(self, preset, dt, grid16):
        build = {"random_smooth": lambda g: ehd.random_smooth(g, seed=5),
                 "taylor_green": ehd.taylor_green}[preset]
        user = build(grid16)
        snapshot = ehd.step(user, StepControl(dt=dt))  # carries the run's coefficients
        assert (user.coeffs[3].any()) == (preset == "random_smooth")
        for s, samples in ((user, None), (snapshot, snapshot.samples)):
            c0 = tuple(a.copy() for a in s.coeffs)  # writable, so a write would land
            before = tuple(a.copy() for a in c0)
            f1 = solver._nonlinear(grid16, c0, solver._Work(grid16), samples, s.grad_psi)
            ref_f1 = _ref_nonlinear(grid16, c0, samples, s.grad_psi)
            assert_bitwise_equal(f1, ref_f1)
            assert_bitwise_equal(solver._nonlinear(grid16, c0, solver._Work(grid16)),
                                 _ref_nonlinear(grid16, c0))
            c1 = solver._advance(grid16, c0, f1, dt, solver._Work(grid16))
            assert_bitwise_equal(c1, _ref_advance(grid16, c0, ref_f1, dt))
            assert_bitwise_equal(c0, before)
            if preset == "taylor_green":
                # Five arrays take the charged arithmetic; zero charges stay +0.
                assert not any(np.signbit(a.view(float)).any() for a in (*f1[3:], *c1[3:]))

    def test_nonlinear_rhs_inverts_the_expression_form(self, grid16):
        s = ehd.random_smooth(grid16, seed=5)
        u, v, w = ehd.nonlinear_rhs(s)
        want = [_ref_inverse(grid16, a) for a in _ref_nonlinear(grid16, s.coeffs)]
        assert_bitwise_equal([f.samples for f in (*u.components, v, w)], want)

    @pytest.mark.parametrize("preset", ["random_smooth", "taylor_green"])
    def test_work_arrays_carry_nothing_between_steps(self, preset, grid16):
        """Steps reusing one set of work arrays, filled with NaN to start,
        equal steps with fresh ones: nothing is read before it is written."""
        control = StepControl(t_end=1.0)
        s = ehd.random_smooth(grid16, seed=5) if preset == "random_smooth" else (
            ehd.taylor_green(grid16))
        work = solver._Work(grid16)
        for a in (*work.real, *work.spectral, *work.stages[0], *work.stages[1]):
            a.fill(np.nan)
        for _ in range(3):
            reused = solver._step(s, control, work)
            fresh = solver._step(s, control, solver._Work(grid16))
            assert_bitwise_equal(reused.coeffs, fresh.coeffs)
            s = reused


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
            c0 = s.coeffs
            want = _ref_advance(grid16, c0, _ref_nonlinear(grid16, c0, samples), used)

            work = solver._Work(grid16)
            new = solver._step(s, control, work)
            assert new.t == s.t + used
            assert_bitwise_equal(new.coeffs, want)
            assert_bitwise_equal(new.samples, [_ref_inverse(grid16, a) for a in want])
            for a in (*new.coeffs[3:], *new.samples[3:]):
                assert not np.signbit(a.view(float)).any()

            # v and w are one shared read-only array, held by the run.
            assert new.v.samples is new.w.samples is work.zeros[0]
            assert new.coeffs[3] is new.coeffs[4] is work.zeros[1]
            assert not any(a.flags.writeable for a in work.zeros)

    def test_three_arrays_carried(self, grid16, monkeypatch):
        seen = []
        nonlinear = solver._nonlinear

        def record(grid, c, *args, **kwargs):
            seen.append(len(c))
            return nonlinear(grid, c, *args, **kwargs)

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
    """spectral.vector_magnitude before it summed through entry_magnitude."""
    return np.sqrt(x**2 + y**2 + z**2)


def _old_entry_magnitude(rows):
    """spectral.entry_magnitude before its sum started from the first square."""
    sq = np.zeros(rows[0][0].shape)
    for row in rows:
        for d in row:
            sq += d**2
    return np.sqrt(sq)


class TestPointwiseMagnitude:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_bits_as_the_old_expressions(self, grid8, rng):
        for name, fields in _fields_for_max_magnitude(rng):
            got = ehd.vector_magnitude(VectorField(*(RealField(grid8, a) for a in fields)))
            want = _old_vector_magnitude(*fields)
            assert np.array_equal(got.samples.view(np.int64), want.view(np.int64)), name
            rows = [fields[:2], fields[2:]]
            got = spectral.entry_magnitude(grid8, rows)
            want = _old_entry_magnitude(rows)
            assert np.array_equal(got.samples.view(np.int64), want.view(np.int64)), name
