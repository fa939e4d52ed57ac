"""Energy-balance audits, positivity structure, and growth monitors."""

import math

import numpy as np
import pytest

import ehd
from ehd import AuditLedger, RealField, State, StepControl, VectorField
from full_layout import layout

PI = math.pi
BOX_VOLUME = (2.0 * PI) ** 3


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def zero_field(grid):
    return RealField(grid, np.zeros((grid.n,) * 3))


def quiescent(grid, v, w):
    return State(
        u=VectorField(zero_field(grid), zero_field(grid), zero_field(grid)),
        v=RealField(grid, v),
        w=RealField(grid, w),
    )


def run_with_ledger(state0, control):
    ledger = AuditLedger.from_state(state0)
    records = []

    def watch(state, _, dt):
        records.append(ledger.update(state, dt))

    report = ehd.run(state0, control, hooks=[watch])
    return report, ledger, records


class TestPositivityTerm:
    def test_equal_charges_vanish(self, grid16, rng):
        v = 1.0 + 0.3 * rng.standard_normal((16,) * 3)
        assert ehd.positivity_term(quiescent(grid16, v, v.copy())) == 0.0

    def test_uniform_charges_closed_form(self, grid16):
        # (v+w)(v-w)^2 = 2 * 4 = 8 over the whole box
        s = quiescent(grid16, full(grid16, 2.0), full(grid16, 0.0))
        assert ehd.positivity_term(s) == pytest.approx(8.0 * BOX_VOLUME, rel=1e-12)

    def test_matches_brute_force_sum(self, grid16, rng):
        """Vectorized quadrature against an fsum over explicit grid nodes."""
        for _ in range(100):
            v = np.abs(rng.standard_normal((16,) * 3))
            w = np.abs(rng.standard_normal((16,) * 3))
            s = quiescent(grid16, v, w)
            got = ehd.positivity_term(s)
            brute = math.fsum(
                (v[i, j, k] + w[i, j, k]) * (v[i, j, k] - w[i, j, k]) ** 2
                for i, j, k in zip(*np.unravel_index(range(16**3), (16, 16, 16)))
            ) * grid16.cell_volume
            assert got == pytest.approx(brute, rel=1e-12)

    def test_nonnegative_for_nonnegative_charges(self, grid16, rng):
        v = np.abs(rng.standard_normal((16,) * 3))
        w = np.abs(rng.standard_normal((16,) * 3))
        assert ehd.positivity_term(quiescent(grid16, v, w)) >= -1e-10


class TestLogSobolevRatio:
    def test_zero_velocity_gives_zero(self, grid16):
        s = quiescent(grid16, full(grid16, 1.0), full(grid16, 1.0))
        assert ehd.log_sobolev_ratio(s) == 0.0

    def test_single_mode_closed_form(self, grid16):
        """u = (sin x2, 0, 0): every norm in the ratio is known exactly."""
        u = VectorField(
            RealField(grid16, full(grid16, np.sin(grid16.y))),
            zero_field(grid16),
            zero_field(grid16),
        )
        s = State(u=u, v=zero_field(grid16), w=zero_field(grid16))
        # |grad u|_sup = 1; |omega|_2 = sqrt(4 pi^3); |omega|_sup = 1;
        # |u|_H3 = sqrt(8 * (2 pi)^3 / 2) from (1+1)^3 on the pair k=(0,+-1,0).
        u_h3 = math.sqrt(8.0 * BOX_VOLUME / 2.0)
        denom = 1.0 + math.sqrt(4.0 * PI**3) + math.log(math.e + u_h3)
        assert ehd.log_sobolev_ratio(s) == pytest.approx(1.0 / denom, rel=1e-10)
        assert ehd.log_sobolev_ratio(s) < 1.0

    def test_bounded_along_decaying_run(self, grid16):
        report, ledger, _ = run_with_ledger(
            ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=0.05)
        )
        ratios = [r for _, r in ledger.ls_ratio_series]
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) < 1.0
        assert not ledger.summary()["ls_ratio_monotone_growth"]


class TestYGrowth:
    def test_zero_state(self, grid16):
        s = quiescent(grid16, np.zeros((16,) * 3), np.zeros((16,) * 3))
        assert ehd.y_growth(s) == pytest.approx(math.e, abs=1e-12)

    def test_taylor_green_closed_form(self, grid32):
        """Four modes at |k|^2 = 2 per component: H3^2 = 27 (2 pi)^3 / 2."""
        s = ehd.taylor_green(grid32)
        expected = math.e + 27.0 * BOX_VOLUME / 2.0
        assert ehd.y_growth(s) == pytest.approx(expected, rel=1e-10)

    def test_includes_charge_sobolev_norms(self, grid16):
        s = ehd.charged_shear(grid16)
        d = ehd.derive(s)
        expected = (
            math.e
            + ehd.sobolev_norm(d.v_hat, 2.0) ** 2
            + ehd.sobolev_norm(d.w_hat, 2.0) ** 2
        )
        assert ehd.y_growth(s) == pytest.approx(expected, rel=1e-12)


class TestInterpolationRatios:
    def test_scale_invariance(self, grid16, rng):
        f = RealField(grid16, 1.0 + 0.2 * rng.standard_normal((16,) * 3))
        f = ehd.backward_transform(ehd.forward_transform(f))
        r4a, r3a = ehd.interpolation_ratios(f)
        scaled = RealField(grid16, 7.3 * f.samples)
        r4b, r3b = ehd.interpolation_ratios(scaled)
        assert r4b == pytest.approx(r4a, rel=1e-12)
        assert r3b == pytest.approx(r3a, rel=1e-12)

    def test_constant_field_not_applicable(self, grid16):
        f = RealField(grid16, full(grid16, 3.0))
        r4, r3 = ehd.interpolation_ratios(f)
        assert math.isnan(r4) and math.isnan(r3)

    def test_zero_field_not_applicable_without_a_transform(self, grid16, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("a zero field was transformed")

        monkeypatch.setattr(ehd.spectral, "_coeffs_from_samples", no_transform)
        for zero in (0.0, -0.0):
            r4, r3 = ehd.interpolation_ratios(RealField(grid16, full(grid16, zero)))
            assert math.isnan(r4) and math.isnan(r3)

    def test_gn_ratios_use_v(self, grid16):
        s = ehd.charged_shear(grid16)
        assert ehd.gn_ratios(s) == ehd.interpolation_ratios(s.v)


class TestChargeIdentity:
    def test_zero_charges_zero_residual(self, grid16):
        report, ledger, records = run_with_ledger(
            ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=0.02)
        )
        assert ledger.max_charge_residual == 0.0

    def test_uniform_charges_are_steady(self, grid16):
        s0 = quiescent(grid16, full(grid16, 1.0), full(grid16, 1.0))
        report, ledger, records = run_with_ledger(s0, StepControl(dt=1e-3, t_end=0.02))
        assert ledger.max_charge_residual <= 1e-13
        assert ledger.d_charges == 0.0
        assert ledger.d_cross == 0.0

    def test_charged_run_residual_is_quadrature_limited(self, grid16):
        s0 = ehd.charged_shear(grid16)
        _, coarse, _ = run_with_ledger(s0, StepControl(dt=2e-3, t_end=0.04))
        _, fine, _ = run_with_ledger(s0, StepControl(dt=1e-3, t_end=0.04))
        assert coarse.max_charge_residual <= 1e-5
        assert fine.max_charge_residual <= coarse.max_charge_residual / 3.0

    def test_residual_above_tolerance_is_flagged(self, grid16, monkeypatch):
        s0 = ehd.charged_shear(grid16)
        ledger = AuditLedger.from_state(s0)
        # force the flag on any discretization error
        monkeypatch.setattr(ehd.audit, "CHARGE_IDENTITY_TOL", 1e-30)
        def watch(state, _, dt):
            ledger.update(state, dt)
        ehd.run(s0, StepControl(dt=2e-3, t_end=0.01), hooks=[watch])
        assert any("charge identity" in f for f in ledger.flags)


class TestVelocityDecay:
    def test_pure_fluid_margin_vanishes(self, grid16):
        """With equal charges the coupling term is zero and the balance is tight."""
        report, ledger, records = run_with_ledger(
            ehd.taylor_green(grid16), StepControl(dt=5e-4, t_end=0.05)
        )
        assert ledger.d_coupling == 0.0
        assert abs(ledger.min_velocity_margin) <= 1e-6 * ledger.e0_vel

    def test_taylor_green_energy_balance(self, grid16):
        report, ledger, _ = run_with_ledger(
            ehd.taylor_green(grid16), StepControl(dt=5e-4, t_end=0.05)
        )
        final = report.final_state
        d = ehd.derive(final)
        lhs = sum(ehd.l2_norm_sq(c) for c in d.u_hat.components) + ledger.d_vel
        assert lhs == pytest.approx(ledger.e0_vel, rel=1e-6)

    def test_charged_margin_equals_coupling_integral(self, grid16):
        report, ledger, records = run_with_ledger(
            ehd.charged_shear(grid16), StepControl(dt=1e-3, t_end=0.05)
        )
        assert ledger.min_velocity_margin >= -1e-6 * ledger.e0_vel
        assert ledger.max_margin_mismatch <= 1e-5
        assert ledger.d_coupling > 0.0

    def test_initial_energy_splits(self, grid16):
        """e0_vel for the charged layers is the potential-gradient energy alone."""
        ledger = AuditLedger.from_state(ehd.charged_shear(grid16))
        # psi = -(sin x - sin y)/2: ||grad psi||^2 = 2 * (1/4) * (2 pi)^3 / 2
        assert ledger.e0_vel == pytest.approx(BOX_VOLUME / 4.0, rel=1e-12)
        # ||v0||^2 = ||w0||^2 = (1 + 1/8) (2 pi)^3
        assert ledger.e0_charges == pytest.approx(2.25 * BOX_VOLUME, rel=1e-12)


class TestLedgerRecords:
    def test_records_match_csv_schema_fields(self, grid16):
        _, _, records = run_with_ledger(
            ehd.charged_shear(grid16), StepControl(dt=2e-3, t_end=0.01)
        )
        r = records[-1]
        for name in ("t", "charge_identity_residual", "velocity_margin",
                     "positivity_term", "ls_ratio", "y", "gn_ratio_l4", "gn_ratio_l3"):
            assert hasattr(r, name)
        assert r.positivity_term >= 0.0
        assert math.isfinite(r.y)

    def test_accumulators_nondecreasing(self, grid16):
        ledger = AuditLedger.from_state(ehd.charged_shear(grid16))
        history = []
        def watch(state, _, dt):
            ledger.update(state, dt)
            history.append((ledger.d_charges, ledger.d_cross, ledger.d_vel, ledger.d_coupling))
        ehd.run(ehd.charged_shear(grid16), StepControl(dt=2e-3, t_end=0.02), hooks=[watch])
        for prev, cur in zip(history, history[1:]):
            assert all(b >= a for a, b in zip(prev, cur))

    def test_min_charge_tracked(self, grid16):
        _, ledger, _ = run_with_ledger(
            ehd.charged_shear(grid16), StepControl(dt=2e-3, t_end=0.01)
        )
        assert ledger.min_charge == pytest.approx(0.5, abs=1e-3)

    def test_summary_is_json_ready(self, grid16):
        import json

        _, ledger, _ = run_with_ledger(
            ehd.taylor_green(grid16), StepControl(dt=1e-3, t_end=0.01)
        )
        json.dumps(ledger.summary())

    def test_empty_ledger_reports_nan_extrema(self, grid16):
        """Before update has seen a snapshot there is no extremum: NaN, not
        the starting values inf and 0 that would read as passed checks."""
        ledger = AuditLedger.from_state(ehd.charged_shear(grid16))
        summary = ledger.summary()
        for key in ("max_charge_identity_residual", "min_velocity_margin",
                    "max_margin_vs_coupling_mismatch", "min_charge_value",
                    "max_ls_ratio", "final_y"):
            assert summary[key] == "nan"
        ledger.update(ehd.charged_shear(grid16), 0.0)
        assert ledger.summary()["min_charge_value"] == 0.5


# The audit and energy formulas as each norm formed its own power array on
# the full layout, kept to pin the snapshot caches bit for bit.
def _old_power(grid, c):
    ref = layout(grid.n)
    return ref.power(ref.spread(c))


def _old_l2(F):
    return float(BOX_VOLUME * _old_power(F.grid, F.coeffs).sum())


def _old_grad(F):
    return float(BOX_VOLUME * (layout(F.grid.n).k2 * _old_power(F.grid, F.coeffs)).sum())


def _old_sobolev(F, s):
    weights = (1.0 + layout(F.grid.n).k2) ** s
    return float(np.sqrt(BOX_VOLUME * (weights * _old_power(F.grid, F.coeffs)).sum()))


def _old_values(state):
    g = state.grid
    u = state.u_hat.components
    v, w = state.v.samples, state.w.samples
    h3 = math.sqrt(sum(_old_sobolev(c, 3.0) ** 2 for c in u))
    omega_mag = ehd.vector_magnitude(state.omega)
    lsr = ehd.lp_norm(state.grad_u_magnitude, math.inf) / (
        1.0 + ehd.lp_norm(omega_mag, 2.0)
        + ehd.lp_norm(omega_mag, math.inf) * math.log(math.e + h3))
    gn = (math.nan, math.nan)
    if v.any():
        F = ehd.forward_transform(state.v)
        l2_sq, grad_sq = _old_l2(F), _old_grad(F)
        l2, g2 = math.sqrt(l2_sq), math.sqrt(grad_sq)
        gn = (ehd.lp_norm(state.v, 4.0) / (l2**0.25 * g2**0.75),
              ehd.lp_norm(state.v, 3.0) / (math.sqrt(l2) * math.sqrt(g2)))
    coupling = 0.0
    if state.grad_psi is not None:
        d = state.grad_psi
        coupling = 2.0 * float(np.sum((v + w) * (d[0] ** 2 + d[1] ** 2 + d[2] ** 2))
                               * g.cell_volume)
    k4 = layout(g.n).k2**2
    lap_psi_sq = float(BOX_VOLUME * (k4 * _old_power(g, state.psi_hat.coeffs)).sum())
    kinetic = sum(_old_l2(c) for c in u)
    potential = _old_grad(state.psi_hat)
    cross = float(np.sum((v + w) * (v - w) ** 2) * g.cell_volume)
    return {
        "charge_energy": _old_l2(state.v_hat) + _old_l2(state.w_hat),
        "velocity_energy": kinetic + potential,
        "kinetic": kinetic,
        "potential": potential,
        "integrands": {
            "charges": 2.0 * (_old_grad(state.v_hat) + _old_grad(state.w_hat)),
            "cross": cross,
            "vel": 2.0 * (sum(_old_grad(c) for c in u) + lap_psi_sq),
            "coupling": coupling,
        },
        "ls_ratio": lsr,
        "y": math.e + h3**2 + _old_sobolev(state.v_hat, 2.0) ** 2
        + _old_sobolev(state.w_hat, 2.0) ** 2,
        "gn": gn,
    }


PRESETS = {
    "charged_shear": ehd.charged_shear,
    "random_smooth": lambda g: ehd.random_smooth(g, seed=5),
    "taylor_green": ehd.taylor_green,
}


def _snapshot_pair(preset, kind):
    """(initial user state, later state): the later one a fresh user state
    of the preset, or the final snapshot of a 3-step run."""
    build, grid = PRESETS[preset], ehd.Grid(16)
    if kind == "user":
        return build(grid), build(grid)
    return build(grid), ehd.run(build(grid), StepControl(dt=1e-3, t_end=3e-3)).final_state


class TestSnapshotCachesAreTheOldFormulas:
    """Every audit.csv and energy.csv value, from the snapshot's power and
    |omega| caches, equals the formulas that formed their own arrays."""

    @pytest.mark.parametrize("kind", ["user", "run"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_records_bitwise(self, preset, kind):
        s0, s = _snapshot_pair(preset, kind)
        old0, old = _old_values(s0), _old_values(s)
        ledger = AuditLedger.from_state(s0)
        assert (ledger.e0_charges, ledger.e0_vel) == (old0["charge_energy"],
                                                     old0["velocity_energy"])
        dt = 1e-3
        ledger.update(s0, 0.0)
        assert ledger._last == old0["integrands"]
        record = ledger.update(s, dt)
        assert ledger._last == old["integrands"]

        trap = {k: 0.5 * dt * (old0["integrands"][k] + old["integrands"][k])
                for k in old["integrands"]}
        e0c, e0v = old0["charge_energy"], old0["velocity_energy"]
        residual = abs(old["charge_energy"] + trap["charges"] + trap["cross"] - e0c) / max(
            e0c, 1e-300)
        margin = e0v - (old["velocity_energy"] + trap["vel"])
        expected = ehd.AuditRecord(s.t, residual, margin, old["integrands"]["cross"],
                                   old["ls_ratio"], old["y"], *old["gn"])
        assert repr(record) == repr(expected)
        assert (ehd.audit.kinetic_energy(s), ehd.audit.potential_energy(s)) == (
            old["kinetic"], old["potential"])
