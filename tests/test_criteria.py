"""Blow-up criterion accumulators: exponents, integrands, reports."""

import math

import numpy as np
import pytest

import ehd
from ehd import (
    BesovParams,
    BlowUpSuspected,
    RealField,
    State,
    StepControl,
    VectorField,
)

INF = math.inf


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def zero_field(grid):
    return RealField(grid, np.zeros((grid.n,) * 3))


def shear_state(grid, amplitude=1.0):
    """u = (a sin x2, 0, 0): a closed-form workhorse for the integrands."""
    u = VectorField(
        RealField(grid, full(grid, amplitude * np.sin(grid.y))),
        zero_field(grid),
        zero_field(grid),
    )
    return State(u=u, v=zero_field(grid), w=zero_field(grid))


class TestMakeAccumulator:
    def test_velocity_family_exponents(self):
        assert ehd.make_accumulator("PS_u", INF).q == pytest.approx(2.0)
        assert ehd.make_accumulator("PS_u", 6.0).q == pytest.approx(4.0)

    def test_gradient_family_exponents(self):
        assert ehd.make_accumulator("PS_grad_u", 3.0).q == pytest.approx(2.0)
        assert ehd.make_accumulator("PS_grad_u", INF).q == pytest.approx(1.0)

    def test_anisotropic_reduces_at_p_infinity(self):
        acc = ehd.make_accumulator("BESOV_ANISO", INF)
        assert acc.q == pytest.approx(1.0)
        assert acc.r == INF

    def test_anisotropic_summation_exponent(self):
        acc = ehd.make_accumulator("BESOV_ANISO", 3.0)
        assert acc.r == pytest.approx(2.0)
        assert acc.q == pytest.approx(2.0)

    def test_vorticity_kind(self):
        acc = ehd.make_accumulator("BKM")
        assert acc.q == 1.0 and acc.p == INF

    def test_out_of_range_exponents_cite_the_strict_bound(self):
        with pytest.raises(ValueError, match="3 < p"):
            ehd.make_accumulator("PS_u", 3.0)
        with pytest.raises(ValueError, match="3/2 < p"):
            ehd.make_accumulator("PS_grad_u", 1.5)
        with pytest.raises(ValueError, match="3/2 < p"):
            ehd.make_accumulator("BESOV_ANISO", 1.0)
        with pytest.raises(ValueError, match="must be inf"):
            ehd.make_accumulator("BKM", 4.0)

    def test_scaling_relation_closure(self):
        for p in (3.0001, 4.0, 6.0, 17.3, INF):
            assert ehd.scaling_defect(ehd.make_accumulator("PS_u", p)) <= 1e-12
        for p in (1.6, 2.0, 3.0, 7.5, INF):
            assert ehd.scaling_defect(ehd.make_accumulator("PS_grad_u", p)) <= 1e-12
            assert ehd.scaling_defect(ehd.make_accumulator("BESOV_ANISO", p)) <= 1e-12


def per_kind_exponents(kind, p):
    """q, r and the scaling defect by each kind's own formula, written out."""
    if kind == "BKM":
        return 1.0, None, 0.0
    if kind == "PS_u":
        q = 2.0 / (1.0 - 3.0 / p)
        return q, None, abs(2.0 / q + 3.0 / p - 1.0)
    q = 2.0 / (2.0 - 3.0 / p)
    r = 2.0 * p / 3.0 if kind == "BESOV_ANISO" else None
    return q, r, abs(2.0 / q + 3.0 / p - 2.0)


class TestScalingRule:
    """One target per family (1 for PS_u, 2 otherwise, BKM its p = inf
    member) gives each kind's exponents and defect bit for bit."""

    @pytest.mark.parametrize("kind", [k.value for k in ehd.CriterionKind])
    @pytest.mark.parametrize("p", [1.6, 2.0, 3.5, 6.0, 12.0, INF])
    def test_exponents_and_defect_are_the_per_kind_formulas(self, kind, p):
        admissible = {"BKM": p == INF, "PS_u": p > 3.0}.get(kind, p > 1.5)
        if not admissible:
            with pytest.raises(ValueError):
                ehd.make_accumulator(kind, p)
            return
        acc = ehd.make_accumulator(kind, p)
        q, r, defect = per_kind_exponents(kind, p)
        assert acc.q.hex() == q.hex()
        assert (acc.r is None and r is None) or acc.r.hex() == r.hex()
        assert ehd.scaling_defect(acc).hex() == defect.hex()


class TestObserve:
    def test_constant_vorticity_integrates_linearly(self, grid16):
        s = shear_state(grid16)  # |omega| = |cos x2|, sup = 1
        acc = ehd.make_accumulator("BKM")
        ehd.observe(acc, s, 0.0)
        for _ in range(10):
            ehd.observe(acc, s, 0.05)
        assert acc.integral == pytest.approx(0.5, rel=1e-12)
        assert acc.last_value == pytest.approx(1.0, rel=1e-12)

    def test_horizontal_block_of_shear(self, grid16):
        """u = (sin x2, 0, 0) has block (0, cos x2, 0, 0), magnitude |cos x2|."""
        s = shear_state(grid16)
        block = ehd.horizontal_block_magnitude(s)
        expected = np.abs(full(grid16, np.cos(grid16.y)))
        assert np.abs(block.samples - expected).max() < 1e-12

    def test_anisotropic_integrand_matches_direct_engine_call(self, grid16):
        s = shear_state(grid16)
        acc = ehd.make_accumulator("BESOV_ANISO", INF)
        value = ehd.instantaneous_quantity(acc, s)
        direct = ehd.besov_norm(
            ehd.forward_transform(ehd.horizontal_block_magnitude(s)),
            BesovParams(0.0, INF, INF),
        )
        assert value == pytest.approx(direct, rel=1e-14)
        # and the vorticity integrand of the same state is exactly 1
        bkm = ehd.make_accumulator("BKM")
        assert ehd.instantaneous_quantity(bkm, s) == pytest.approx(1.0)

    def test_zero_state_keeps_all_integrals_zero(self, grid16):
        s = State(u=VectorField(zero_field(grid16), zero_field(grid16), zero_field(grid16)),
                  v=zero_field(grid16), w=zero_field(grid16))
        for kind, p in (("BKM", INF), ("PS_u", 6.0), ("PS_grad_u", 2.0), ("BESOV_ANISO", 2.0)):
            acc = ehd.make_accumulator(kind, p)
            ehd.observe(acc, s, 0.0)
            ehd.observe(acc, s, 0.1)
            assert acc.integral == 0.0
            assert acc.last_value == 0.0

    def test_integral_is_nondecreasing_along_a_run(self, grid16):
        accs = [ehd.make_accumulator(k, p) for k, p in
                (("BKM", INF), ("PS_u", 4.0), ("PS_grad_u", 2.0), ("BESOV_ANISO", 2.0))]
        history = {id(a): [] for a in accs}
        def watch(state, _, dt):
            for a in accs:
                ehd.observe(a, state, dt)
                history[id(a)].append(a.integral)
        ehd.run(ehd.charged_shear(grid16), StepControl(dt=2e-3, t_end=0.02), hooks=[watch])
        for a in accs:
            series = history[id(a)]
            assert all(b >= a_ for a_, b in zip(series, series[1:]))

    def test_non_finite_integrand_signals_blow_up(self, grid16):
        s = shear_state(grid16)
        # BKM reads the snapshot's cached |omega|, streamed from the
        # coefficients; the inf goes where it reads.
        s.omega_magnitude.samples[0, 0, 0] = np.inf
        acc = ehd.make_accumulator("BKM")
        with pytest.raises(BlowUpSuspected, match="non-finite"):
            ehd.observe(acc, s, 0.0)

    def test_threshold_crossing_records_time(self, grid16):
        s = shear_state(grid16)
        acc = ehd.make_accumulator("BKM", threshold=0.4)
        ehd.observe(acc, s, 0.0)
        t = 0.0
        while acc.crossed_at is None and t < 1.0:
            t += 0.1
            s = State(u=s.u, v=s.v, w=s.w, t=t, step_index=s.step_index + 1)
            ehd.observe(acc, s, 0.1)
        assert acc.crossed_at == pytest.approx(0.4, abs=0.1)


class TestQuadratureConvergence:
    def test_integrals_converge_at_trapezoid_order_on_taylor_green(self, grid16):
        """Successive dt halvings shrink the quadrature error of every
        monitor; trapezoid order shows up as difference ratios near 4."""
        kinds = (("BKM", INF), ("PS_u", 6.0), ("PS_grad_u", 2.0), ("BESOV_ANISO", 2.0))
        finals = []
        for dt in (2e-3, 1e-3, 5e-4):
            accs = [ehd.make_accumulator(k, p) for k, p in kinds]
            def watch(state, _, step_dt, accs=accs):
                for a in accs:
                    ehd.observe(a, state, step_dt)
            ehd.run(ehd.taylor_green(grid16), StepControl(dt=dt, t_end=0.04),
                    hooks=[watch])
            finals.append([a.integral for a in accs])
        for i, (kind, _) in enumerate(kinds):
            coarse_jump = abs(finals[0][i] - finals[1][i])
            fine_jump = abs(finals[1][i] - finals[2][i])
            assert fine_jump <= coarse_jump / 2.0, kind


class TestReductionAtInfinity:
    def test_anisotropic_matches_directly_built_sup_accumulator(self, grid16):
        """At p = inf the anisotropic monitor is the plain sup-band integral."""
        acc = ehd.make_accumulator("BESOV_ANISO", INF)
        direct = {"last": None, "integral": 0.0}
        mismatch = []

        def watch(state, _, dt):
            ehd.observe(acc, state, dt)
            value = ehd.besov_norm(
                ehd.forward_transform(ehd.horizontal_block_magnitude(state)),
                BesovParams(0.0, INF, INF),
            )
            if direct["last"] is not None and dt > 0:
                direct["integral"] += 0.5 * dt * (direct["last"] + value)
            direct["last"] = value
            mismatch.append(abs(direct["integral"] - acc.integral))

        s0 = ehd.random_smooth(grid16, seed=9, energy=1.0, peak_wavenumber=2.0)
        ehd.run(s0, StepControl(dt=2e-3, t_end=0.02), hooks=[watch])
        assert max(mismatch) <= 1e-12


class TestReport:
    def test_crosser_ranked_first(self):
        a = ehd.make_accumulator("BKM", threshold=1.0)
        a.crossed_at = 0.3
        b = ehd.make_accumulator("PS_u", 6.0, threshold=100.0)
        rep = ehd.report([b, a])
        assert rep.ranking[0] == "BKM"

    def test_completed_run_reports_no_crossings(self, grid16):
        accs = [ehd.make_accumulator(k, p) for k, p in
                (("BKM", INF), ("PS_u", 6.0))]
        def watch(state, _, dt):
            for acc in accs:
                ehd.observe(acc, state, dt)
        result = ehd.run(ehd.charged_shear(grid16), StepControl(dt=2e-3, t_end=0.01),
                         hooks=[watch])
        rep = ehd.report(accs)
        for row in rep.rows:
            assert row["crossed_at"] is None
            assert math.isfinite(row["integral"])

    def test_rows_serialize_infinities_as_strings(self):
        rep = ehd.report([ehd.make_accumulator("BKM")])
        assert rep.rows[0]["p"] == "inf"
        import json

        json.dumps(rep.rows)

    def test_sup_band_and_vorticity_series_side_by_side(self, grid16):
        """Both integrand series are recorded for comparison; no inequality
        is asserted between them (the comparison is diagnostic only)."""
        bkm = ehd.make_accumulator("BKM")
        aniso = ehd.make_accumulator("BESOV_ANISO", INF)
        series = {"BKM": [], "BESOV_ANISO": []}
        def watch(state, _, dt):
            for acc in (bkm, aniso):
                ehd.observe(acc, state, dt)
                series[acc.kind.value].append(acc.last_integrand)
        ehd.run(ehd.random_smooth(grid16, seed=3, energy=1.0, peak_wavenumber=2.0),
                StepControl(dt=2e-3, t_end=0.01), hooks=[watch])
        assert len(series["BKM"]) == len(series["BESOV_ANISO"]) > 1
        assert all(math.isfinite(x) for pair in zip(*series.values()) for x in pair)
        rep = ehd.report([bkm, aniso])
        assert [row["kind"] for row in rep.rows] == ["BKM", "BESOV_ANISO"]  # must be strictly JSON-serializable
