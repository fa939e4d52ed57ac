"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy runs (Taylor-Green regression and the charged-layer runs
on the 32^3 grid) are shared through module-scoped fixtures.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

import ehd
from ehd import BesovParams, StepControl
from ehd.cli import main

PI = math.pi


def ok(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


@pytest.fixture(scope="module")
def grid32():
    return ehd.Grid(32)


@pytest.fixture(scope="module")
def tg_cli_run(tmp_path_factory):
    """Taylor-Green on 32^3 to t = 0.5 through the full CLI wiring, timed."""
    out = tmp_path_factory.mktemp("tg_acceptance")
    config = out / "run.cfg"
    config.write_text(
        f"grid_n = 32\nt_end = 0.5\ninitial_condition = taylor_green\n"
        f"output_dir = {out}\n"
    )
    t0 = time.monotonic()
    code = main(["run", str(config)])
    wall = time.monotonic() - t0
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    return {"dir": out, "wall": wall, "report": report}


class _ChargedInstrumentation:
    def __init__(self, state0, thresholds=None):
        self.accs = [
            ehd.make_accumulator("BKM", threshold=thresholds),
            ehd.make_accumulator("PS_u", 6.0, threshold=thresholds),
            ehd.make_accumulator("PS_grad_u", 2.0, threshold=thresholds),
            ehd.make_accumulator("BESOV_ANISO", 2.0, threshold=thresholds),
        ]
        self.reduction_acc = ehd.make_accumulator("BESOV_ANISO", math.inf)
        self.direct_last = None
        self.direct_integral = 0.0
        self.reduction_mismatch = 0.0
        self.ledger = ehd.AuditLedger.from_state(state0)
        self.margins = []
        self.div_max = 0.0
        self.mean_v0 = float(state0.v.samples.mean())
        self.mean_w0 = float(state0.w.samples.mean())
        self.mean_drift = 0.0
        self.residuals = []

    def __call__(self, state, _, dt):
        for acc in self.accs:
            ehd.observe(acc, state, dt)
        ehd.observe(self.reduction_acc, state, dt)
        value = ehd.besov_norm(
            ehd.forward_transform(ehd.horizontal_block_magnitude(state)),
            BesovParams(0.0, math.inf, math.inf),
        )
        if self.direct_last is not None and dt > 0:
            self.direct_integral += 0.5 * dt * (self.direct_last + value)
        self.direct_last = value
        self.reduction_mismatch = max(
            self.reduction_mismatch,
            abs(self.direct_integral - self.reduction_acc.integral),
        )

        record = self.ledger.update(state, dt)
        self.margins.append(record.velocity_margin)
        self.residuals.append(record.charge_identity_residual)
        div = ehd.backward_transform(ehd.divergence(state.u_hat))
        self.div_max = max(self.div_max, float(np.abs(div.samples).max()))
        self.mean_drift = max(
            self.mean_drift,
            abs(float(state.v.samples.mean()) - self.mean_v0),
            abs(float(state.w.samples.mean()) - self.mean_w0),
        )


@pytest.fixture(scope="module")
def charged_run(grid32):
    """Charged layers on 32^3 to t = 0.25 at dt = 1e-3, fully instrumented."""
    s0 = ehd.charged_shear(grid32)
    instr = _ChargedInstrumentation(s0, thresholds=1e6)
    report = ehd.run(s0, StepControl(dt=1e-3, t_end=0.25), hooks=[instr])
    assert report.status is ehd.RunStatus.COMPLETED
    return instr, report


@pytest.fixture(scope="module")
def charged_run_half(grid32):
    """Same run at dt = 5e-4, audit ledger only (for the quadrature-order check)."""
    s0 = ehd.charged_shear(grid32)
    ledger = ehd.AuditLedger.from_state(s0)
    residuals = []

    def watch(state, _, dt):
        residuals.append(ledger.update(state, dt).charge_identity_residual)

    report = ehd.run(s0, StepControl(dt=5e-4, t_end=0.25), hooks=[watch])
    assert report.status is ehd.RunStatus.COMPLETED
    return residuals


def test_criterion_1_taylor_green_regression(tg_cli_run, grid32):
    """32^3, t in [0, 0.5]: energy law to 1e-6, field error 1e-8, under 60 s."""
    assert tg_cli_run["wall"] <= 60.0, f"run took {tg_cli_run['wall']:.1f}s"

    with open(tg_cli_run["dir"] / "energy.csv", newline="") as fh:
        rows = [(float(r["t"]), float(r["kinetic_energy"])) for r in csv.DictReader(fh)]
    for target in (0.1, 0.25, 0.5):
        t, kinetic = min(rows, key=lambda row: abs(row[0] - target))
        assert abs(t - target) < 1e-3
        expected = 4.0 * PI**3 * math.exp(-4.0 * t)
        assert kinetic == pytest.approx(expected, rel=1e-6)

    final = ehd.read_checkpoint(tg_cli_run["dir"] / "final.ehds")
    exact = ehd.taylor_green_velocity(grid32, final.t)
    err = max(
        np.abs(a.samples - b.samples).max()
        for a, b in zip(final.u.components, exact.components)
    )
    assert err <= 1e-8
    assert final.t == pytest.approx(0.5, abs=1e-9)
    ok(1, f"Taylor-Green regression, field err {err:.2e}, {tg_cli_run['wall']:.0f}s")


def test_criterion_2_charge_energy_identity(charged_run, charged_run_half):
    """Exact charge balance: residual <= 1e-5 and trapezoid-order convergence."""
    instr, _ = charged_run
    base = instr.residuals[-1]
    assert max(instr.residuals) <= 1e-5
    fine = charged_run_half[-1]
    assert fine <= base / 3.0
    ok(2, f"charge identity residual {base:.2e}, halving ratio {base / fine:.2f}")


def test_criterion_3_velocity_potential_decay(charged_run):
    """Margin never below -1e-6 e0 and equals the coupling integral to 1e-5."""
    instr, _ = charged_run
    floor = -1e-6 * instr.ledger.e0_vel
    assert min(instr.margins) >= floor
    # mismatch normalized by the initial energy, and pointwise at the end
    assert instr.ledger.max_margin_mismatch <= 1e-5
    final_rel = abs(instr.margins[-1] - instr.ledger.d_coupling) / instr.ledger.d_coupling
    assert final_rel <= 1e-5
    ok(3, f"decay margin min {min(instr.margins):.2e}, "
          f"mismatch {instr.ledger.max_margin_mismatch:.2e} (final rel {final_rel:.2e})")


def test_criterion_4_structural_invariants(charged_run):
    """Divergence, charge means, and nonnegativity over the charged run."""
    instr, report = charged_run
    assert instr.div_max <= 1e-9
    assert instr.mean_drift <= 1e-10
    assert instr.ledger.min_charge >= -1e-8
    ok(4, f"div max {instr.div_max:.2e}, mean drift {instr.mean_drift:.2e}, "
          f"min charge {instr.ledger.min_charge:.3f}")


def test_criterion_5_littlewood_paley(grid32):
    """Partition of unity, reconstruction, and single-mode localization."""
    j_min, j_max = ehd.band_range(grid32)
    total = sum(ehd.band_weight(grid32, j) for j in range(j_min, j_max + 1))
    partition_defect = np.abs(total[grid32.block.kmag > 0] - 1.0).max()
    assert partition_defect <= 1e-12

    rng = np.random.Generator(np.random.Philox(key=555))
    worst = 0.0
    for _ in range(100):
        noise = ehd.RealField(grid32, rng.standard_normal((32,) * 3))
        F = ehd.forward_transform(noise)
        recon = sum(b.field.coeffs for b in ehd.decompose(F))
        expected = F.coeffs.copy()
        expected[0, 0, 0] = 0.0
        worst = max(worst, float(np.abs(recon - expected).max()))
    assert worst <= 1e-12

    coeffs = np.zeros(grid32.block.shape, dtype=complex)
    coeffs[4, 0, 0] = 0.5
    coeffs[-4, 0, 0] = 0.5
    F = ehd.SpectralField(grid32, coeffs)
    for band in ehd.decompose(F):
        if band.j == 2:
            np.testing.assert_array_equal(band.field.coeffs, F.coeffs)
        else:
            assert np.all(band.field.coeffs == 0)
    ok(5, f"partition defect {partition_defect:.2e}, reconstruction {worst:.2e}")


def test_criterion_6_bernstein_scaling(grid32):
    """Adjacent-band derivative constants agree within 15% over 100 trials."""
    r2 = ehd.bernstein_check(grid32, 2, k=1, p=2.0, q=math.inf, trials=100, seed=21)
    r3 = ehd.bernstein_check(grid32, 3, k=1, p=2.0, q=math.inf, trials=100, seed=22)
    spread = abs(r2.ratio_max - r3.ratio_max) / max(r2.ratio_max, r3.ratio_max)
    assert spread <= 0.15
    assert r2.two_sided_min > 0 and r3.two_sided_min > 0
    ok(6, f"band 2 vs 3 max-ratio spread {100 * spread:.1f}%")


def test_criterion_7_criteria_monitors(charged_run):
    """p = inf reduction, finite non-alarming integrals, exponent closure."""
    instr, report = charged_run
    assert instr.reduction_mismatch <= 1e-12

    for acc in instr.accs:
        assert math.isfinite(acc.integral)
        assert math.isfinite(acc.peak_integrand)
        assert acc.crossed_at is None  # thresholds were set, none alarmed

    checked = 0
    for p in (3.5, 4.0, 6.0, 12.0, math.inf):
        assert ehd.scaling_defect(ehd.make_accumulator("PS_u", p)) <= 1e-12
        checked += 1
    for p in (1.6, 2.0, 3.0, 8.0, math.inf):
        assert ehd.scaling_defect(ehd.make_accumulator("PS_grad_u", p)) <= 1e-12
        assert ehd.scaling_defect(ehd.make_accumulator("BESOV_ANISO", p)) <= 1e-12
        checked += 2
    ok(7, f"reduction mismatch {instr.reduction_mismatch:.2e}, "
          f"{checked} exponent closures")


def test_criterion_8_oracles():
    """Positivity term against fsum enumeration; scale-invariant ratios."""
    grid = ehd.Grid(16)
    rng = np.random.Generator(np.random.Philox(key=888))
    zeros = np.zeros((16,) * 3)
    worst = 0.0
    for _ in range(100):
        v = np.abs(rng.standard_normal((16,) * 3))
        w = np.abs(rng.standard_normal((16,) * 3))
        s = ehd.State(
            u=ehd.VectorField(*[ehd.RealField(grid, zeros.copy()) for _ in range(3)]),
            v=ehd.RealField(grid, v),
            w=ehd.RealField(grid, w),
        )
        got = ehd.positivity_term(s)
        brute = grid.cell_volume * math.fsum(
            ((v + w) * (v - w) ** 2).ravel().tolist()
        )
        worst = max(worst, abs(got - brute) / brute)
    assert worst <= 1e-12

    f = ehd.RealField(grid, 1.0 + 0.2 * rng.standard_normal((16,) * 3))
    f = ehd.backward_transform(ehd.forward_transform(f))
    r4, r3 = ehd.interpolation_ratios(f)
    s4, s3 = ehd.interpolation_ratios(ehd.RealField(grid, 7.3 * f.samples))
    assert s4 == pytest.approx(r4, rel=1e-12)
    assert s3 == pytest.approx(r3, rel=1e-12)
    ok(8, f"positivity oracle worst rel err {worst:.2e}")


def test_criterion_9_io_contracts(tmp_path):
    """Checkpoint CRC round trip, golden stability, and all four exit codes."""
    grid = ehd.Grid(16)
    state = ehd.random_smooth(grid, seed=77, energy=1.5, peak_wavenumber=2.0)
    path = tmp_path / "state.ehds"
    ehd.write_checkpoint(path, state)
    back = ehd.read_checkpoint(path)
    for a, b in zip((*state.u.components, state.v, state.w),
                    (*back.u.components, back.v, back.w)):
        assert np.array_equal(a.samples, b.samples)
    assert ehd.state_checksum(back) == ehd.state_checksum(state)

    # golden stability at fixed seed
    out = tmp_path / "golden_rerun"
    out.mkdir()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        cfg = out / "run.cfg"
        cfg.write_text(
            "grid_n = 16\nt_end = 0.02\n"
            "initial_condition = random_smooth(seed=11, energy=1.0, peak_wavenumber=2)\n"
        )
        assert main(["run", str(cfg)]) == 0
        produced = json.loads((out / "report.json").read_text())
        produced.pop("wall_clock")
        golden_path = os.path.join(os.path.dirname(__file__), "golden", "random_smooth.json")
        golden = json.loads(open(golden_path).read())
        assert produced == golden
    finally:
        os.chdir(cwd)

    # exit code 0: completed tiny run
    d0 = tmp_path / "ok"
    d0.mkdir()
    cfg0 = d0 / "run.cfg"
    cfg0.write_text(f"grid_n = 16\nt_end = 0.005\ninitial_condition = taylor_green\n"
                    f"output_dir = {d0}\n")
    assert main(["run", str(cfg0)]) == 0

    # exit code 1: invalid configuration
    cfg1 = tmp_path / "bad.cfg"
    cfg1.write_text("t_end = 0.1\ninitial_condition = taylor_green\ncriterion = PS_u, 3\n")
    assert main(["run", str(cfg1)]) == 1

    # exit code 2: blow-up suspected (finite but astronomically fast state)
    huge = ehd.State(
        u=ehd.VectorField(
            ehd.RealField(grid, full(grid, 1e160 * np.sin(grid.y))),
            ehd.RealField(grid, np.zeros((16,) * 3)),
            ehd.RealField(grid, np.zeros((16,) * 3)),
        ),
        v=ehd.RealField(grid, np.ones((16,) * 3)),
        w=ehd.RealField(grid, np.ones((16,) * 3)),
    )
    ckpt2 = tmp_path / "huge.ehds"
    ehd.write_checkpoint(ckpt2, huge)
    d2 = tmp_path / "blowup"
    d2.mkdir()
    cfg2 = d2 / "run.cfg"
    cfg2.write_text(f"t_end = 0.01\ninitial_condition = from_checkpoint(path={ckpt2})\n"
                    f"dt_min = 1e-300\noutput_dir = {d2}\n")
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg2)]) == 2

    # exit code 3: invariant violation (non-solenoidal checkpoint)
    skewed = ehd.State(
        u=ehd.VectorField(
            ehd.RealField(grid, full(grid, np.sin(grid.x))),
            ehd.RealField(grid, np.zeros((16,) * 3)),
            ehd.RealField(grid, np.zeros((16,) * 3)),
        ),
        v=ehd.RealField(grid, np.zeros((16,) * 3)),
        w=ehd.RealField(grid, np.zeros((16,) * 3)),
    )
    ckpt3 = tmp_path / "skewed.ehds"
    ehd.write_checkpoint(ckpt3, skewed)
    d3 = tmp_path / "invariant"
    d3.mkdir()
    cfg3 = d3 / "run.cfg"
    cfg3.write_text(f"t_end = 0.01\ninitial_condition = from_checkpoint(path={ckpt3})\n"
                    f"output_dir = {d3}\n")
    assert main(["run", str(cfg3)]) == 3

    ok(9, "checkpoint CRC, golden stability, exit codes 0/1/2/3")
