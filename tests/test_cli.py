"""Command-line interface: exit codes, outputs, and subcommands."""

import csv
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import ehd
from ehd.cli import BESOV_FIELDS, _build_initial_state, _build_parser, _series_keys, main
from ehd.initial_conditions import PRESETS

PI = math.pi


def full(grid, values):
    return np.ascontiguousarray(np.broadcast_to(values, (grid.n,) * 3), dtype=float)


def write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


def tg_config(tmp_path, t_end=0.02, extra=""):
    return write_config(
        tmp_path,
        f"grid_n = 16\nt_end = {t_end}\ninitial_condition = taylor_green\n"
        f"output_dir = {tmp_path}\n{extra}",
    )


def make_state(grid, ux=None, v=None, w=None):
    zeros = np.zeros((grid.n,) * 3)
    return ehd.State(
        u=ehd.VectorField(
            ehd.RealField(grid, ux if ux is not None else zeros.copy()),
            ehd.RealField(grid, zeros.copy()),
            ehd.RealField(grid, zeros.copy()),
        ),
        v=ehd.RealField(grid, v if v is not None else zeros.copy()),
        w=ehd.RealField(grid, w if w is not None else zeros.copy()),
    )


def huge_config(tmp_path, extra=""):
    """A restart from u_x = 1e160 sin(y), v = w = 1 at 16^3: finite, but its
    squares overflow."""
    grid = ehd.Grid(16)
    huge = make_state(
        grid,
        ux=full(grid, 1e160 * np.sin(grid.y)),
        v=np.ones((16,) * 3),
        w=np.ones((16,) * 3),
    )
    ckpt = tmp_path / "huge.ehds"
    ehd.write_checkpoint(ckpt, huge)
    return write_config(
        tmp_path,
        f"t_end = 0.01\ninitial_condition = from_checkpoint(path={ckpt})\n"
        f"dt_min = 1e-300\noutput_dir = {tmp_path}\n{extra}",
    )


class TestRunCommand:
    def test_completed_run_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        code = main(["run", tg_config(tmp_path)])
        assert code == 0
        for name in ("series.csv", "audit.csv", "energy.csv", "report.json", "final.ehds"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "status: completed" in out
        assert "spectral tail fraction" in out

    def test_energy_series_tracks_analytic_decay(self, tmp_path):
        main(["run", tg_config(tmp_path, t_end=0.05)])
        with open(tmp_path / "energy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 10
        for row in rows:
            t = float(row["t"])
            kinetic = float(row["kinetic_energy"])
            assert kinetic == pytest.approx(4.0 * PI**3 * math.exp(-4.0 * t), rel=1e-6)

    def test_series_csv_has_contracted_columns(self, tmp_path):
        main(["run", tg_config(tmp_path)])
        with open(tmp_path / "series.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "t", "dt", "bkm_integrand", "bkm_integral", "ps_u_p", "ps_u_integral",
            "ps_gradu_integral", "besov_aniso_integrand", "besov_aniso_integral",
        ]

    def test_audit_csv_has_contracted_columns(self, tmp_path):
        main(["run", tg_config(tmp_path)])
        with open(tmp_path / "audit.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "t", "charge_identity_residual", "velocity_margin", "positivity_term",
            "ls_ratio", "Y", "gn_ratio_L4", "gn_ratio_L3",
        ]

    def test_checkpoint_cadence(self, tmp_path):
        main(["run", tg_config(tmp_path, extra="checkpoint_every = 5\ndt = 2e-3\n")])
        cadenced = sorted(tmp_path.glob("state_*.ehds"))
        assert cadenced, "expected cadenced checkpoints"
        state = ehd.read_checkpoint(cadenced[0])
        assert state.step_index % 5 == 0

    def test_final_checkpoint_round_trips(self, tmp_path):
        main(["run", tg_config(tmp_path)])
        state = ehd.read_checkpoint(tmp_path / "final.ehds")
        report = json.loads((tmp_path / "report.json").read_text())
        assert ehd.state_checksum(state) == report["state_checksum"]

    @pytest.fixture
    def checkpoint_writes(self, monkeypatch):
        """The names of the files ehd.cli writes with write_checkpoint."""
        names = []
        write_checkpoint = ehd.cli.write_checkpoint

        def record(path, state):
            names.append(Path(path).name)
            write_checkpoint(path, state)

        monkeypatch.setattr(ehd.cli, "write_checkpoint", record)
        return names

    def test_final_state_is_written_once(self, tmp_path, checkpoint_writes):
        """When the last step was checkpointed, final.ehds is a copy of that
        file, byte for byte what write_checkpoint makes of the final state."""
        main(["run", tg_config(tmp_path, extra="checkpoint_every = 5\ndt = 2e-3\n")])
        assert json.loads((tmp_path / "report.json").read_text())["steps"] == 10
        assert checkpoint_writes == ["state_00000005.ehds", "state_00000010.ehds"]
        final = (tmp_path / "final.ehds").read_bytes()
        assert final == (tmp_path / "state_00000010.ehds").read_bytes()
        ehd.write_checkpoint(tmp_path / "again.ehds", ehd.read_checkpoint(tmp_path / "final.ehds"))
        assert final == (tmp_path / "again.ehds").read_bytes()

    @pytest.mark.parametrize("extra, copied", [("", False),
                                               ("checkpoint_every = 5\ndt = 2e-3\n", True)])
    def test_final_payload_is_hashed_once(self, tmp_path, monkeypatch, extra, copied):
        """The run's state_checksum, the write of final.ehds and, when the
        last step was checkpointed, that checkpoint's write make one CRC32
        pass over the final payload: the snapshot keeps its CRC."""
        crc32, headers = zlib.crc32, []

        def counted(data, value=0):  # a pass hashes the header's bytes first
            headers.append(data if isinstance(data, bytes) else None)
            return crc32(data, value)

        monkeypatch.setattr(zlib, "crc32", counted)
        assert main(["run", tg_config(tmp_path, extra=extra)]) == 0
        final_bytes = (tmp_path / "final.ehds").read_bytes()
        final = ehd.read_checkpoint(tmp_path / "final.ehds")
        assert headers.count(ehd.checkpoint._header(final)) == 1
        assert (final_bytes == (tmp_path / "state_00000010.ehds").read_bytes()
                if copied else not list(tmp_path.glob("state_*.ehds")))
        report = json.loads((tmp_path / "report.json").read_text())
        assert ehd.state_checksum(final) == report["state_checksum"]
        assert struct.pack("<I", int(report["state_checksum"], 16)) == final_bytes[-4:]

    def test_hook_stopped_before_its_write_gets_a_fresh_final_state(
        self, tmp_path, monkeypatch, checkpoint_writes
    ):
        observe = ehd.criteria.observe

        def stop_at_step_10(acc, state, dt):
            if state.step_index == 10:
                raise ehd.BlowUpSuspected("stopped before the step-10 checkpoint (test)")
            observe(acc, state, dt)

        monkeypatch.setattr(ehd.criteria, "observe", stop_at_step_10)
        assert main(["run", tg_config(tmp_path, extra="checkpoint_every = 5\ndt = 2e-3\n")]) == 2
        assert checkpoint_writes == ["state_00000005.ehds", "final.ehds"]
        report = json.loads((tmp_path / "report.json").read_text())
        final = ehd.read_checkpoint(tmp_path / "final.ehds")
        assert final.step_index == report["steps"] == 10
        assert ehd.state_checksum(final) == report["state_checksum"]

    def test_failed_report_write_keeps_old_report_and_leaves_no_temporary(
        self, tmp_path, monkeypatch
    ):
        config = tg_config(tmp_path)
        assert main(["run", config]) == 0
        old = (tmp_path / "report.json").read_bytes()
        write_atomically = ehd.cli.write_atomically

        def half_report_then_fail(path, blocks):
            if path.name != "report.json":
                return write_atomically(path, blocks)

            def stream():
                (text,) = blocks
                yield text[: len(text) // 2]
                raise OSError("disk full")

            return write_atomically(path, stream())

        monkeypatch.setattr(ehd.cli, "write_atomically", half_report_then_fail)
        assert main(["run", config]) != 0
        assert (tmp_path / "report.json").read_bytes() == old
        assert not list(tmp_path.glob(".*"))

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "t_end = 0.1\nt_end = 0.2\n"
                                      "initial_condition = taylor_green\n")
        code = main(["run", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("EHD-E1:")
        assert "duplicate" in err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "EHD-E1:" in capsys.readouterr().err

    def test_dt_min_above_cfl_limit_exits_one(self, tmp_path, capsys):
        """Taylor-Green speeds give a CFL step around 0.16 on a 16^3 grid.
        The run stops at its t = 0 check, before any output is made."""
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, "grid_n = 16\nt_end = 0.02\n"
                                      "initial_condition = taylor_green\n"
                                      f"dt = 0.25\ndt_min = 0.2\noutput_dir = {out_dir}\n")
        code = main(["run", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("EHD-E1: dt_min=2.000e-01 exceeds the CFL step limit 1.")
        assert err.endswith(" at t=0; lower dt_min or the initial speeds\n")
        assert err.count("\n") == 1
        assert not out_dir.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exits_two(self, tmp_path, capsys):
        code = main(["run", huge_config(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "EHD-E2:" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "blow_up_suspected"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_seen_by_an_observer_exits_two(self, tmp_path, capsys):
        """The anisotropic criterion transforms the overflowing gradient block
        at t = 0; its NonFiniteFieldError is a suspected blow-up."""
        path = huge_config(tmp_path, "criterion = BESOV_ANISO, 2, auto\n")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("EHD-E2: blow-up suspected: non-finite sample inf ")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "blow_up_suspected"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_squares_leave_the_maxima_finite(self, tmp_path, capsys):
        """|u| = 1e160 |sin y| and |omega| = 1e160 |cos y|: their squares
        overflow, yet the report's maxima are finite.  The run stops at
        t = 0, before the ledger audits anything, and the audit block says
        so with NaN instead of passing values."""
        assert main(["run", huge_config(tmp_path, "criterion = BESOV_ANISO, 2, auto\n")]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        for name in ("u", "omega"):
            assert report["linf"][name]["value"] == pytest.approx(1e160, rel=1e-12)
        out = capsys.readouterr().out
        assert "max |u| = 1e+160" in out and "max |omega| = 1e+160" in out
        audit = report["audit"]
        for key in ("max_charge_identity_residual", "min_velocity_margin",
                    "max_margin_vs_coupling_mismatch", "min_charge_value"):
            assert audit[key] == "nan"
        assert "velocity margin min nan, min charge nan" in out

    def test_negative_charges_print_the_audit_flags(self, tmp_path, capsys):
        """v + w = -2 < 0 makes the coupling term, and so the decay margin,
        negative: a genuine flag, printed after the audit line."""
        grid = ehd.Grid(16)
        state = make_state(grid, v=full(grid, -1.0 + 0.5 * np.sin(grid.x)),
                           w=full(grid, -1.0 + 0.5 * np.sin(grid.y)))
        ckpt = tmp_path / "negative.ehds"
        ehd.write_checkpoint(ckpt, state)
        path = write_config(tmp_path, f"t_end = 5e-3\noutput_dir = {tmp_path}\n"
                                      f"initial_condition = from_checkpoint(path={ckpt})\n")
        assert main(["run", path]) == 0
        flags = json.loads((tmp_path / "report.json").read_text())["audit"]["flags"]
        assert flags and all("velocity decay margin" in f for f in flags)
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("audit flag: ")]
        assert printed == [f"audit flag: {f}" for f in flags]

    @pytest.mark.parametrize("case, diagnostic", [
        ("divergent", "initial velocity is not divergence-free: max |div u| = "),
        ("non_neutral", "initial charges are not neutral: mean(v - w) = 1.000e+00\n"),
        ("non_finite", "non-finite values in field u.x at t=0.000000 (step 0)\n"),
    ], ids=["divergent", "non_neutral", "non_finite"])
    def test_invariant_violation_exits_three(self, case, diagnostic, tmp_path, capsys):
        """A rejected initial state exits 3 before any output is made.  The
        check comes before the dt_min check and the audit ledger: the
        potential of a non-neutral state would raise there (exit 1)."""
        grid = ehd.Grid(16)
        ux = full(grid, np.sin(grid.x))  # div u != 0
        nan_at_origin = np.where(grid.x + grid.y + grid.z == 0.0, np.nan, 0.0)
        state = {
            "divergent": make_state(grid, ux=ux),
            "non_neutral": make_state(grid, v=np.ones((16,) * 3)),
            "non_finite": make_state(grid, ux=full(grid, nan_at_origin)),
        }[case]
        ckpt = tmp_path / "initial.ehds"
        ehd.write_checkpoint(ckpt, state)
        out_dir = tmp_path / "out"
        path = write_config(
            tmp_path,
            f"t_end = 0.01\ninitial_condition = from_checkpoint(path={ckpt})\n"
            f"output_dir = {out_dir}\n",
        )
        code = main(["run", path])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"EHD-E3: initial state rejected: {diagnostic}")
        assert err.count("\n") == 1
        assert not out_dir.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["initial.ehds", "run.cfg"]

    def test_run_validates_the_initial_state_once(self, tmp_path, monkeypatch):
        """`run` validates the initial state before its t = 0 hook, and
        `cmd_run` does not validate it again."""
        bound = ehd.solver._divergence_bound
        calls = []

        def counted(state):
            calls.append(state.t)
            return bound(state)

        run = ehd.cli.run
        at_hook = []

        def mark(state, derived, dt):
            at_hook.append(len(calls))

        def marked_run(state0, control, hooks=()):
            return run(state0, control, hooks=[mark, *hooks])

        monkeypatch.setattr(ehd.solver, "_divergence_bound", counted)
        monkeypatch.setattr(ehd.cli, "run", marked_run)
        assert main(["run", tg_config(tmp_path)]) == 0
        assert at_hook[0] == 1

    def test_run_time_invariant_violation_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ehd.solver, "MEAN_DRIFT_TOL", -1.0)
        path = write_config(
            tmp_path,
            f"grid_n = 16\nt_end = 0.01\ninitial_condition = charged_shear\n"
            f"output_dir = {tmp_path}\n",
        )
        assert main(["run", path]) == 3
        assert capsys.readouterr().err.startswith("EHD-E3: invariant violation: ")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "invariant_violation"

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "EHD-E1:" in capsys.readouterr().err

    def test_duplicate_kind_uses_first_for_series_columns(self, tmp_path):
        path = tg_config(
            tmp_path,
            extra="criterion = PS_u, 6, auto\ncriterion = PS_u, 12, auto\n",
        )
        assert main(["run", path]) == 0
        with open(tmp_path / "series.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["ps_u_p"]) == 6.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["p"] for r in report["criteria"]] == [6.0, 12.0]


    def test_one_series_per_accumulator(self, tmp_path, capsys):
        path = tg_config(
            tmp_path,
            t_end=0.005,
            extra="criterion = PS_u, 6, auto\ncriterion = PS_u, 12, auto\n",
        )
        assert main(["run", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        series = report["criteria_series"]
        assert sorted(series) == ["PS_u", "PS_u_p12"]
        times = [float(r["t"]) for r in _csv_rows(tmp_path / "series.csv")]
        for key in series:
            assert series[key]["t"] == times
            assert len(set(series[key]["t"])) == len(times) == report["steps"] + 1
        assert series["PS_u"]["integral"][-1] == report["criteria"][0]["integral"]
        assert series["PS_u_p12"]["integral"][-1] == report["criteria"][1]["integral"]
        capsys.readouterr()
        assert main(["report", str(tmp_path / "report.json")]) == 0
        written = sorted(p.name for p in tmp_path.glob("report_criterion_*.csv"))
        assert written == ["report_criterion_ps_u.csv", "report_criterion_ps_u_p12.csv"]
        for name in written:
            assert len(_csv_rows(tmp_path / name)) == len(times)

    def test_auto_threshold_stays_unset_while_the_integral_is_zero(self, tmp_path):
        """A quiescent, uniformly charged restart: every criterion integral
        is exactly 0 at 10% of the horizon, so no auto threshold is set."""
        grid = ehd.Grid(16)
        ones = np.ones((16,) * 3)
        ckpt = tmp_path / "rest.ehds"
        ehd.write_checkpoint(ckpt, make_state(grid, v=ones, w=ones.copy()))
        path = write_config(tmp_path, f"t_end = 0.002\ninitial_condition = "
                                      f"from_checkpoint(path={ckpt})\noutput_dir = {tmp_path}\n")
        assert main(["run", path]) == 0
        rows = json.loads((tmp_path / "report.json").read_text())["criteria"]
        assert len(rows) == 4
        assert [(row["integral"], row["threshold"]) for row in rows] == [(0.0, None)] * 4

    def test_series_keys_stay_distinct(self):
        accs = [ehd.make_accumulator(kind, p) for kind, p in (
            ("BKM", math.inf), ("PS_u", 6.0), ("PS_u", 12.0), ("PS_u", 6.0),
            ("PS_u", 6.0), ("BKM", math.inf))]
        assert _series_keys(accs) == [
            "BKM", "PS_u", "PS_u_p12", "PS_u_p6", "PS_u_4", "BKM_pinf"]


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBesovCommand:
    def test_single_mode_prints_one(self, tmp_path, capsys):
        grid = ehd.Grid(16)
        state = make_state(grid, v=full(grid, np.cos(4 * grid.x)))
        ckpt = tmp_path / "cos4.ehds"
        ehd.write_checkpoint(ckpt, state)
        code = main(["besov", str(ckpt), "--s", "0", "--p", "inf", "--r", "inf",
                     "--field", "v"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(1.0, abs=1e-12)

    def test_velocity_magnitude_default_field(self, tmp_path, capsys):
        grid = ehd.Grid(16)
        state = make_state(grid, ux=full(grid, 1.0 + 0.5 * np.cos(2 * grid.x)))
        ckpt = tmp_path / "umag.ehds"
        ehd.write_checkpoint(ckpt, state)
        code = main(["besov", str(ckpt), "--s", "0", "--p", "inf", "--r", "inf"])
        assert code == 0
        # |u| = 1 + cos(2 x1)/2: the oscillating pair sits in one band, sup 1/2
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", list(BESOV_FIELDS))
    def test_every_field_choice_evaluates(self, name, tmp_path, capsys):
        grid = ehd.Grid(16)
        ckpt = tmp_path / "cs.ehds"
        ehd.write_checkpoint(ckpt, ehd.charged_shear(grid))
        assert main(["besov", str(ckpt), "--s", "0", "--p", "2", "--r", "2",
                     "--field", name]) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    @pytest.mark.parametrize("made_by_run", [False, True])
    @pytest.mark.parametrize("s, p, r", [(0.0, 2.0, 2.0), (1.0, math.inf, math.inf),
                                         (-0.5, 3.0, 1.0)])
    def test_prints_the_norm_of_the_forward_transform(self, made_by_run, s, p, r, tmp_path,
                                                      capsys):
        """Every field prints `besov_norm` of its `forward_transform`, as
        repr prints it, on a user state and on one a run made."""
        state = ehd.random_smooth(ehd.Grid(16), seed=7)
        if made_by_run:
            state = ehd.run(state, ehd.StepControl(dt=1e-3, t_end=2e-3)).final_state
        ckpt = tmp_path / "state.ehds"
        ehd.write_checkpoint(ckpt, state)
        read = ehd.read_checkpoint(ckpt)
        for name, field in BESOV_FIELDS.items():
            assert main(["besov", str(ckpt), "--s", str(s), "--p", str(p), "--r", str(r),
                         "--field", name]) == 0
            want = ehd.besov_norm(ehd.forward_transform(field(read)), ehd.BesovParams(s, p, r))
            assert capsys.readouterr().out == f"{want!r}\n", name

    def test_default_field_is_the_first_of_the_table(self):
        args = _build_parser().parse_args(["besov", "c.ehds", "--s", "0", "--p", "2", "--r", "2"])
        assert args.field == next(iter(BESOV_FIELDS)) == "umag"

    def test_missing_checkpoint_exits_one(self, tmp_path, capsys):
        code = main(["besov", str(tmp_path / "none.ehds"),
                     "--s", "0", "--p", "2", "--r", "2"])
        assert code == 1
        assert "EHD-E1:" in capsys.readouterr().err


class TestAuditCommand:
    def test_summarizes_run_directory(self, tmp_path, capsys):
        # No PS_u or BESOV_ANISO criterion: their integrals read n/a.
        main(["run", tg_config(tmp_path, extra="criterion = BKM, inf\n"
                                                "criterion = PS_grad_u, 2\n")])
        capsys.readouterr()
        code = main(["audit", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max charge-identity residual" in out
        assert "criteria integrals at end" in out
        bkm, grad = (row["integral"] for row in
                     json.loads((tmp_path / "report.json").read_text())["criteria"])
        assert out.splitlines()[-1] == (
            f"criteria integrals at end: BKM={bkm!r}, PS_u=n/a, "
            f"PS_grad_u={grad!r}, BESOV_ANISO=n/a"
        )

    def test_directory_without_series_csv_summarizes_the_audit(self, tmp_path, capsys):
        main(["run", tg_config(tmp_path)])
        (tmp_path / "series.csv").unlink()
        capsys.readouterr()
        assert main(["audit", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "criteria integrals at end" not in out
        assert out.splitlines()[-1].startswith("final Y:")

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        code = main(["audit", str(tmp_path / "empty")])
        assert code == 1
        assert "EHD-E1:" in capsys.readouterr().err

    def test_audit_csv_without_rows_exits_one(self, tmp_path, capsys):
        (tmp_path / "audit.csv").write_text("t,charge_identity_residual\n")
        assert main(["audit", str(tmp_path)]) == 1
        assert "has no data rows" in capsys.readouterr().err

    def test_default_file_names_are_the_run_config_names(self):
        args = _build_parser().parse_args(["audit", "run"])
        assert (args.audit_csv, args.series_csv) == (ehd.RunConfig.audit_csv,
                                                     ehd.RunConfig.series_csv)


class TestReportCommand:
    def test_prints_table_and_emits_plot_data(self, tmp_path, capsys):
        main(["run", tg_config(tmp_path)])
        capsys.readouterr()
        code = main(["report", str(tmp_path / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "BKM" in out and "state checksum" in out
        plot = tmp_path / "report_criterion_bkm.csv"
        assert plot.exists()
        with open(plot, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "integrand", "integral"]
        assert len(rows) > 2

    def test_non_finite_integral_prints_inf(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / "random_smooth.json"
        report = json.loads(golden.read_text())
        report["criteria"][0]["integral"] = "inf"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(report["criteria"][0]["kind"]))
        assert "inf" in row.split()


    def test_file_that_is_not_a_report_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        for text, detail in (("{}", "missing key 'status'"), ("[1, 2]", "not a JSON object")):
            path.write_text(text)
            assert main(["report", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("EHD-E1:") and "not a run report" in err and detail in err


class TestRestartGrid:
    """A restart runs on its checkpoint's grid; an explicit grid_n must match."""

    @pytest.fixture
    def checkpoint16(self, tmp_path):
        path = tmp_path / "tg16.ehds"
        ehd.write_checkpoint(path, ehd.taylor_green(ehd.Grid(16)))
        return path

    def restart_config(self, tmp_path, ckpt, grid_line=""):
        return write_config(
            tmp_path,
            f"{grid_line}t_end = 0.001\ninitial_condition = from_checkpoint(path={ckpt})\n"
            f"output_dir = {tmp_path}\n",
        )

    @pytest.mark.parametrize("grid_line", ["", "grid_n = 16\n"])
    def test_report_echoes_the_checkpoint_grid(self, tmp_path, checkpoint16, grid_line):
        assert main(["run", self.restart_config(tmp_path, checkpoint16, grid_line)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["grid_n"] == 16

    def test_explicit_grid_other_than_the_checkpoint_is_rejected(
        self, tmp_path, checkpoint16, capsys
    ):
        code = main(["run", self.restart_config(tmp_path, checkpoint16, "grid_n = 64\n")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("EHD-E1:") and "grid_n = 64" in err and "16^3" in err
        assert not (tmp_path / "report.json").exists()


def preset_call(name):
    """The preset with a sample value for each required parameter."""
    _, types, required = PRESETS[name]
    sample = {int: "3", float: "1.5", str: "final.ehds"}
    args = ", ".join(f"{k}={sample[types[k]]}" for k in required)
    return f"{name}({args})" if args else name


class TestPresetTable:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_parses(self, name):
        cfg = ehd.parse_config(f"t_end = 0.1\ninitial_condition = {preset_call(name)}\n")
        assert cfg.initial_condition.name == name

    @pytest.mark.parametrize("name", sorted(set(PRESETS) - {"from_checkpoint"}))
    def test_every_builder_preset_builds_at_16(self, name):
        cfg = ehd.parse_config(
            f"grid_n = 16\nt_end = 0.1\ninitial_condition = {preset_call(name)}\n"
        )
        state = _build_initial_state(cfg)
        assert state.grid.n == 16
        ehd.validate_initial_state(state)


class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path):
        body = (
            "grid_n = 16\nt_end = 0.01\n"
            "initial_condition = random_smooth(seed=5, energy=1.0, peak_wavenumber=2)\n"
        )
        reports = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            path = write_config(d, body + f"output_dir = {d}\n")
            assert main(["run", path]) == 0
            data = json.loads((d / "report.json").read_text())
            data.pop("wall_clock")
            data["config"].pop("output_dir")
            reports.append(data)
        assert reports[0] == reports[1]
