"""Command-line interface.

Subcommands: ``ehd run <config>``, ``ehd besov <ckpt> --s --p --r``,
``ehd audit <dir>``, ``ehd report <json>``.  Exit codes: 0 completed,
1 usage or configuration error, 2 blow-up suspected, 3 invariant violation.
Errors go to standard error with the machine-parsable prefix ``EHD-E<code>:``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import astuple
from pathlib import Path

from . import criteria as _criteria
from .audit import AuditLedger, kinetic_energy, potential_energy
from .checkpoint import CheckpointError, read_checkpoint, write_atomically, write_checkpoint
from .config import ConfigError, RunConfig, parse_config
from .initial_conditions import PRESETS
from .littlewood_paley import BesovParams, besov_norm
from .solver import (
    RunStatus,
    State,
    StepControl,
    _max_magnitude,
    cfl_limit,
    derive,
    run,
)
from .spectral import (
    Grid,
    VectorField,
    lp_norm,
    spectral_tail_fraction,
    vector_magnitude,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_INVARIANT = 3

REPORT_FORMAT_VERSION = 1

# The criteria columns of series.csv: each is filled from one attribute of the
# run's first accumulator of one kind, and left empty if the run has none.
SERIES_CRITERIA = {
    "bkm_integrand": ("BKM", "last_integrand"),
    "bkm_integral": ("BKM", "integral"),
    "ps_u_p": ("PS_u", "p"),
    "ps_u_integral": ("PS_u", "integral"),
    "ps_gradu_integral": ("PS_grad_u", "integral"),
    "besov_aniso_integrand": ("BESOV_ANISO", "last_integrand"),
    "besov_aniso_integral": ("BESOV_ANISO", "integral"),
}

SERIES_COLUMNS = ["t", "dt", *SERIES_CRITERIA]

AUDIT_COLUMNS = [
    "t",
    "charge_identity_residual",
    "velocity_margin",
    "positivity_term",
    "ls_ratio",
    "Y",
    "gn_ratio_L4",
    "gn_ratio_L3",
]

ENERGY_COLUMNS = ["t", "kinetic_energy", "potential_energy"]

# The fields of a checkpoint's state that `ehd besov --field` names; the first is the default.
BESOV_FIELDS = {
    "umag": lambda s: vector_magnitude(s.u),
    "ux": lambda s: s.u.x,
    "uy": lambda s: s.u.y,
    "uz": lambda s: s.u.z,
    "v": lambda s: s.v,
    "w": lambda s: s.w,
    "zeta": lambda s: s.zeta,
    "eta": lambda s: s.eta,
}

# The CSVs of `ehd run`: the config key of each file's name, and its header row.
CSV_HEADERS = {
    "series_csv": SERIES_COLUMNS,
    "audit_csv": AUDIT_COLUMNS,
    "energy_csv": ENERGY_COLUMNS,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


def _err(code: int, message: str) -> int:
    print(f"EHD-E{code}: {message}", file=sys.stderr)
    return code


def _build_parser() -> _Parser:
    parser = _Parser(prog="ehd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config", help="path to the key-value config file")

    p_besov = sub.add_parser("besov", help="Besov norm of a checkpoint field")
    p_besov.add_argument("checkpoint")
    p_besov.add_argument("--s", type=float, required=True, help="regularity index")
    p_besov.add_argument("--p", type=float, required=True, help="Lebesgue exponent (inf ok)")
    p_besov.add_argument("--r", type=float, required=True, help="summation exponent (inf ok)")
    p_besov.add_argument(
        "--field",
        default=next(iter(BESOV_FIELDS)),
        choices=list(BESOV_FIELDS),
        help="which stored field to evaluate (default: velocity magnitude)",
    )

    p_audit = sub.add_parser("audit", help="summarize audit/series CSVs from a run directory")
    p_audit.add_argument("directory")
    p_audit.add_argument("--audit-csv", default=RunConfig.audit_csv)
    p_audit.add_argument("--series-csv", default=RunConfig.series_csv)

    p_report = sub.add_parser("report", help="print a run report and emit plot-data CSVs")
    p_report.add_argument("report_json")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _err(EXIT_USAGE, str(exc))

    try:
        if args.command == "run":
            return cmd_run(parse_config(Path(args.config).read_text()))
        if args.command == "besov":
            return cmd_besov(args.checkpoint, args.s, args.p, args.r, args.field)
        if args.command == "audit":
            return cmd_audit(args.directory, args.audit_csv, args.series_csv)
        return cmd_report(args.report_json)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"EHD-E{EXIT_USAGE}: {v}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, OSError, ValueError) as exc:
        return _err(EXIT_USAGE, str(exc))


def _build_initial_state(config: RunConfig) -> State:
    ic = config.initial_condition
    if ic.name == "from_checkpoint":
        return read_checkpoint(ic.params["path"])
    builder = PRESETS[ic.name][0]
    return builder(Grid(config.grid_n), **ic.params)


def _series_keys(accs) -> list:
    """The criteria_series key of each accumulator: its kind for the first of
    that kind, else the kind and exponent (PS_u_p12), else the kind and the
    accumulator's position."""
    keys = []
    for i, acc in enumerate(accs):
        kind = acc.kind.value
        keys.append(next(key for key in (kind, f"{kind}_p{acc.p:g}", f"{kind}_{i}")
                         if key not in keys))
    return keys


class _Orchestra:
    """Single run observer: criteria, audit ledger, CSV writers, checkpoints.

    Its first call, the t = 0 hook after `run` has validated the initial
    state, does the CLI's set-up (`_start`): the dt_min check against the
    t = 0 CFL step, the audit ledger, the output directory and the CSVs.

    Also applies the default alarm heuristic: an unset threshold becomes
    10x the accumulated integral once 10% of the horizon has passed (left
    unset if the integral is still exactly zero there).
    """

    def __init__(self, config, files):
        self.accs = [_criteria.make_accumulator(c.kind, c.p, c.threshold) for c in config.criteria]
        self.ledger = None  # made by the first call, with the writers
        self.config = config
        self.files = files  # the ExitStack that closes the CSVs
        self.out_dir = Path(config.output_dir)
        self.paths = [self.out_dir / getattr(config, key) for key in (*CSV_HEADERS, "report_json")]
        self.thresholds_pending = [a for a in self.accs if a.threshold is None]
        self.series_keys = _series_keys(self.accs)
        self.series = {
            key: {"t": [], "integrand": [], "integral": []} for key in self.series_keys
        }
        self.written = None  # (step index, path) of the last checkpoint written

    def _start(self, state0):
        limit = cfl_limit(state0, self.config.cfl)
        if limit < self.config.dt_min:
            raise ConfigError(
                [
                    f"dt_min={self.config.dt_min:.3e} exceeds the CFL step limit "
                    f"{limit:.3e} at t=0; lower dt_min or the initial speeds"
                ]
            )
        self.ledger = AuditLedger.from_state(state0)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.writers = {}  # a csv writer per CSV_HEADERS key
        for (key, header), path in zip(CSV_HEADERS.items(), self.paths):
            self.writers[key] = csv.writer(self.files.enter_context(open(path, "w", newline="")))
            self.writers[key].writerow(header)

    def __call__(self, state, _, dt):
        if self.ledger is None:
            self._start(state)
        for acc in self.accs:
            _criteria.observe(acc, state, dt)
        if self.thresholds_pending and state.t >= 0.1 * self.config.t_end:
            for acc in self.thresholds_pending:
                if acc.integral > 0.0:
                    acc.threshold = 10.0 * acc.integral
            self.thresholds_pending = []
        record = self.ledger.update(state, dt)
        self.writers["energy_csv"].writerow(
            [state.t, kinetic_energy(state), potential_energy(state)]
        )
        first = {acc.kind.value: acc for acc in reversed(self.accs)}
        self.writers["series_csv"].writerow(
            [state.t, dt]
            + [
                getattr(first[kind], attr) if kind in first else ""
                for kind, attr in SERIES_CRITERIA.values()
            ]
        )
        self.writers["audit_csv"].writerow(astuple(record))
        for acc, key in zip(self.accs, self.series_keys):
            s = self.series[key]
            s["t"].append(state.t)
            s["integrand"].append(acc.last_integrand)
            s["integral"].append(acc.integral)
        if (
            self.config.checkpoint_every > 0
            and dt > 0.0
            and state.step_index % self.config.checkpoint_every == 0
        ):
            path = self.out_dir / f"state_{state.step_index:08d}.ehds"
            write_checkpoint(path, state)
            self.written = (state.step_index, path)


def cmd_run(config: RunConfig) -> int:
    """Wire solver + criteria + audit observers, run, and write all outputs."""
    t_start = time.monotonic()
    control = StepControl(
        dt=config.dt, cfl=config.cfl, t_end=config.t_end, dt_min=config.dt_min
    )
    with contextlib.ExitStack() as files:
        orchestra = _Orchestra(config, files)
        run_report = run(_build_initial_state(config), control, hooks=[orchestra])
    if orchestra.ledger is None:  # run() rejected the initial state
        return _err(EXIT_INVARIANT, f"initial state rejected: {run_report.diagnostic}")

    final = run_report.final_state
    if orchestra.written is not None and orchestra.written[0] == final.step_index:
        # The last periodic checkpoint holds the final state: copy its bytes.
        with open(orchestra.written[1], "rb") as fh:
            write_atomically(orchestra.out_dir / config.checkpoint_path,
                             iter(lambda: fh.read(1 << 20), b""))
    else:
        write_checkpoint(orchestra.out_dir / config.checkpoint_path, final)

    crit_report = _criteria.report(orchestra.accs)
    # The report's norms are taken from the forward transforms of the final
    # velocity samples (v and w are not transformed).
    fresh = derive(final)
    linf = {
        name: {"value": _sup_norm(U), "tail_fraction": spectral_tail_fraction(*tail.components)}
        for name, U, tail in (("u", final.u, fresh.u_hat), ("omega", fresh.omega, fresh.omega))
    }

    wall = time.monotonic() - t_start
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "status": run_report.status.value,
        "diagnostic": run_report.diagnostic,
        "steps": run_report.steps,
        "t_final": run_report.t_final,
        "state_checksum": run_report.state_checksum,
        "criteria": crit_report.rows,
        "criteria_ranking": crit_report.ranking,
        "criteria_series": orchestra.series,
        "audit": orchestra.ledger.summary(),
        "linf": linf,
        "config": config.as_dict(),
        "wall_clock": {
            "seconds": wall,
            "steps_per_second": run_report.steps / wall if wall > 0 else 0.0,
        },
    }
    write_atomically(orchestra.paths[-1],
                     [(json.dumps(report, indent=2, sort_keys=True) + "\n").encode()])

    _print_run_summary(report, orchestra.paths)

    if run_report.status is RunStatus.COMPLETED:
        return EXIT_OK
    if run_report.status is RunStatus.BLOW_UP_SUSPECTED:
        return _err(EXIT_BLOWUP, f"blow-up suspected: {run_report.diagnostic}")
    return _err(EXIT_INVARIANT, f"invariant violation: {run_report.diagnostic}")


def _sup_norm(U: VectorField) -> float:
    """max |U| on the grid; the CFL bound's overflow-safe maximum where squaring overflows."""
    value = lp_norm(vector_magnitude(U), math.inf)
    return value if math.isfinite(value) else _max_magnitude([c.samples for c in U.components])


def _fmt(x, spec=".6g"):
    return format(x, spec) if isinstance(x, (int, float)) else str(x)


def _print_criteria_table(rows):
    print(f"{'criterion':<12} {'p':>6} {'q':>8} {'integral':>14} "
          f"{'peak integrand':>16} {'crossed at':>11}")
    for row in rows:
        crossed = row["crossed_at"] if row["crossed_at"] is not None else "-"
        print(
            f"{row['kind']:<12} {str(row['p']):>6} {str(row['q'])[:8]:>8} "
            f"{_fmt(row['integral']):>14} {_fmt(row['peak_integrand']):>16} "
            f"{str(crossed):>11}"
        )


def _print_run_summary(report, paths):
    print(f"status: {report['status']}  steps: {report['steps']}  "
          f"t_final: {_fmt(report['t_final'])}")
    for name in ("u", "omega"):
        entry = report["linf"][name]
        print(
            f"max |{name}| = {_fmt(entry['value'])}  "
            f"(spectral tail fraction {_fmt(entry['tail_fraction'], '.3g')})"
        )
    _print_criteria_table(report["criteria"])
    audit = report["audit"]
    print(
        "audit: charge-identity residual max "
        f"{_fmt(audit['max_charge_identity_residual'], '.3g')}, "
        f"velocity margin min {_fmt(audit['min_velocity_margin'], '.3g')}, "
        f"min charge {_fmt(audit['min_charge_value'], '.3g')}"
    )
    for flag in audit["flags"]:
        print(f"audit flag: {flag}")
    print(f"wrote {', '.join(map(str, paths))}")


def cmd_besov(checkpoint: str, s: float, p: float, r: float, field_name: str) -> int:
    """Print the Besov norm of the checkpoint's field named field_name in BESOV_FIELDS."""
    f = BESOV_FIELDS[field_name](read_checkpoint(checkpoint))
    value = besov_norm(f, BesovParams(s, p, r))
    print(value)
    return EXIT_OK


def cmd_audit(directory: str, audit_csv: str = RunConfig.audit_csv,
              series_csv: str = RunConfig.series_csv) -> int:
    """Summarize the per-step audit (and criteria) series of a finished run."""
    audit_path = Path(directory) / audit_csv
    if not audit_path.exists():
        raise FileNotFoundError(f"no audit CSV at {audit_path}")
    rows = _read_csv(audit_path, AUDIT_COLUMNS[:6])  # the columns summarized below
    if not rows:
        raise ValueError(f"audit CSV {audit_path} has no data rows")
    series_path = Path(directory) / series_csv
    integrals = [c for c, (_, attr) in SERIES_CRITERIA.items() if attr == "integral"]
    srows = _read_csv(series_path, integrals) if series_path.exists() else []

    def extreme(pick, name):
        """pick (max, min or last) of the column, or n/a if no value is finite."""
        values = [float(r[name]) for r in rows if r[name] not in ("", "nan")]
        return f"{pick(values):.6g}" if any(map(math.isfinite, values)) else "n/a"

    print(f"steps audited: {len(rows)}  t range: [{rows[0]['t']}, {rows[-1]['t']}]")
    print(f"max charge-identity residual: {extreme(max, 'charge_identity_residual')}")
    print(f"min velocity decay margin:    {extreme(min, 'velocity_margin')}")
    print(f"max positivity term:          {extreme(max, 'positivity_term')}")
    print(f"max log-Sobolev ratio:        {extreme(max, 'ls_ratio')}")
    print(f"final Y:                      {extreme(lambda ys: ys[-1], 'Y')}")
    if srows:
        print("criteria integrals at end: " + ", ".join(
            f"{SERIES_CRITERIA[c][0]}={srows[-1][c] or 'n/a'}" for c in integrals))
    return EXIT_OK


def _read_csv(path: Path, needed) -> list:
    """The CSV's data rows; a ValueError if it has some and lacks a needed column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in needed if c not in (reader.fieldnames or ())]
    if rows and missing:
        raise ValueError(f"CSV {path} has no column {missing[0]!r}")
    return rows


def cmd_report(report_json: str) -> int:
    """Print a stored run report and emit per-criterion (t, integrand, integral) CSVs."""
    path = Path(report_json)
    report = json.loads(path.read_text())
    if not isinstance(report, dict):
        raise ValueError(f"{path} is not a run report: not a JSON object")
    try:
        print(f"run status: {report['status']}  steps: {report['steps']}  "
              f"t_final: {report['t_final']}")
        print(f"state checksum: {report['state_checksum']}")
        _print_criteria_table(report["criteria"])
        if report.get("criteria_ranking"):
            print("ranking (earliest alarm first): " + ", ".join(report["criteria_ranking"]))
        audit = report["audit"]
        print(
            "audit extremes: residual "
            f"{audit['max_charge_identity_residual']}, margin "
            f"{audit['min_velocity_margin']}, min charge {audit['min_charge_value']}"
        )
    except KeyError as exc:
        raise ValueError(f"{path} is not a run report: missing key {exc}") from exc

    for kind, series in report.get("criteria_series", {}).items():
        out = path.with_name(f"{path.stem}_criterion_{kind.lower()}.csv")
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "integrand", "integral"])
            for t, a, b in zip(series["t"], series["integrand"], series["integral"]):
                writer.writerow([t, a, b])
        print(f"wrote {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
