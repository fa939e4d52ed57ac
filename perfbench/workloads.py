"""The benchmark's workloads: seeded inputs, one timed run, correctness checks.

Each workload drives the unchanged program through a public entry point,
``ehd.cli.main(["run", config])`` or ``ehd.run(...)``, and adds one hook of
its own.  The hook records when it is entered, times a fixed speed probe,
and records when it returns; the probe also runs right before the call and
right after the return, outside the timed parts.  A step's time runs from
one hook's return to the next hook's entry; set-up runs from the call into
the program to the t = 0 hook, finalisation from the last hook to the
return.

The probe measures how fast the shared host runs right now: its speed
changes by up to 2x within seconds, and a part and the probes next to it are
slowed alike.  Scaling each part by the reference probe time (REF_PROBE_S)
over the mean of the two probes that bracket it reports it at one fixed
machine speed, which is what makes two runs minutes apart comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

import ehd
import ehd.cli
from tracing import Tracer, clock

# The program's default step.
DT = 5e-4

# Fixed constants that only set the unit: roughly the probe's time, per grid
# size, in the faster periods of the machine the benchmark was tuned on
# (2-vCPU Intel Xeon VM, numpy 2.4, scipy 1.17), where the 32^3 probe ranged
# from 1.5 to 3.5 ms.
REF_PROBE_S = {32: 1.6e-3, 64: 1.1e-2}


class SpeedProbe:
    """A fixed FFT and elementwise kernel on the workload's grid size.

    Its arrays are the size of the workload's, so cache and memory contention
    slow both alike.  It holds the scipy functions it was created with, so a
    tracer installed later neither counts nor slows it.
    """

    def __init__(self, n: int):
        rng = np.random.Generator(np.random.Philox(key=0))
        self.x = rng.standard_normal((n, n, n))
        self.decay = np.exp(-np.arange(n // 2 + 1.0))
        self.rfftn, self.irfftn = scipy.fft.rfftn, scipy.fft.irfftn
        self.reference_s = REF_PROBE_S[n]

    def __call__(self) -> float:
        start = clock()
        for _ in range(3):
            c = self.rfftn(self.x, workers=1)
            y = self.irfftn(c * self.decay, s=self.x.shape, workers=1)
            self.x * y + self.x
        return clock() - start


@dataclass
class RunRecord:
    t_call: float
    reference_s: float  # probe time that defines the reference speed
    t_return: float = 0.0
    stamps: list = field(default_factory=list)  # hook entries
    resumes: list = field(default_factory=list)  # hook returns
    probes: list = field(default_factory=list)  # probe time in each hook
    probe_before: float = 0.0  # probe time right before the call
    probe_after: float = 0.0  # probe time right after the return
    checksum: str | None = None
    checks: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    notes: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.stamps) - 1

    @property
    def completed(self) -> bool:
        return len(self.resumes) >= 2 and self.t_return > self.t_call

    def _scaled(self, seconds: float, probe_a: float, probe_b: float) -> float:
        """A time between two probes, at the reference speed."""
        return seconds * self.reference_s / (0.5 * (probe_a + probe_b))

    def scaled_steps(self) -> list:
        return [
            self._scaled(start - prev_end, probe_a, probe_b)
            for prev_end, start, probe_a, probe_b in zip(
                self.resumes, self.stamps[1:], self.probes, self.probes[1:]
            )
        ]

    def setup_s(self) -> float:
        return self._scaled(self.stamps[0] - self.t_call, self.probe_before, self.probes[0])

    def finalize_s(self) -> float:
        return self._scaled(self.t_return - self.resumes[-1], self.probes[-1], self.probe_after)

    def run_s(self) -> float:
        """The whole call without the benchmark's hooks, each part scaled."""
        return self.setup_s() + sum(self.scaled_steps()) + self.finalize_s()

    def steps_per_s(self) -> float:
        return self.steps / sum(self.scaled_steps())

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


class _Stamp:
    """The benchmark's own hook: timestamps around a speed probe, and a step
    mark when traced."""

    def __init__(self, record: RunRecord, probe: SpeedProbe):
        self.record = record
        self.probe = probe

    def __call__(self, state, derived, dt):
        r = self.record
        r.stamps.append(clock())
        if r.tracer is None:
            r.probes.append(self.probe())
        else:
            r.tracer.new_step()
            with r.tracer.span("bench.probe"):
                r.probes.append(self.probe())
        r.resumes.append(clock())


def _config_text(grid_n: int, steps: int, initial_condition: str, dt: float = DT,
                 **extra) -> str:
    lines = [
        f"grid_n = {grid_n}",
        f"t_end = {steps * dt!r}",
        f"dt = {dt!r}",
        f"initial_condition = {initial_condition}",
    ] + [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    grid_n = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference_checksum: str | None = None
        self.probe = SpeedProbe(self.grid_n)

    def prepare(self) -> None:
        """Generate the inputs from the seed; runs before any timing."""

    def execute(self, record: RunRecord) -> None:
        raise NotImplementedError

    def run_once(self, tracer: Tracer | None = None) -> RunRecord:
        record = RunRecord(0.0, self.probe.reference_s, tracer=tracer)
        record.probe_before = self.probe()
        if tracer is not None:
            tracer.install()
        try:
            self.execute(record)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record.probe_after = self.probe()
        if self.reference_checksum is None:
            self.reference_checksum = record.checksum
        record.checks["checksum_repeats"] = (
            record.checksum is not None and record.checksum == self.reference_checksum
        )
        return record


class _CliWorkload(Workload):
    """`ehd run <config>` with the default observers and all outputs."""

    steps = 20
    dt = DT
    checkpoint_every = 0

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"

    @property
    def config_path(self) -> Path:
        return self.workdir / "run.cfg"

    def initial_condition(self) -> str:
        return f"random_smooth(seed={self.seed})"

    def prepare(self) -> None:
        self.config_path.write_text(
            _config_text(
                self.grid_n,
                self.steps,
                self.initial_condition(),
                dt=self.dt,
                output_dir=self.out_dir.as_posix(),
                checkpoint_every=self.checkpoint_every,
            )
        )

    def execute(self, record: RunRecord) -> None:
        stamp = _Stamp(record, self.probe)
        tracer = record.tracer
        original = ehd.cli.run

        def run_with_stamp(state0, control, hooks=()):
            hooks = list(hooks)
            if tracer is None:
                return original(state0, control, hooks=hooks + [stamp])
            hooks = [tracer.spanned(h, "cli.hook") for h in hooks] + [stamp]
            with tracer.span("solver.run"):
                return original(state0, control, hooks=hooks)

        ehd.cli.run = run_with_stamp
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record.t_call = clock()
                code = ehd.cli.main(["run", str(self.config_path)])
                record.t_return = clock()
        finally:
            ehd.cli.run = original
        try:
            report = json.loads((self.out_dir / "report.json").read_text())
            record.checksum = report["state_checksum"]
            record.checks["exit_completed"] = code == 0 and report["status"] == "completed"
            flags = report["audit"]["flags"]
            record.checks["audit_flags_empty"] = not flags
            if flags:
                record.notes.append(f"{len(flags)} audit flags, first: {flags[0]}")
            self.check_outputs(record, report)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def check_outputs(self, record: RunRecord, report: dict) -> None:
        pass


class RunCharged32Full(_CliWorkload):
    """The researcher's normal run: every module busy."""

    name = "run_charged32_full"


class RestartUncharged32Ckpt(_CliWorkload):
    """Restart from a seeded uncharged checkpoint, writing a snapshot every step.

    With v = w = 0 the solver takes its uncharged branch, so this run bypasses
    the potential and charge paths and shows costs moved onto writers.

    Without charges the audit's velocity decay margin is pure trapezoid error
    of the dissipation integral, about -5e-6 of the initial energy after 20
    steps of DT: beyond the audit's tolerance of 1e-6, so every step would be
    flagged.  At 2e-4 it is about -3.5e-7.  A step costs the same at any dt.
    """

    name = "restart_uncharged32_ckpt"
    dt = 2e-4
    checkpoint_every = 1

    @property
    def initial_path(self) -> Path:
        return self.workdir / "initial.ehds"

    def initial_condition(self) -> str:
        return f"from_checkpoint(path={self.initial_path.as_posix()})"

    def prepare(self) -> None:
        grid = ehd.Grid(self.grid_n)
        u = ehd.random_smooth(grid, seed=self.seed).u
        v, w = (ehd.RealField(grid, np.zeros((grid.n,) * 3)) for _ in range(2))
        ehd.write_checkpoint(self.initial_path, ehd.State(u=u, v=v, w=w))
        super().prepare()

    def check_outputs(self, record: RunRecord, report: dict) -> None:
        last = max(self.out_dir.glob("state_*.ehds"), default=None)
        try:
            ok = last is not None and ehd.state_checksum(ehd.read_checkpoint(last)) == (
                report["state_checksum"]
            )
        except ehd.CheckpointError:
            ok = False
        record.checks["last_checkpoint_reads"] = ok


class SolveCharged64Bare(Workload):
    """`ehd.run` at 64^3 without observers: solver and spectral work only."""

    name = "solve_charged64_bare"
    grid_n = 64
    steps = 6

    def prepare(self) -> None:
        self.config = _config_text(self.grid_n, self.steps, f"random_smooth(seed={self.seed})")

    def execute(self, record: RunRecord) -> None:
        tracer = record.tracer
        stamp = _Stamp(record, self.probe)
        spans = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        record.t_call = clock()
        with spans("config.parse"):
            config = ehd.parse_config(self.config)
        with spans("initial_conditions.build"):
            params = config.initial_condition.params
            state0 = ehd.random_smooth(ehd.Grid(config.grid_n), seed=params["seed"])
        control = ehd.StepControl(
            dt=config.dt, cfl=config.cfl, t_end=config.t_end, dt_min=config.dt_min
        )
        with spans("solver.run"):
            result = ehd.run(state0, control, hooks=[stamp])
        record.t_return = clock()
        record.checksum = result.state_checksum
        record.checks["exit_completed"] = result.status is ehd.RunStatus.COMPLETED


WORKLOADS = {w.name: w for w in (RunCharged32Full, SolveCharged64Bare, RestartUncharged32Ckpt)}
