"""In-memory spans and FFT counters, installed around ehd from outside.

The tracer replaces names that ehd looks up at call time (module globals such
as ``ehd.solver.derive``, and the ``scipy.fft`` functions that ``spectral``
and ``solver`` call as ``_fft.*``) with wrappers that record spans.  The
program's source is not touched, and ``uninstall`` restores every original.
A target that no longer exists is listed in ``missing`` instead of failing,
and the metrics that need it are left out.

Every span records a name, start, end and parent.  Each FFT is a leaf record
counted against the innermost open span, and against the nearest ehd frame
outside the transform helpers (its *caller*).  An FFT is a *repeat* when its
input is bitwise identical to an input transformed in the current or the
previous step; ``new_step`` marks the step boundary.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

# Functions that only move data between samples and coefficients.  An FFT is
# charged to the first ehd frame above them, so `_nonlinear` owns the
# transforms it requests through `_ifft_real`.
TRANSFORM_HELPERS = frozenset(
    {
        "_ifft_real",
        "_fft_coeffs",
        "_coeffs_from_samples",
        "_samples_from_coeffs",
        "forward_transform",
        "backward_transform",
        "vector_forward",
        "vector_backward",
    }
)

CRITERIA_KINDS = ("BKM", "PS_u", "PS_grad_u", "BESOV_ANISO")
SOLVER_SPANS = ("solver.run", "solver.derive", "solver.cfl")


class Span:
    __slots__ = ("name", "start", "end", "parent", "nbytes")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.nbytes = 0


class FFTRecord:
    """One transform.  [start, end] includes the tracer's own hashing;
    [call_start, end] is the transform alone."""

    __slots__ = ("kind", "parent", "caller", "start", "call_start", "end", "nbytes", "repeat")

    def __init__(self, kind, parent, caller, start, call_start, end, nbytes, repeat):
        self.kind = kind
        self.parent = parent
        self.caller = caller
        self.start = start
        self.call_start = call_start
        self.end = end
        self.nbytes = nbytes
        self.repeat = repeat


def _caller_label() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        if (
            module.startswith("ehd.")
            and code.co_name not in TRANSFORM_HELPERS
            and not code.co_name.startswith("<")
        ):
            return f"{module[4:]}.{getattr(code, 'co_qualname', code.co_name)}"
        frame = frame.f_back
    return "outside_ehd"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.ffts: list[FFTRecord] = []
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()
        self._open: list[int] = []
        self._seen: set = set()
        self._seen_before: set = set()
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _push(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, clock(), self._open[-1] if self._open else None))
        self._open.append(idx)
        return idx

    def _pop(self, idx: int) -> None:
        self.spans[idx].end = clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._push(name)
        try:
            yield self.spans[idx]
        finally:
            self._pop(idx)

    def spanned(self, fn, name):
        """Wrap fn in a span; name is a string or a function of fn's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._push(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(idx)

        return wrapper

    def new_step(self) -> None:
        self._seen_before = self._seen
        self._seen = set()

    def counted(self, fn, kind: str):
        """Wrap a scipy.fft function: count, time, size and repeat-check it."""

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            start = clock()
            a = np.ascontiguousarray(x)
            options = (args, sorted((k, v) for k, v in kwargs.items() if k != "workers"))
            key = (kind, a.shape, a.dtype.str, repr(options), hashlib.sha1(a).digest())
            repeat = key in self._seen or key in self._seen_before
            self._seen.add(key)
            caller = _caller_label()
            call_start = clock()
            out = fn(x, *args, **kwargs)
            end = clock()
            self.ffts.append(
                FFTRecord(
                    kind,
                    self._open[-1] if self._open else None,
                    caller,
                    start,
                    call_start,
                    end,
                    a.nbytes + out.nbytes,
                    repeat,
                )
            )
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, module: str, path: str, make, span_name: str) -> None:
        """Replace module.path by make(original); record it as missing if absent."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            self.missing_spans.add(span_name)
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for kind, attr in (("fwd", "rfftn"), ("inv", "irfftn")):
            self.patch("scipy.fft", attr, lambda f, k=kind: self.counted(f, k), "spectral")
        targets = [
            ("ehd.solver", "derive", "solver.derive"),
            ("ehd.cli", "derive", "solver.derive"),
            ("ehd.solver", "cfl_limit", "solver.cfl"),
            ("ehd.cli", "cfl_limit", "solver.cfl"),
            ("ehd.criteria", "besov_norm", "littlewood_paley.besov"),
            ("ehd.audit", "AuditLedger.update", "audit.update"),
            ("ehd.cli", "parse_config", "config.parse"),
            ("ehd.cli", "_build_initial_state", "initial_conditions.build"),
            ("ehd.cli", "read_checkpoint", "checkpoint.read"),
            ("ehd.checkpoint", "state_checksum", "checkpoint.checksum"),
        ]
        for module, path, name in targets:
            self.patch(module, path, lambda f, n=name: self.spanned(f, n), name)
        self.patch(
            "ehd.criteria",
            "observe",
            lambda f: self.spanned(f, lambda acc, *_: f"criteria.{acc.kind.value}"),
            "criteria",
        )
        self.patch("ehd.cli", "write_checkpoint", self._sized_write, "checkpoint.write")

    def _sized_write(self, fn):
        @functools.wraps(fn)
        def wrapper(path, state):
            with self.span("checkpoint.write") as s:
                fn(path, state)
            s.nbytes = os.stat(path).st_size

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- aggregation ---------------------------------------------------------------


def _overlap(start, end, a, b) -> float:
    return max(0.0, min(end, b) - max(start, a))


def _layer(tracer: Tracer, parent) -> str:
    return "none" if parent is None else tracer.spans[parent].name


def layer_metrics(tracer: Tracer, first_stamp: float, last_stamp: float, steps: int) -> dict:
    """Per-layer metrics of one traced run.

    The step phase runs from the t = 0 hook to the last hook; per-step values
    are step-phase totals divided by the accepted steps.  FFTs before the
    window are set-up work, after it finalisation.  `*_ms_per_step` of a
    named span is its inclusive time; `solver.self_ms_per_step` and
    `cli.hook_self_ms_per_step` are self times.
    """
    a, b = first_stamp, last_stamp
    spans, ffts = tracer.spans, tracer.ffts
    per = 1.0 / steps
    in_steps = [f for f in ffts if a <= f.start < b]

    def span_ms(name):
        return 1e3 * sum(_overlap(s.start, s.end, a, b) for s in spans if s.name == name)

    def fft_count(pred):
        return sum(1 for f in in_steps if pred(f))

    def under(*names):
        return lambda f: _layer(tracer, f.parent) in names

    m = {}
    total = len(in_steps)
    repeats = fft_count(lambda f: f.repeat)
    m["spectral.fft_fwd_per_step"] = fft_count(lambda f: f.kind == "fwd") * per
    m["spectral.fft_inv_per_step"] = fft_count(lambda f: f.kind == "inv") * per
    m["spectral.fft_ms_per_step"] = 1e3 * sum(f.end - f.call_start for f in in_steps) * per
    m["spectral.fft_mb_per_step"] = sum(f.nbytes for f in in_steps) * per / 1e6
    m["spectral.fft_repeat_per_step"] = repeats * per
    m["spectral.fft_useful_ratio"] = 1.0 - repeats / total if total else 1.0

    # Self time of the solver.run span inside the window: its overlap minus
    # the part its direct children (spans and FFTs) cover.
    solver_self = 0.0
    run_ids = {i for i, s in enumerate(spans) if s.name == "solver.run"}
    for i in run_ids:
        solver_self += _overlap(spans[i].start, spans[i].end, a, b)
    for s in spans:
        if s.parent in run_ids:
            solver_self -= _overlap(s.start, s.end, a, b)
    for f in ffts:
        if f.parent in run_ids:
            solver_self -= _overlap(f.start, f.end, a, b)
    m["solver.self_ms_per_step"] = 1e3 * solver_self * per
    m["solver.fft_per_step"] = fft_count(under(*SOLVER_SPANS)) * per
    m["solver.fft_repeat_per_step"] = (
        fft_count(lambda f: f.repeat and _layer(tracer, f.parent) in SOLVER_SPANS) * per
    )
    m["solver.cfl_ms_per_step"] = span_ms("solver.cfl") * per
    m["solver.cfl_fft_per_step"] = fft_count(under("solver.cfl")) * per
    m["solver.derive_ms_per_step"] = span_ms("solver.derive") * per
    m["solver.derive_fft_per_step"] = fft_count(under("solver.derive")) * per
    for part, caller in (
        ("nonlinear", "solver._nonlinear"),
        ("materialize", "solver._materialize"),
        ("invariants", "solver._check_run_invariants"),
    ):
        m[f"solver.{part}_fft_per_step"] = (
            fft_count(lambda f: f.caller == caller and _layer(tracer, f.parent) in SOLVER_SPANS)
            * per
        )
    m["solver.steps"] = float(steps)

    for kind in CRITERIA_KINDS:
        m[f"criteria.{kind}.ms_per_step"] = span_ms(f"criteria.{kind}") * per
        m[f"criteria.{kind}.fft_per_step"] = fft_count(under(f"criteria.{kind}")) * per

    m["littlewood_paley.besov_ms_per_step"] = span_ms("littlewood_paley.besov") * per
    m["littlewood_paley.besov_fft_per_step"] = fft_count(under("littlewood_paley.besov")) * per

    m["audit.update_ms_per_step"] = span_ms("audit.update") * per
    m["audit.update_fft_per_step"] = fft_count(under("audit.update")) * per
    m["audit.update_fft_repeat_per_step"] = (
        fft_count(lambda f: f.repeat and _layer(tracer, f.parent) == "audit.update") * per
    )

    # Observer time outside criteria and audit: energy norms, CSV rows and
    # periodic checkpoints.
    hook_ids = {i for i, s in enumerate(spans) if s.name == "cli.hook"}
    hook_self = sum(_overlap(spans[i].start, spans[i].end, a, b) for i in hook_ids)
    for s in spans:
        if s.parent in hook_ids and s.name.startswith(("criteria.", "audit.")):
            hook_self -= _overlap(s.start, s.end, a, b)
    m["cli.hook_self_ms_per_step"] = 1e3 * hook_self * per
    m["cli.setup_fft"] = float(sum(1 for f in ffts if f.start < a))
    m["cli.finalize_fft"] = float(sum(1 for f in ffts if f.start >= b))

    def durations(name):
        return [s.end - s.start for s in spans if s.name == name]

    def median_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    writes = [s for s in spans if s.name == "checkpoint.write"]
    m["checkpoint.write_ms"] = median_ms("checkpoint.write")
    m["checkpoint.writes"] = float(len(writes))
    m["checkpoint.mb_written"] = sum(s.nbytes for s in writes) / 1e6
    m["checkpoint.read_ms"] = median_ms("checkpoint.read")
    m["checkpoint.checksum_ms"] = median_ms("checkpoint.checksum")
    m["config.parse_ms"] = 1e3 * sum(durations("config.parse"))
    m["initial_conditions.build_ms"] = 1e3 * sum(durations("initial_conditions.build"))
    return {k: v for k, v in m.items() if not _needs_missing(k, tracer.missing_spans)}


# Which recorded span each metric group reads; a metric is left out when a
# wrapper it needs could not be installed.
_METRIC_SPANS = {
    "spectral.": ("spectral",),
    "solver.fft": ("spectral", "solver.derive", "solver.cfl"),
    "solver.nonlinear": ("spectral",),
    "solver.materialize": ("spectral",),
    "solver.invariants": ("spectral",),
    "solver.self": ("spectral", "solver.derive", "solver.cfl"),
    "solver.cfl": ("solver.cfl",),
    "solver.derive": ("solver.derive",),
    "criteria.": ("criteria",),
    "littlewood_paley.": ("littlewood_paley.besov",),
    "audit.": ("audit.update",),
    "cli.hook": ("criteria", "audit.update"),
    "cli.setup_fft": ("spectral",),
    "cli.finalize_fft": ("spectral",),
    "checkpoint.write": ("checkpoint.write",),
    "checkpoint.mb": ("checkpoint.write",),
    "checkpoint.read": ("checkpoint.read",),
    "checkpoint.checksum": ("checkpoint.checksum",),
    "config.": ("config.parse",),
    "initial_conditions.": ("initial_conditions.build",),
}


def _needs_missing(metric: str, missing: set) -> bool:
    for prefix, needs in _METRIC_SPANS.items():
        if metric.startswith(prefix) and missing.intersection(needs):
            return True
    return False


def fft_caller_counts(tracer: Tracer, first_stamp: float, last_stamp: float) -> dict:
    """Step-phase FFT counts keyed by (innermost span, caller)."""
    counts: dict = {}
    for f in tracer.ffts:
        if first_stamp <= f.start < last_stamp:
            key = f"{_layer(tracer, f.parent)} <- {f.caller}"
            counts[key] = counts.get(key, 0) + 1
    return counts
