"""Every name the benchmark's tracer wraps exists in ehd, and its per-caller
FFT counts still find the solver's transforms.

perfbench/tracing.py replaces ehd names (``ehd.cli.derive``,
``ehd.criteria.observe``, ``AuditLedger.update`` and others) with timing
wrappers, and leaves out the metrics of any name it cannot find.  These
tests fail instead when a refactor renames such a name, stops importing it,
or moves a transform away from the function the tracer charges it to.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import ehd
from ehd import StepControl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def make_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_finds_every_target():
    tracer = make_tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_each_step_charges_transforms_to_the_solver_callers():
    """The tracer charges an FFT to the first ehd frame that is not a
    transform helper; solver.invariants_fft_per_step counts those of
    _check_run_invariants.  Moving its divergence transform into a helper of
    its own would charge it to the helper, and that metric would read 0."""
    tracer = make_tracer()
    marks = []
    tracer.install()
    try:
        ehd.run(ehd.charged_shear(ehd.Grid(16)), StepControl(dt=1e-3, t_end=3e-3),
                hooks=[lambda s, d, dt: marks.append(len(tracer.ffts))])
    finally:
        tracer.uninstall()
    assert len(marks) == 4  # the t = 0 hook and three steps
    for start, end in zip(marks, marks[1:]):
        callers = Counter(f.caller for f in tracer.ffts[start:end])
        assert {"solver._nonlinear", "solver._materialize"} <= set(callers)
        assert callers["solver._check_run_invariants"] == 1
