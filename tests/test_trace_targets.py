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

import numpy as np

import ehd
from ehd import StepControl, solver

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
    transform helper.  The charge lane's task makes the w samples of stages
    2 and 3 and of each new snapshot (and of stage 1 of step 1), and every
    grad psi is charged to `_gradient_samples`: stages 2 and 3 and each
    snapshot but the last, plus the initial state's in step 1.  The
    divergence bound settles the invariant check of a divergence-free run
    without a transform."""
    tracer = make_tracer()
    marks = []
    tracer.install()
    try:
        ehd.run(ehd.charged_shear(ehd.Grid(16)), StepControl(dt=1e-3, t_end=3e-3),
                hooks=[lambda s, d, dt: marks.append(len(tracer.ffts))])
    finally:
        tracer.uninstall()
    assert len(marks) == 4  # the t = 0 hook and three steps
    # Stage 1 of step 1 inverts the initial coefficients too.
    for start, end, stages, lane, grad in zip(marks, marks[1:], (30, 26, 26), (4, 3, 3),
                                              (12, 9, 6)):
        callers = Counter(f.caller for f in tracer.ffts[start:end])
        assert callers["solver._materialize"] == 4
        assert callers["solver._nonlinear"] == stages
        assert callers["solver._lane_samples"] == lane
        assert callers["solver._gradient_samples"] == grad
        assert callers["solver._check_run_invariants"] == 0


def test_divergence_fallbacks_are_charged_to_the_checks():
    """A divergence between half the tolerance and the tolerance leaves the
    bound inconclusive, so each check transforms div u in its own frame:
    solver.invariants_fft_per_step counts those of _check_run_invariants.
    Moving that transform into a helper of its own would charge it to the
    helper, and the metric would read 0."""
    grid = ehd.Grid(16)
    tg = ehd.taylor_green(grid)
    _, tol = solver._divergence_bound(tg)
    ux = tg.u.x.samples - 0.75 * tol * np.sin(grid.x)
    s = ehd.State(u=ehd.VectorField(ehd.RealField(grid, ux), tg.u.y, tg.u.z), v=tg.v, w=tg.w)
    bound, tol = solver._divergence_bound(s)
    assert tol / 2 < bound < tol
    s.coeffs  # the forward transforms, before the tracer
    tracer = make_tracer()
    tracer.install()
    try:
        ehd.validate_initial_state(s)
        solver._check_run_invariants(s, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert [f.caller for f in tracer.ffts] == ["solver.validate_initial_state",
                                               "solver._check_run_invariants"]
