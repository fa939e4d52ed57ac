"""Tests of the benchmark's FFT counter, repeat detector and span attribution."""

import numpy as np
import pytest
import scipy.fft

import ehd
import ehd.solver
from tracing import Tracer, clock, layer_metrics


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _field(grid, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return ehd.RealField(grid, rng.standard_normal((grid.n,) * 3))


def test_k_forward_transforms_count_k(tracer):
    grid = ehd.Grid(8)
    for seed in range(5):
        ehd.forward_transform(_field(grid, seed))
    assert [f.kind for f in tracer.ffts] == ["fwd"] * 5
    assert not any(f.repeat for f in tracer.ffts)
    assert all(f.nbytes == 8**3 * 8 + 8 * 8 * 5 * 16 for f in tracer.ffts)


def test_duplicated_input_counts_one_repeat(tracer):
    grid = ehd.Grid(8)
    a, b = _field(grid, 1), _field(grid, 2)
    for f in (a, b, a):
        ehd.forward_transform(f)
    assert [f.repeat for f in tracer.ffts] == [False, False, True]


def test_repeats_look_back_one_step_only(tracer):
    grid = ehd.Grid(8)
    a, b = _field(grid, 1), _field(grid, 2)
    ehd.forward_transform(a)
    tracer.new_step()
    ehd.forward_transform(a)
    ehd.forward_transform(b)
    tracer.new_step()
    tracer.new_step()
    ehd.forward_transform(a)
    assert [f.repeat for f in tracer.ffts] == [False, True, False, False]


def test_forward_and_inverse_of_same_bytes_are_distinct(tracer):
    grid = ehd.Grid(8)
    coeffs = ehd.forward_transform(_field(grid, 3))
    ehd.backward_transform(coeffs)
    ehd.backward_transform(coeffs)
    assert [(f.kind, f.repeat) for f in tracer.ffts] == [
        ("fwd", False), ("inv", False), ("inv", True)
    ]


def test_fft_charged_to_innermost_span_and_caller(tracer):
    grid = ehd.Grid(8)
    with tracer.span("outer"):
        with tracer.span("inner"):
            ehd.interpolation_ratios(_field(grid, 4))
        ehd.forward_transform(_field(grid, 5))
    names = [tracer.spans[f.parent].name for f in tracer.ffts]
    assert names == ["inner", "outer"]
    assert [f.caller for f in tracer.ffts] == ["audit.interpolation_ratios", "outside_ehd"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_uninstall_restores_originals():
    originals = (scipy.fft.rfftn, scipy.fft.irfftn, ehd.solver.derive)
    t = Tracer()
    t.install()
    patched = scipy.fft.rfftn
    t.uninstall()
    assert patched is not originals[0]
    assert (scipy.fft.rfftn, scipy.fft.irfftn, ehd.solver.derive) == originals


def _traced_run(tracer, steps=3):
    stamps = []

    def stamp(state, derived, dt):
        stamps.append(clock())
        tracer.new_step()

    state = ehd.random_smooth(ehd.Grid(8), seed=11)
    with tracer.span("solver.run"):
        ehd.run(state, ehd.StepControl(dt=1e-3, t_end=steps * 1e-3), hooks=[stamp])
    return layer_metrics(tracer, stamps[0], stamps[-1], len(stamps) - 1)


def test_traced_counts_repeat_exactly_and_add_up():
    runs = []
    for _ in range(2):
        t = Tracer()
        t.install()
        try:
            runs.append(_traced_run(t))
        finally:
            t.uninstall()
    first, second = runs
    counts = [k for k in first if "fft" in k and "ms" not in k]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    total = first["spectral.fft_fwd_per_step"] + first["spectral.fft_inv_per_step"]
    assert total > 0
    # No observers: every step-phase transform belongs to the solver layer.
    assert first["solver.fft_per_step"] == total
    assert first["criteria.BKM.fft_per_step"] == 0
    assert first["audit.update_fft_per_step"] == 0


def test_missing_target_drops_its_metrics_only(monkeypatch):
    monkeypatch.delattr(ehd.solver, "derive")
    t = Tracer()
    t.install()
    try:
        assert "ehd.solver.derive" in t.missing
        with t.span("solver.run"):
            pass
        metrics = layer_metrics(t, 0.0, 1.0, 1)
    finally:
        t.uninstall()
    assert "solver.derive_ms_per_step" not in metrics
    assert "solver.fft_per_step" not in metrics
    assert "spectral.fft_fwd_per_step" in metrics
    assert "criteria.BKM.ms_per_step" in metrics
