"""Every name the benchmark's tracer wraps exists in ehd.

perfbench/tracing.py replaces ehd names (``ehd.cli.derive``,
``ehd.criteria.observe``, ``AuditLedger.update`` and others) with timing
wrappers, and leaves out the metrics of any name it cannot find.  This test
fails instead when a refactor renames such a name or stops importing it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
