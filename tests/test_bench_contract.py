"""The benchmark's workloads still measure the program they were written for.

perfbench/workloads.py drives the program through its public entry points
and adds a timing hook of its own: the `ehd run` workloads replace
`ehd.cli.run` to append it, and the library workload passes it to
`ehd.run`.  A refactor that bypasses either seam (say, `cmd_run` calling
`solver.run` directly) leaves the benchmark without a single step mark.
Each workload runs once here, untraced, as the benchmark runs it; the
workload module is imported, not copied.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_once_as_measured(name, tmp_path):
    workload = WORKLOADS[name](SEED, tmp_path)
    workload.prepare()
    record = workload.run_once()
    assert record.completed
    assert record.passed, (record.checks, record.notes)
    assert record.steps == workload.steps
    # The timing hook: one stamp, probe and resume at t = 0 and per step.
    calls = workload.steps + 1
    assert len(record.stamps) == len(record.probes) == len(record.resumes) == calls
