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


def test_charged_run_observers_take_the_block_path(tmp_path, monkeypatch):
    """The observer hook of the run the benchmark times makes each of its
    transforms in the seam's block mode, three c2c passes each: grad psi,
    omega, grad u, the anisotropic norm's forward and five bands, and
    gn_ratios' forward; 19 per step, 22 at t = 0 and for the final
    snapshot, whose grad psi the run leaves lazy."""
    from test_snapshot import count_hooks

    workload = WORKLOADS["run_charged32_full"](SEED, tmp_path)
    workload.prepare()
    per_hook = count_hooks(monkeypatch)
    assert workload.run_once().passed
    assert [made for made, _ in per_hook] == [22] + [19] * (workload.steps - 1) + [22]
    assert all(passes == 3 * made for made, passes in per_hook)
