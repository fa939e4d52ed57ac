"""ehd benchmark: closed-loop runs of one workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run_charged32_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one ehd run after another (a closed loop with one client)
for the given seconds, after one untimed warm-up run, always with
EHD_THREADS=1.  Every run is checked; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of untraced runs.  Their times are
scaled to one reference machine speed by a probe timed next to each step
(see workloads.py); the unscaled step median is printed beside them.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (medians over runs, unscaled), plus the tracing
overhead.  `--workload all` runs every workload in a fresh process and
prints each one's report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    """What a result needs to be compared: read-only probes of this machine."""
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        level, ctype, size = (_read(f"{base}/index{i}/{k}") for k in ("level", "type", "size"))
        if size is not None:
            caches[f"L{level}{'' if ctype == 'Unified' else ctype[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "EHD_THREADS": os.environ.get("EHD_THREADS"),
        "caches": caches,
    }


def end_to_end(records) -> tuple[dict, dict]:
    """End-to-end metrics at reference machine speed, as medians over runs."""
    steps = [dt for r in records for dt in r.scaled_steps()]
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": statistics.median(r.setup_s() for r in records),
        "run_s": statistics.median(r.run_s() for r in records),
        "steps_per_s": statistics.median(r.steps_per_s() for r in records),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * p90,
        "finalize_s": statistics.median(r.finalize_s() for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_steps = [b - a for r in records for a, b in zip(r.resumes, r.stamps[1:])]
    samples = {
        "runs": len(records),
        "steps": len(steps),
        "steps_beyond_p90": sum(1 for s in steps if s > p90),
        "probe_ms_median": 1e3 * statistics.median(p for r in records for p in r.probes),
        "unscaled_step_ms_p50": 1e3 * statistics.median(raw_steps),
    }
    return metrics, samples


def per_layer(traced, untraced) -> dict:
    from tracing import layer_metrics

    per_run = [layer_metrics(r.tracer, r.stamps[0], r.stamps[-1], r.steps) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    traced_sps = statistics.median(r.steps_per_s() for r in traced)
    untraced_sps = statistics.median(r.steps_per_s() for r in untraced)
    metrics["trace.steps_per_s_traced"] = traced_sps
    metrics["trace.steps_per_s_untraced"] = untraced_sps
    metrics["trace.overhead_ratio"] = untraced_sps / traced_sps
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> int:
    src = ROOT / "src"
    if not (src / "ehd" / "__init__.py").is_file():
        print(f"perfbench: no ehd package under {src}", file=sys.stderr)
        return 2
    os.environ["EHD_THREADS"] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, clock, fft_caller_counts
    from workloads import WORKLOADS

    workdir = Path(".perfbench_work") / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        workload.prepare()
        warmup = _attempt(workload, None)
        records = []
        t0 = clock()
        # Closed loop: start another run only while it is expected to end
        # inside the window; a traced invocation needs one run of each kind.
        while True:
            tracer = Tracer() if trace and len(records) % 2 == 1 else None
            start = clock()
            records.append(_attempt(workload, tracer))
            now = clock()
            if now - t0 + (now - start) > seconds and (not trace or len(records) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = [warmup] + records
    failed = [r for r in attempted if not r.passed]
    # A run that completed is timed even when a check failed; the failure
    # is reported through `correct` and `failed`.
    completed = [r for r in records if r.completed]
    untraced = [r for r in completed if r.tracer is None]
    traced = [r for r in completed if r.tracer is not None]
    if not untraced or (trace and not traced):
        print(f"perfbench: no run of {name} completed", file=sys.stderr)
        return 1

    print(f"workload: {name}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    checks = {}
    for r in attempted:
        for k, v in r.checks.items():
            checks[k] = checks.get(k, True) and v
    print(f"checks: {json.dumps(checks, sort_keys=True)}  "
          f"failed_frac: {len(failed) / len(attempted):.4g} ({len(failed)}/{len(attempted)})")
    for note in sorted({n for r in attempted for n in r.notes}):
        print(f"  note: {note}")
    if trace:
        metrics = per_layer(traced, untraced)
        counts = [fft_caller_counts(r.tracer, r.stamps[0], r.stamps[-1]) for r in traced]
        print(f"fft counts repeat exactly across {len(traced)} traced runs: "
              f"{all(c == counts[0] for c in counts)}")
        steps = traced[0].steps
        for key, n in sorted(counts[0].items()):
            print(f"  fft/step {n / steps:8.3f}  {key}")
        missing = sorted({m for r in traced for m in r.tracer.missing})
        if missing:
            print("absent (wrapper target missing): " + ", ".join(missing))
    else:
        metrics, samples = end_to_end(untraced)
        print(f"samples: {json.dumps(samples)}")
    metrics = {k: metrics[k] for k in units if k in metrics}
    for key, value in metrics.items():
        print(f"  {key:<40} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _attempt(workload, tracer):
    """One run; an exception inside the program fails the run, not the benchmark."""
    from workloads import RunRecord

    try:
        return workload.run_once(tracer)
    except Exception:  # noqa: BLE001 - any failure of the program is a failed run
        traceback.print_exc()
        return RunRecord(0.0, workload.probe.reference_s, tracer=tracer,
                         checks={"no_exception": False})


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
        print()
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**63
    if args.workload == "all":
        return run_all(names, seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, seed, args.seconds, bool(args.trace), units)


if __name__ == "__main__":
    sys.exit(main())
