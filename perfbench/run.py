#!/usr/bin/env python3
"""Blazes benchmark entry point: one workload, timed or traced.

    python3 perfbench/run.py --workload adreport-scale --seed 1 --seconds 15 --trace 0

``--trace 0`` runs whole rounds of the workload's closed loop until
``--seconds`` have passed and prints every end-to-end metric.  ``--trace 1``
runs round 0 untraced, then again with span wrappers on every layer's entry
points, checks that both produced the same deterministic outputs, and
prints every per-layer metric with the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.summary import quantile, weighted_quantile  # noqa: E402
from perfbench.workloads import WORKLOADS, Cell, Round  # noqa: E402

# what building, tracing and the cell cache leave behind (gitignored)
OUT_DIR = Path(".perfbench-out")
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("cell_s_p50", "s"),
    ("cell_s_p90", "s"),
    ("cells_per_s", "1/s"),
    ("release_vt_p50", "vt"),
    ("release_vt_p99", "vt"),
    ("batch_latency_vt_p50", "vt"),
    ("batch_latency_vt_p99", "vt"),
    ("pace_overrun_s", "s"),
    ("peak_rss_mb", "MB"),
)


def isolate_environment(tmp: Path) -> None:
    """Run with shipped defaults, a private cell cache, and no stray state.

    Every ``BLAZES_*`` / ``REPRO_*`` knob is dropped (backend, kernel,
    engine, jobs, socket time scale), and the cell cache directory points
    at a fresh directory the benchmark deletes on exit.
    """
    for key in list(os.environ):
        if key.startswith(("BLAZES_", "REPRO_")):
            del os.environ[key]
    os.environ["BLAZES_CACHE_DIR"] = str(tmp / "cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def peak_rss_mb() -> float:
    """Peak RSS of this process and of any live pool worker, in MB."""
    import multiprocessing

    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


def measure_setup(workload: str) -> list[float]:
    """Fresh interpreter to ready-for-the-first-cell, several times."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
        samples.append(ready - start)
    return samples


def timed_run(workload, seed: int, seconds: float) -> list[Round]:
    """Whole rounds, back to back, until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(seed, len(rounds)))
    return rounds


def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, float]:
    cells = [cell for round_ in rounds for cell in round_.cells]
    walls = [cell.wall for cell in cells]
    busy = sum(round_.wall for round_ in rounds)
    release = [point for cell in cells for point in cell.summary["release"]]
    latency = [value for cell in cells for value in cell.summary["batch_latency"]]
    return {
        "setup_s": statistics.median(setup),
        "records_per_s": sum(cell.summary["records"] for cell in cells) / busy,
        "cell_s_p50": statistics.median(walls),
        "cell_s_p90": quantile(walls, 0.9),
        "cells_per_s": len(cells) / busy,
        "release_vt_p50": weighted_quantile(release, 0.5),
        "release_vt_p99": weighted_quantile(release, 0.99),
        "batch_latency_vt_p50": quantile(latency, 0.5),
        "batch_latency_vt_p99": quantile(latency, 0.99),
        "pace_overrun_s": statistics.median([cell.overrun for cell in cells]),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(workload, seed: int, spans_path: Path) -> tuple[dict, list[str], list[Cell]]:
    """Round 0 untraced, then traced; per-layer metrics and mismatches."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    reference = workload.run_round(seed, 0, digests=True)
    # the traced pass is serial; when the timed round used the pool, time
    # an untraced serial pass too so the overhead compares like with like
    baseline = reference
    if reference.engine and reference.engine["pool"]:
        baseline = workload.run_round(seed, 0, jobs=1)
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.setup()
        traced = workload.run_round(seed, 0, digests=True, jobs=1)
    finally:
        tracer.uninstall()
    traced_wall = sum(cell.wall for cell in traced.cells)
    untraced_wall = sum(cell.wall for cell in baseline.cells)
    overhead = traced_wall - untraced_wall
    mismatches = [
        f"{ref.name}: traced run changed {sorted(k for k in ref.det if ref.det[k] != new.det.get(k))}"
        for ref, new in zip(reference.cells, traced.cells)
        if ref.det != new.det
    ]
    if len(reference.cells) != len(traced.cells):
        mismatches.append("traced run ran a different number of cells")
    if reference.report_digest != traced.report_digest:
        mismatches.append("audit report_digest differs with tracing on")
    print(
        f"tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s"
        f" = {overhead:.3f} s over {len(traced.cells)} cells, {len(tracer)} spans"
    )
    if reference.report_digest:
        print(f"audit report_digest {reference.report_digest} (traced and untraced)")
    tracer.write(spans_path)
    print(f"spans written to {spans_path}")
    return layers.layer_metrics(tracer, traced.cells, reference, overhead), mismatches, traced.cells


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)).resolve()
    try:
        isolate_environment(tmp)
        from repro.exec import shutdown_shared_pool

        workload = WORKLOADS[args.workload]()
        try:
            if args.setup_probe:
                workload.setup()
                print("ready", flush=True)
                return 0
            return run(workload, args)
        finally:
            shutdown_shared_pool()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(workload, args) -> int:
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    setup = [] if args.trace else measure_setup(workload.name)
    workload.setup()
    if args.trace:
        from perfbench.layers import METRICS

        # one file per workload: the latest traced run replaces the last
        spans_path = OUT_DIR / f"spans-{workload.name}.tsv.gz"
        values, mismatches, cells = traced_run(workload, args.seed, spans_path)
        units = dict(METRICS)
    else:
        rounds = timed_run(workload, args.seed, args.seconds)
        cells = [cell for round_ in rounds for cell in round_.cells]
        values, mismatches = end_to_end(rounds, setup), []
        units = dict(END_TO_END)
        print(f"{len(rounds)} rounds, setup samples {[round(s, 4) for s in setup]}")
    disagree = [cell.name for cell in cells if cell.det.get("replicas_agree") is False]
    if disagree:
        print(f"uncoordinated replicas answered differently in {len(disagree)} cells: {disagree}")
    failed = [cell for cell in cells if cell.problems]
    for cell in failed:
        print(f"FAILED {cell.name}: {'; '.join(cell.problems)}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    result = {
        "correct": not failed and not mismatches,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
