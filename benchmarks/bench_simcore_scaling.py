"""Sim-kernel throughput: pooled fast kernel vs the seed scheduler.

Two sweeps share one report.  The ``kernel`` cells run a synthetic event
storm — self-rescheduling actors that also churn a schedule-and-cancel
timeout per firing, the allocation pattern the pooled records optimise —
on both kernels and report raw events/second from a
:class:`repro.sim.profile.SimProfiler`.  The ``fig12`` cells run the
paper's Figure 12 ad-network workload with frame-level delivery at full
scale (50 servers x 10k entries/server), the sweep the kernel rewrite
exists to make affordable: each strategy cell completes in seconds of
wall clock where the seed kernel at per-record granularity took minutes.

Run through the ``repro.bench`` harness::

    PYTHONPATH=src python -m benchmarks.bench_simcore_scaling [--smoke]

which writes ``BENCH_simcore.json`` (``BENCH_simcore-smoke.json`` for
``--smoke``), or with pytest for the floor/equivalence assertions::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_simcore_scaling.py
"""

from __future__ import annotations

import functools
import sys
import time

from repro.apps.ad_network import AdWorkload, run_ad_network
from repro.bench import BenchReport, JsonReporter, run_bench, sweep
from repro.sim import SimProfiler, events_ref, make_simulator

# Kernel microbench: ACTORS concurrent self-rescheduling event chains,
# run until the storm has fired this many actor events.
FULL_STORM_EVENTS = (200_000,)
SMOKE_STORM_EVENTS = (20_000,)
ACTORS = 50

# The Figure 12 sweep at paper scale: 50 ad servers x 10k entries each
# (500k clicks), shipped as frames so event count follows bursts.
FULL_SERVERS = 50
FULL_ENTRIES = 10_000
FULL_BATCH = 500
SMOKE_SERVERS = 3
SMOKE_ENTRIES = 120
SMOKE_BATCH = 30
FIG12_STRATEGIES = ("uncoordinated", "seal", "independent-seal")
SEED = 7
# the shipped kernel (built through make_simulator) and the seed
# scheduler it replaced, constructed directly as the reference
KERNELS = ("fast", "ref")

# Checked-in regression floor for CI (``bench-simcore-smoke``): fast-
# kernel storm throughput in events/second.  Local runs measure
# ~250,000; the floor leaves two orders of magnitude for slow CI runners.
EVENTS_PER_SECOND_FLOOR = 2_500.0

# The tentpole acceptance: every full-scale fig12 cell must finish in
# seconds, not minutes.  Local runs measure 9-15s per cell; the budget
# is per cell and generous for slow runners.
FULL_FIG12_WALL_BUDGET = 120.0


def _noop() -> None:
    pass


def measure_kernel(*, kernel: str, events: int) -> dict:
    """Drive one kernel through the event storm; report events/second.

    Each actor firing draws a delay from the simulator RNG, posts itself
    again, and schedules-then-cancels a timeout — so every firing costs
    one pooled post, one handle, and one cancellation, the per-message
    pattern of the network/retry path.  Both kernels execute the exact
    same storm (same RNG draws, same event order); ``fired`` and the
    final virtual time double as a bench-scale differential check.
    """
    if kernel == "ref":
        sim = events_ref.Simulator(seed=SEED)
    else:
        sim = make_simulator(seed=SEED)
    # the zero-overhead-when-disabled contract: no hub is active, so the
    # storm measures the bare kernel — the floor below holds with the
    # telemetry layer fully detached
    telemetry_detached = sim.telemetry is None
    budget = [events]

    def actor(tag: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        timeout = sim.schedule(5.0, _noop)
        sim.post(sim.rng.random(), actor, tag)
        timeout.cancel()

    for tag in range(ACTORS):
        sim.post(sim.rng.random(), actor, tag)
    profiler = SimProfiler()
    with profiler.observe(sim):
        sim.run()
    return {
        "events_fired": sim.fired,
        "events_per_second": profiler.events_per_second,
        "heap_watermark": profiler.heap_watermark,
        "final_virtual_time": round(sim.now, 9),
        "pending": sim.pending,
        "telemetry_detached": telemetry_detached,
    }


def measure_fig12(*, strategy: str, servers: int, entries_per_server: int) -> dict:
    """One full Figure 12 cell with frame-level delivery, timed."""
    batch = FULL_BATCH if entries_per_server >= FULL_ENTRIES else SMOKE_BATCH
    workload = AdWorkload(
        ad_servers=servers,
        entries_per_server=entries_per_server,
        batch_size=batch,
        sleep=0.25,
        campaigns=max(20, servers),
        frames=True,
    )
    started = time.perf_counter()
    result = run_ad_network(strategy, workload=workload, seed=SEED)
    elapsed = time.perf_counter() - started
    fired = result.cluster.sim.fired
    return {
        "clicks": workload.total_entries,
        "processed": result.processed_count(),
        "events_fired": fired,
        "events_per_second": fired / elapsed,
        "completion_time": result.completion_time,
        "replicas_agree": result.replicas_agree,
        "run_seconds": elapsed,
    }


def scenarios(smoke: bool = False) -> list:
    storm = SMOKE_STORM_EVENTS if smoke else FULL_STORM_EVENTS
    servers = SMOKE_SERVERS if smoke else FULL_SERVERS
    entries = SMOKE_ENTRIES if smoke else FULL_ENTRIES
    return sweep(
        "storm-{kernel}-n{events}",
        {"mode": ("kernel",), "kernel": KERNELS, "events": storm},
    ) + sweep(
        "fig12-{strategy}-s{servers}-e{entries_per_server}",
        {
            "mode": ("fig12",),
            "strategy": FIG12_STRATEGIES,
            "servers": (servers,),
            "entries_per_server": (entries,),
        },
    )


def measure(*, mode: str, **params) -> dict:
    if mode == "kernel":
        return measure_kernel(**params)
    return measure_fig12(**params)


def run_simcore(smoke: bool = False, *, jobs: int = 1, cache=None) -> BenchReport:
    """The kernel-storm + fig12-at-scale sweep; writes ``BENCH_simcore[-smoke].json``.

    ``jobs > 1`` or a cell cache routes through the evaluation engine and
    bypasses the in-process memo.
    """
    if jobs == 1 and cache is None:
        return _run_simcore_cached(smoke)
    return _run_simcore(smoke, jobs=jobs, cache=cache)


def _run_simcore(smoke: bool, *, jobs: int = 1, cache=None) -> BenchReport:
    from repro.exec import bench_cache_fields

    name = "simcore-smoke" if smoke else "simcore"
    return run_bench(
        name,
        scenarios(smoke),
        measure,
        reporter=JsonReporter(),
        jobs=jobs,
        cache=cache,
        cache_fields=bench_cache_fields(name),
    )


@functools.lru_cache(maxsize=None)
def _run_simcore_cached(smoke: bool) -> BenchReport:
    return _run_simcore(smoke)


def print_report(report: BenchReport) -> None:
    print()
    print("Sim-kernel throughput — pooled fast kernel vs seed scheduler")
    print(report.table("events_fired", "events_per_second", "processed"))
    for result in report.select(mode="kernel", kernel="ref"):
        fast = report.one(
            mode="kernel", kernel="fast", events=result.params["events"]
        )
        speedup = fast["events_per_second"] / result["events_per_second"]
        print(
            f"  storm n={result.params['events']}: "
            f"{speedup:.2f}x fast-kernel speedup"
        )


def test_kernels_agree_at_bench_scale():
    """Differential check at storm scale: same events, same virtual time."""
    report = run_simcore(smoke=True)
    for events in SMOKE_STORM_EVENTS:
        fast = report.one(mode="kernel", kernel="fast", events=events)
        ref = report.one(mode="kernel", kernel="ref", events=events)
        assert fast["events_fired"] == ref["events_fired"]
        assert fast["final_virtual_time"] == ref["final_virtual_time"]
        assert fast["pending"] == ref["pending"] == 0


def test_smoke_events_per_second_floor():
    """CI regression floor: fast-kernel storm throughput, hub detached.

    The floor doubles as the zero-overhead-when-disabled check for the
    telemetry layer: the storm must have run with no active hub (the
    instrumentation sites reduce to one attribute load + None test), and
    throughput must still clear the checked-in floor.
    """
    from repro.obs.telemetry import current

    assert current() is None  # no hub leaks into the bench process
    report = run_simcore(smoke=True)
    for events in SMOKE_STORM_EVENTS:
        fast = report.one(mode="kernel", kernel="fast", events=events)
        assert fast["telemetry_detached"]
        assert fast["events_per_second"] >= EVENTS_PER_SECOND_FLOOR, (
            f"{fast['events_per_second']:.0f} events/s below the "
            f"checked-in floor {EVENTS_PER_SECOND_FLOOR:.0f}"
        )


def test_smoke_fig12_cells_complete():
    """Every framed fig12 smoke cell processes the full click log."""
    report = run_simcore(smoke=True)
    for strategy in FIG12_STRATEGIES:
        cell = report.one(mode="fig12", strategy=strategy)
        assert cell["processed"] == cell["clicks"]
        assert cell["replicas_agree"]


def test_full_storm_fast_kernel_not_slower():
    """The rewrite must never lose to the seed kernel on its own storm."""
    report = run_simcore()
    for events in FULL_STORM_EVENTS:
        fast = report.one(mode="kernel", kernel="fast", events=events)
        ref = report.one(mode="kernel", kernel="ref", events=events)
        assert fast["events_per_second"] >= EVENTS_PER_SECOND_FLOOR
        assert fast["events_per_second"] >= ref["events_per_second"]


def test_full_fig12_sweep_completes_in_seconds():
    """The tentpole acceptance: 50 servers x 10k entries, seconds per cell."""
    report = run_simcore()
    print_report(report)
    for strategy in FIG12_STRATEGIES:
        cell = report.one(mode="fig12", strategy=strategy)
        assert cell["processed"] == cell["clicks"] == FULL_SERVERS * FULL_ENTRIES
        assert cell["replicas_agree"]
        assert cell["run_seconds"] <= FULL_FIG12_WALL_BUDGET, (
            f"fig12/{strategy} took {cell['run_seconds']:.1f}s, over the "
            f"{FULL_FIG12_WALL_BUDGET:.0f}s budget"
        )


def main(argv: list[str] | None = None) -> None:
    from benchmarks._adreport import cache_from_flags, jobs_from_flags

    argv = argv if argv is not None else sys.argv[1:]
    smoke = "--smoke" in argv
    report = run_simcore(
        smoke=smoke, jobs=jobs_from_flags(argv), cache=cache_from_flags(argv)
    )
    print_report(report)
    print()
    print(f"wrote {JsonReporter().path_for(report.name)}")


if __name__ == "__main__":
    main()
