"""The benchmark's four workloads.

Each workload is a closed loop driven from one process: a round is a
fixed list of cells, the next cell starts when the previous one finishes,
and a cell is one complete app run to quiescence (for ``audit-grid``, one
campaign cell: an app x strategy x fault schedule over a seed triple).
Every input is generated from the round's seed, which derives from the
``--seed`` given to ``run.py``; the program receives only those inputs.

Cell wall time covers the run alone.  Correctness gates, reference
recounts and state digests run between cells, outside the cell timing.

Every workload has ``setup()`` and ``run_round(seed, index, *, digests,
jobs)``; ``digests`` adds committed-state digests for the traced-run
comparison, and ``jobs`` matters only to the grid, whose traced pass runs
serially.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import time

from perfbench import gates
from perfbench.summary import digest, merge_summaries, run_summary


@dataclasses.dataclass
class Cell:
    name: str
    wall: float
    summary: dict
    problems: list[str]
    # the run's deterministic outputs, compared between traced and untraced
    det: dict
    # wall seconds beyond the paced virtual time (sim backend: unpaced)
    overrun: float = 0.0


@dataclasses.dataclass
class Round:
    cells: list[Cell]
    # wall seconds of the timed region: the cells (plus pool dispatch on
    # the grid)
    wall: float
    report_digest: str | None = None
    engine: dict | None = None
    unsound_cells: int = 0


def round_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{index}").randrange(1, 2**31)


def _no_telemetry() -> None:
    from repro.obs import telemetry

    if telemetry.current() is not None:
        raise RuntimeError("a telemetry hub is active during a timed run")


def _settle() -> None:
    """Collect the finished cell's cyclic garbage between cells, so the
    collector's pauses do not land inside the next cell's timing."""
    gc.collect()


def _sim_det(summary: dict, state: str | None) -> dict:
    return {
        "events": summary["events"],
        "release": summary["release"],
        "batch_latency": summary["batch_latency"],
        "completion_vt": summary["completion_vt"],
        "state": state,
    }


class AdReportScale:
    """Framed Fig. 12 ad reporting at 50 servers, one cell per strategy."""

    name = "adreport-scale"
    strategies = ("uncoordinated", "seal", "independent-seal")

    def setup(self) -> None:
        from repro.api import get_app
        from repro.apps.ad_network import AdWorkload

        self.app = get_app("adnet")
        for strategy in self.strategies:
            self.app.analyze(strategy)
        self.workload = AdWorkload(
            ad_servers=50,
            entries_per_server=2000,
            batch_size=250,
            sleep=0.25,
            campaigns=50,
            requests=12,
            report_replicas=3,
            frames=True,
        )

    def run_round(self, seed: int, index: int, *, digests: bool = False, jobs: int = 1) -> Round:
        cell_seed = round_seed(self.name, seed, index)
        cells = []
        for strategy in self.strategies:
            _no_telemetry()
            start = time.perf_counter()
            outcome = self.app.run(
                strategy, seed=cell_seed, workload=self.workload, workload_seed=cell_seed
            )
            wall = time.perf_counter() - start
            _no_telemetry()
            result = outcome.result
            summary = run_summary(outcome)
            committed = {node: result.committed_state(node) for node in result.report_nodes}
            truth = result.ground_truth_state()
            problems = gates.adreport_problems(
                strategy,
                processed=result.processed_count(),
                clicks=self.workload.total_entries,
                replicas_agree=result.replicas_agree,
                committed=committed,
                truth=truth,
            )
            det = _sim_det(summary, digest(committed) if digests else None)
            # uncoordinated replicas may answer differently (see gates)
            det["replicas_agree"] = result.replicas_agree
            cells.append(Cell(f"{strategy}@{cell_seed}", wall, summary, problems, det, wall))
            del outcome, result, committed, truth
            _settle()
        return Round(cells, sum(cell.wall for cell in cells))


class WordcountStorm:
    """Storm word count, per-tuple delivery, sealed and transactional."""

    name = "wordcount-storm"
    strategies = ("sealed", "transactional")
    params = {"workers": 10, "total_batches": 80, "batch_size": 100, "frame_size": 1}

    def setup(self) -> None:
        from repro.api import get_app

        self.app = get_app("wordcount")
        for strategy in self.strategies:
            self.app.analyze(strategy)

    def run_round(self, seed: int, index: int, *, digests: bool = False, jobs: int = 1) -> Round:
        from repro.apps.wordcount import committed_store, reference_counts

        cell_seed = round_seed(self.name, seed, index)
        reference = reference_counts(
            self.params["total_batches"], self.params["batch_size"], cell_seed
        )
        cells = []
        for strategy in self.strategies:
            _no_telemetry()
            start = time.perf_counter()
            outcome = self.app.run(strategy, seed=cell_seed, **self.params)
            wall = time.perf_counter() - start
            _no_telemetry()
            summary = run_summary(outcome)
            store = committed_store(outcome.cluster)
            problems = gates.wordcount_problems(store, reference)
            state = digest(store) if digests else None
            cells.append(
                Cell(f"{strategy}@{cell_seed}", wall, summary, problems, _sim_det(summary, state), wall)
            )
            del outcome, store
            _settle()
        return Round(cells, sum(cell.wall for cell in cells))


def grid_jobs() -> int:
    """One pool worker per CPU, never more than the CPUs there are.

    Capped at 4 so the pool stays small on a host shared with others.
    """
    return max(1, min(os.cpu_count() or 1, 4))


class AuditGrid:
    """The full chaos audit over every registered app, on the warm pool."""

    name = "audit-grid"

    def setup(self) -> None:
        from repro.chaos.harnesses import audit_apps, harness_for
        from repro.exec import shared_pool

        for app in audit_apps():
            harness = harness_for(app)
            for strategy in harness.strategies:
                harness.predicted(strategy)
        self.jobs = grid_jobs()
        if self.jobs > 1:
            # spawn and warm every worker off the measurement clock
            shared_pool(self.jobs).run(dict, [{} for _ in range(self.jobs)])

    def run_round(self, seed: int, index: int, *, digests: bool = False, jobs: int | None = None) -> Round:
        from repro.chaos.campaign import audit_campaign
        from repro.exec import report_digest

        from perfbench.grid import cells_through, pop_runs

        seeds = random.Random(f"{self.name}:{seed}:{index}").sample(range(1, 2**31), 3)
        start = time.perf_counter()
        with cells_through():
            report = audit_campaign(seeds=seeds, jobs=jobs or self.jobs, cache=None)
        wall = time.perf_counter() - start
        runs = pop_runs(report)
        rows = [
            {
                "name": result.name,
                "app": result.params["app"],
                "strategy": result.params["strategy"],
                "status": result["status"],
                "observed": result["observed"],
            }
            for result in report
        ]
        problems = gates.grid_problems(rows)
        cells = []
        for result, cell_runs in zip(report, runs):
            summary = merge_summaries(cell_runs)
            det = {
                "events": result["events"],
                "release": summary["release"],
                "batch_latency": summary["batch_latency"],
                "observed": result["observed"],
            }
            cells.append(
                Cell(result.name, result.wall_seconds, summary, problems[result.name], det, result.wall_seconds)
            )
        return Round(
            cells,
            wall,
            report_digest=report_digest(report),
            engine=report.engine,
            unsound_cells=sum(row["status"] == "unsound" for row in rows),
        )


class SocketAdnet:
    """``adnet`` under ``seal`` on the loopback socket backend."""

    name = "socket-adnet"

    def __init__(self) -> None:
        # sim-backend committed state per seed: the gate's reference, run
        # once so the traced round traces only the socket run
        self.sim_committed: dict[int, dict] = {}

    def setup(self) -> None:
        from repro.api import get_app
        from repro.apps.ad_network import AdWorkload
        from repro.net.context import NetConfig

        self.app = get_app("adnet")
        self.app.analyze("seal")
        self.time_scale = NetConfig.from_env().time_scale
        self.workload = AdWorkload(
            ad_servers=5,
            entries_per_server=400,
            batch_size=50,
            sleep=0.1,
            campaigns=8,
            requests=4,
            report_replicas=2,
        )

    def _committed(self, outcome) -> dict:
        result = outcome.result
        return {node: result.committed_state(node) for node in result.report_nodes}

    def run_round(self, seed: int, index: int, *, digests: bool = False, jobs: int = 1) -> Round:
        cell_seed = round_seed(self.name, seed, index)
        kwargs = {"seed": cell_seed, "workload": self.workload, "workload_seed": cell_seed}
        start = time.perf_counter()
        outcome = self.app.run("seal", backend="socket", **kwargs)
        wall = time.perf_counter() - start
        summary = run_summary(outcome)
        committed = self._committed(outcome)
        if cell_seed not in self.sim_committed:
            self.sim_committed[cell_seed] = self._committed(
                self.app.run("seal", backend="sim", **kwargs)
            )
        problems = gates.socket_problems(
            processed=outcome.result.processed_count(),
            clicks=self.workload.total_entries,
            committed=committed,
            sim_committed=self.sim_committed[cell_seed],
        )
        # the socket backend's clock is the wall clock: only the committed
        # state and the record count are deterministic
        det = {"records": summary["records"], "state": digest(committed) if digests else None}
        overrun = wall - outcome.result.completion_time * self.time_scale
        cell = Cell(f"seal@{cell_seed}", wall, summary, problems, det, overrun)
        del outcome, committed
        _settle()
        return Round([cell], wall)


WORKLOADS = {
    workload.name: workload
    for workload in (AdReportScale, WordcountStorm, AuditGrid, SocketAdnet)
}
