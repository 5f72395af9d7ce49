"""The audit grid's cell function: the campaign's own cell, plus run summaries.

``audit_campaign`` takes no cell-function argument, so :func:`cells_through`
routes the campaign's ``evaluate`` call through :func:`audit_cell`, which
runs the campaign's cell function unchanged and appends one summary per
observed run (records committed, release times, batch latencies, message
counters).  The caller pops the summaries off each cell with
:func:`pop_runs`, which leaves the report exactly as the campaign built it
(same ``report_digest``).  ``audit_cell`` is module-level so pool workers
can unpickle it.
"""

from __future__ import annotations

import contextlib

from perfbench.summary import run_summary

RUNS_KEY = "perfbench_runs"


def audit_cell(**params) -> dict:
    """``repro.chaos.campaign._cell_metrics`` plus a summary of each run."""
    from repro.chaos import campaign
    from repro.chaos.harnesses import AppHarness

    runs: list[dict] = []
    observe_outcome = AppHarness.observe_outcome

    def observe(self, strategy, schedule, seed):
        observation, outcome = observe_outcome(self, strategy, schedule, seed)
        runs.append(run_summary(outcome, observation))
        return observation, outcome

    AppHarness.observe_outcome = observe
    try:
        metrics = campaign._cell_metrics(**params)
    finally:
        AppHarness.observe_outcome = observe_outcome
    return {**metrics, RUNS_KEY: runs}


@contextlib.contextmanager
def cells_through(fn=audit_cell):
    """Within the block, ``repro.exec.evaluate`` computes cells with ``fn``."""
    from repro.exec import engine

    evaluate = engine.evaluate

    def routed(name, scenarios, _fn, **kwargs):
        return evaluate(name, scenarios, fn, **kwargs)

    engine.evaluate = routed
    try:
        yield
    finally:
        engine.evaluate = evaluate


def pop_runs(report) -> list[list[dict]]:
    """Remove and return each cell's run summaries, in report order."""
    return [result.metrics.pop(RUNS_KEY) for result in report]
