"""Per-layer metrics: which entry points the traced run wraps, and how
the spans and run counters turn into one number per layer metric.

Time metrics are summed span self times, in seconds, over the traced
round.  Counts come from the run summaries (the program's own counters,
identical with tracing on or off) or from span call counts at the same
boundaries.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence

from perfbench.summary import quantile
from perfbench.tracer import Tracer

# (metric, unit) in report order; README.md in this directory defines each
METRICS = (
    ("sim.events", "count"),
    ("sim.kernel_self_s", "s"),
    ("sim.network.msgs_sent", "count"),
    ("sim.network.msgs_per_record", "ratio"),
    ("sim.network.send_s", "s"),
    ("sim.network.faults", "count"),
    ("storm.recv_s", "s"),
    ("storm.items_per_frame", "ratio"),
    ("storm.replays", "count"),
    ("coord.seal.records", "count"),
    ("coord.seal.seals", "count"),
    ("coord.seal.send_s", "s"),
    ("coord.seal.handle_s", "s"),
    ("coord.assign.calls", "count"),
    ("coord.assign_s", "s"),
    ("coord.zk.ops", "count"),
    ("coord.zk.recv_s", "s"),
    ("bloom.ticks", "count"),
    ("bloom.tick_s", "s"),
    ("bloom.insert_s", "s"),
    ("bloom.rows_per_tick", "ratio"),
    ("apps.generate_s", "s"),
    ("apps.rows_generated", "count"),
    ("apps.bolt_execute_s", "s"),
    ("core.analyze_calls", "count"),
    ("core.analyze_s", "s"),
    ("chaos.observe_s", "s"),
    ("chaos.oracle_calls", "count"),
    ("chaos.oracle_s", "s"),
    ("chaos.unsound_cells", "count"),
    ("obs.notes", "count"),
    ("obs.note_s", "s"),
    ("exec.pool.utilization", "ratio"),
    ("exec.pool.tasks", "count"),
    ("exec.pool.chunks", "count"),
    ("exec.dispatch_s", "s"),
    ("net.frames_sent", "count"),
    ("net.bytes_sent", "count"),
    ("net.connects", "count"),
    ("net.reconnects", "count"),
    ("net.retransmits", "count"),
    ("net.acks_sent", "count"),
    ("net.deliver_late_ms_p50", "ms"),
    ("net.deliver_late_ms_p99", "ms"),
    ("net.quiesce_s", "s"),
    ("trace.overhead_s", "s"),
)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from repro.api.app import BlazesApp
    from repro.apps import wordcount
    from repro.apps.ad_network import AdServer
    from repro.bloom.runtime import BloomRuntime
    from repro.chaos import oracle
    from repro.chaos.harnesses import AppHarness
    from repro.coord.assignment import ReplicaAssignment
    from repro.coord.sealing import SealedStreamProducer, SealManager
    from repro.coord.zookeeper import ZookeeperService
    from repro.core import analysis, strategy
    from repro.net.services import NetSimulator, SocketNetwork
    from repro.obs.telemetry import Telemetry
    from repro.sim.events import Simulator
    from repro.sim.failure import FailureInjector
    from repro.sim.network import Network
    from repro.storm.executor import _BoltTask, _SpoutTask

    method = tracer.wrap_method
    # sim: kernel, network and fault policy
    method(Simulator, "run", "sim.run")
    method(Network, "send", "sim.network.send")
    method(FailureInjector, "reorder_window", "sim.faults.reorder")
    # storm
    method(_BoltTask, "recv", "storm.recv")
    method(_SpoutTask, "recv", "storm.recv")
    # coord
    method(SealedStreamProducer, "send_record", "coord.seal.send_record")
    method(SealedStreamProducer, "seal", "coord.seal.seal")
    method(SealManager, "handle", "coord.seal.handle")
    method(ReplicaAssignment, "task_for", "coord.assign")
    method(ZookeeperService, "recv", "coord.zk.recv")
    # bloom
    method(BloomRuntime, "tick", "bloom.tick")
    method(BloomRuntime, "insert", "bloom.insert", before=_count_rows(tracer))
    method(
        BloomRuntime, "deliver", "bloom.insert",
        after=lambda _args, _result: tracer.count("bloom.rows"),
    )
    # apps: input generation and word-count bolts
    method(
        AdServer, "__init__", "apps.generate",
        after=lambda args, _result: tracer.count("apps.rows", len(args[0].planned_entries)),
    )
    method(AdServer, "_burst", "apps.generate")
    method(
        wordcount.TweetSpout, "next_batch", "apps.generate",
        after=lambda _args, result: tracer.count("apps.rows", len(result or ())),
    )
    for bolt in (
        wordcount.SplitterBolt,
        wordcount.CountBolt,
        wordcount.CommitBolt,
        wordcount.EagerCountBolt,
        wordcount.EagerCommitBolt,
    ):
        method(bolt, "execute", "apps.bolt_execute")
    # core
    tracer.wrap_function(analysis, "analyze", "core.analyze")
    tracer.wrap_function(strategy, "choose_strategies", "core.analyze")
    # chaos: the harness minus the app run, and the oracle
    method(AppHarness, "observe_outcome", "chaos.observe")
    method(BlazesApp, "run", "api.run")
    tracer.wrap_function(oracle, "classify_runs", "chaos.oracle")
    # obs: the telemetry hub's per-message notes
    for attr in ("note_send", "note_delivery", "count"):
        method(Telemetry, attr, "obs.note")
    # net: lateness at ingest, last delivery to the run's return
    delivered, returned = _quiesce(tracer)
    method(SocketNetwork, "send", "net.send")
    method(SocketNetwork, "ingest", "net.ingest", before=_lateness(tracer))
    method(SocketNetwork, "_deliver", "net.deliver", after=delivered)
    method(NetSimulator, "run", "net.run", after=returned)


def _count_rows(tracer: Tracer):
    def before(args, kwargs):
        if len(args) > 2:
            runtime, collection, rows = args[0], args[1], args[2]
            if not isinstance(rows, (list, tuple, set, frozenset)):
                rows = list(rows)
            tracer.count("bloom.rows", len(rows))
            args = (runtime, collection, rows) + tuple(args[3:])
        return args, kwargs

    return before


def _lateness(tracer: Tracer):
    def before(args, kwargs):
        network, frame = args[0], args[1]
        sim = network.sim
        late = (sim.now - frame["at"]) * sim.config.time_scale * 1000.0
        tracer.sample("net.late_ms", late)
        return args, kwargs

    return before


def _quiesce(tracer: Tracer):
    """Hooks for the socket run: note each delivery, then on the run's
    return sample the wall time since the last one."""
    last: list[float] = []

    def delivered(_args, _result):
        last[:] = [time.perf_counter()]

    def returned(_args, _result):
        if last:
            tracer.sample("net.quiesce_s", time.perf_counter() - last.pop())

    return delivered, returned


def layer_metrics(
    tracer: Tracer,
    traced: Sequence,
    reference,
    overhead_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced round.

    ``traced`` are the traced round's cells; ``reference`` the untraced
    round of the same cells (source of the pool accounting).
    """
    spans = tracer.totals()

    def self_s(*names: str) -> float:
        return sum(spans[name]["self_s"] for name in names if name in spans)

    def calls(*names: str) -> int:
        return sum(spans[name]["calls"] for name in names if name in spans)

    def total(key: str):
        return sum(cell.summary[key] for cell in traced)

    def transport(key: str) -> int:
        return sum(cell.summary["transport"].get(key, 0) for cell in traced)

    records = total("records")
    ticks = calls("bloom.tick")
    frames = total("frames")
    late = tracer.samples.get("net.late_ms") or [0.0]
    quiesce = tracer.samples.get("net.quiesce_s") or []
    engine = reference.engine or {}
    pool = engine.get("pool") or {}
    dispatch = 0.0
    if pool:
        jobs = pool["jobs"]
        dispatch = reference.wall - sum(cell.wall for cell in reference.cells) / jobs
    values = {
        "sim.events": total("events"),
        "sim.kernel_self_s": self_s("sim.run"),
        "sim.network.msgs_sent": total("msgs_sent"),
        "sim.network.msgs_per_record": total("msgs_sent") / records if records else 0.0,
        "sim.network.send_s": self_s("sim.network.send"),
        "sim.network.faults": total("dropped") + total("duplicated") + calls("sim.faults.reorder"),
        "storm.recv_s": self_s("storm.recv"),
        "storm.items_per_frame": total("items") / frames if frames else 0.0,
        "storm.replays": total("replays"),
        "coord.seal.records": calls("coord.seal.send_record"),
        "coord.seal.seals": calls("coord.seal.seal"),
        "coord.seal.send_s": self_s("coord.seal.send_record"),
        "coord.seal.handle_s": self_s("coord.seal.handle"),
        "coord.assign.calls": calls("coord.assign"),
        "coord.assign_s": self_s("coord.assign"),
        "coord.zk.ops": total("zk_ops"),
        "coord.zk.recv_s": self_s("coord.zk.recv"),
        "bloom.ticks": ticks,
        "bloom.tick_s": self_s("bloom.tick"),
        "bloom.insert_s": self_s("bloom.insert"),
        "bloom.rows_per_tick": tracer.counters.get("bloom.rows", 0) / ticks if ticks else 0.0,
        "apps.generate_s": self_s("apps.generate"),
        "apps.rows_generated": tracer.counters.get("apps.rows", 0),
        "apps.bolt_execute_s": self_s("apps.bolt_execute"),
        "core.analyze_calls": calls("core.analyze"),
        "core.analyze_s": self_s("core.analyze"),
        "chaos.observe_s": self_s("chaos.observe"),
        "chaos.oracle_calls": calls("chaos.oracle"),
        "chaos.oracle_s": self_s("chaos.oracle"),
        "chaos.unsound_cells": reference.unsound_cells,
        "obs.notes": calls("obs.note"),
        "obs.note_s": self_s("obs.note"),
        "exec.pool.utilization": pool.get("utilization", 0.0),
        "exec.pool.tasks": pool.get("tasks", 0),
        "exec.pool.chunks": pool.get("chunks", 0),
        "exec.dispatch_s": dispatch,
        "net.frames_sent": transport("frames_sent"),
        "net.bytes_sent": transport("bytes_sent"),
        "net.connects": transport("connects"),
        "net.reconnects": transport("reconnects"),
        "net.retransmits": transport("retransmits"),
        "net.acks_sent": transport("acks_sent"),
        "net.deliver_late_ms_p50": statistics.median(late),
        "net.deliver_late_ms_p99": quantile(late, 0.99),
        "net.quiesce_s": sum(quiesce),
        "trace.overhead_s": overhead_s,
    }
    if set(values) != {name for name, _unit in METRICS}:
        raise RuntimeError("per-layer metrics and METRICS disagree")
    return values
