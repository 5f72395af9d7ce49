"""Plain-data summaries of finished runs, and the statistics over them.

:func:`run_summary` reads a finished run's counters and trace once, right
after the run, so the benchmark keeps only numbers (never clusters) from
cell to cell.  The same summary feeds the end-to-end metrics, the
per-layer counters, and the traced-vs-untraced comparison.
"""

from __future__ import annotations

import hashlib
import math


def run_summary(outcome, observation=None) -> dict:
    """Counters, release times and batch latencies of one ``RunOutcome``.

    ``release`` holds ``(virtual time, records)`` pairs: when input
    records became visible at the first reader (Bloom apps: the report
    replica's processed probe; Storm apps: each acked batch).
    ``batch_latency`` holds virtual emit-to-ack latencies of Storm batches,
    or, for the ad network, each burst wave's emit-to-visible lag.
    """
    from repro.coord.zookeeper import ZookeeperService
    from repro.storm.metrics import RunMetrics

    cluster = outcome.cluster
    network = cluster.network
    result = outcome.result
    summary = {
        "events": cluster.sim.fired,
        "msgs_sent": network.sent,
        "dropped": network.dropped,
        "duplicated": network.duplicated,
        "zk_ops": sum(
            process.stats.total_ops
            for process in network.processes
            if isinstance(process, ZookeeperService)
        ),
        "frames": 0,
        "items": 0,
        "replays": 0,
        "records": 0,
        "release": [],
        "batch_latency": [],
        "completion_vt": 0.0,
        "transport": dict(outcome.metrics.get("transport") or {}),
    }
    if isinstance(result, RunMetrics):
        emitted = {
            record.data: record.time
            for record in cluster.trace.select(event="batch_emitted")
        }
        summary.update(
            frames=result.frames_sent,
            items=result.items_sent,
            replays=result.replays,
            records=result.tuples_emitted,
            release=[(time, 1) for _batch, time in cluster.batches_acked],
            batch_latency=[
                time - emitted[batch]
                for batch, time in cluster.batches_acked
                if batch in emitted
            ],
            completion_vt=result.duration,
        )
    elif hasattr(result, "processed_series"):
        first = result.report_nodes[0]
        release = [
            (record.time, record.data)
            for record in cluster.trace.select(event=f"processed:{first}")
        ]
        summary.update(
            records=sum(weight for _time, weight in release),
            release=release,
            batch_latency=wave_latencies(result.workload, release),
            completion_vt=result.completion_time,
        )
    if observation is not None and observation.committed:
        # audited runs: rows the first replica durably committed
        first = min(observation.committed)
        summary["records"] = len(observation.committed[first])
    return summary


def wave_latencies(workload, release: list[tuple[float, int]]) -> list[float]:
    """Emit-to-visible lag of each burst wave of an ad-network run.

    Every ad server emits ``batch_size`` clicks at ``k * sleep``, so by
    then ``servers * min((k + 1) * batch_size, entries)`` clicks exist;
    wave ``k``'s latency is how long after ``k * sleep`` the first report
    replica has made that many visible.  Waves never fully visible are
    left out (the correctness gate reports the missing clicks).
    """
    servers, entries = workload.ad_servers, workload.entries_per_server
    waves = math.ceil(entries / workload.batch_size)
    latencies = []
    visible = 0
    points = iter(sorted(release))
    time = 0.0
    for wave in range(waves):
        target = servers * min((wave + 1) * workload.batch_size, entries)
        while visible < target:
            step = next(points, None)
            if step is None:
                return latencies
            time, weight = step
            visible += weight
        latencies.append(time - wave * workload.sleep)
    return latencies


def digest(value) -> str:
    """A short stable digest of committed state (sets sorted by repr)."""
    if isinstance(value, dict):
        items = sorted((repr(key), digest(item)) for key, item in value.items())
        text = repr(items)
    elif isinstance(value, (set, frozenset)):
        text = repr(sorted(map(repr, value)))
    else:
        text = repr(value)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    values = sorted(values)
    if not values:
        raise ValueError("quantile of no values")
    if len(values) == 1:
        return float(values[0])
    position = q * (len(values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def weighted_quantile(points, q: float) -> float:
    """The smallest value by which a ``q`` share of the total weight lies."""
    points = sorted(points)
    total = sum(weight for _value, weight in points)
    if total <= 0:
        raise ValueError("weighted quantile of no weight")
    running = 0
    for value, weight in points:
        running += weight
        if running >= q * total:
            return float(value)
    return float(points[-1][0])


def merge_summaries(summaries: list[dict]) -> dict:
    """One summary over several runs: counters add, samples concatenate."""
    merged = {
        "events": 0, "msgs_sent": 0, "dropped": 0, "duplicated": 0,
        "zk_ops": 0, "frames": 0, "items": 0, "replays": 0, "records": 0,
        "release": [], "batch_latency": [], "completion_vt": 0.0, "transport": {},
    }
    for summary in summaries:
        for key, value in summary.items():
            if key == "transport":
                for name, count in value.items():
                    if isinstance(count, int):
                        merged[key][name] = merged[key].get(name, 0) + count
            elif key == "completion_vt":
                merged[key] = max(merged[key], value)
            else:
                merged[key] = merged[key] + value
    return merged
