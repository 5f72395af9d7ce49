"""The seal protocol: partition-local coordination (paper Section V-B1).

Producers embed *punctuations* into their streams: a punctuation for
partition ``p`` guarantees the producer will send no more records belonging
to ``p``.  A consumer executing an order-sensitive component buffers each
partition until it can prove the partition's contents are complete:

1. it looks up the set of producers responsible for the partition (one
   znode read per partition, exactly the "one call to Zookeeper per
   campaign" of Section VIII-B3); and
2. it waits until *every* producer in that set has sealed the partition —
   the unanimous voting round.  When a partition has a single producer the
   vote degenerates to that producer's own punctuation and no further
   synchronization is needed.

Once complete, the partition is released for processing — asynchronously
with respect to every other partition, which is why sealing scales where
global ordering does not.

When producers are scaled-out components, the producer set of a partition
is derived from the actual replica layout by
:class:`repro.coord.assignment.ReplicaAssignment`.  See
``docs/architecture.md`` for the full paper-section-to-module map.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from operator import itemgetter
from typing import Any

from repro.coord.ordering import OrderedInbox
from repro.coord.zookeeper import ZkClient
from repro.errors import SimulationError
from repro.obs.telemetry import current as _telemetry

__all__ = ["SealedStreamProducer", "SealManager", "DATA", "PUNCT", "FRAME"]

DATA = "seal.data"
PUNCT = "seal.punct"
FRAME = "seal.frame"

_SEAL_MARK = object()
_partition_of = itemgetter(0)
_FRAME_MARK = object()

Partition = Hashable


class SealedStreamProducer:
    """Producer-side helper: tag records with partitions and emit seals.

    A punctuation only means something if the consumer can tell which data
    records preceded it, but the simulated network reorders messages.  The
    producer therefore stamps every message on a ``(stream, destination)``
    channel with a dense sequence number and the consumer reassembles the
    channel in order — the role TCP plays for real punctuated streams.

    ``producer_id`` names this producer in the protocol; it defaults to
    the process name but may identify one *task replica* of a scaled-out
    component (see :class:`repro.coord.assignment.ReplicaAssignment`), so
    a single simulated process can host several protocol-level producers.

    ``frame_size`` > 1 turns on frame-level delivery: records buffer
    locally and ship as one :data:`FRAME` message per ``frame_size``
    records (per destination), cutting the simulated event count by that
    factor.  Frames ride the same per-destination sequence space as
    punctuations, and :meth:`seal` flushes before punctuating, so the
    protocol's ordering guarantee is untouched.  Callers that stop
    producing without sealing must :meth:`flush` to push out a partial
    trailing frame.
    """

    def __init__(
        self,
        process,
        stream: str,
        *,
        producer_id: str | None = None,
        frame_size: int = 1,
    ) -> None:
        if frame_size < 1:
            raise SimulationError(f"frame_size must be >= 1, got {frame_size}")
        self.process = process
        self.stream = stream
        self.producer_id = producer_id if producer_id is not None else process.name
        self.frame_size = frame_size
        self._sealed: set[Partition] = set()
        self._open: set[Partition] = set()
        self._chan_seq: dict[str, int] = {}
        self._frames: dict[str, list[tuple[Partition, Any]]] = {}

    def _next_seq(self, dst: str) -> int:
        seq = self._chan_seq.get(dst, 0)
        self._chan_seq[dst] = seq + 1
        return seq

    def send_record(self, dst: str, partition: Partition, record: Any) -> None:
        """Send one data record within a partition."""
        self.send_batch(dst, ((partition, record),))

    def send_batch(
        self, dst: str, items: Sequence[tuple[Partition, Any]]
    ) -> None:
        """Send ordered ``(partition, record)`` pairs to one destination.

        Equivalent to calling :meth:`send_record` on each pair in turn —
        same messages, same frame boundaries, same channel sequence
        numbers — but the sealed-partition check and the open-set update
        run once per batch, and framed records slice into the buffer.  A
        batch touching an already-sealed partition raises before anything
        is sent, naming the first such partition in batch order.
        """
        partitions = set(map(_partition_of, items))
        if not partitions.isdisjoint(self._sealed):
            partition = next(p for p, _ in items if p in self._sealed)
            raise SimulationError(
                f"producer {self.producer_id} already sealed partition "
                f"{partition!r} on stream {self.stream}"
            )
        self._open.update(partitions)
        if self.frame_size == 1:
            for partition, record in items:
                self.process.send(
                    dst,
                    DATA,
                    (self.stream, self._next_seq(dst), partition, record,
                     self.producer_id),
                )
            return
        start = 0
        while start < len(items):
            frame = self._frames.setdefault(dst, [])
            stop = start + self.frame_size - len(frame)
            frame.extend(items[start:stop])
            start = stop
            if len(frame) >= self.frame_size:
                self.flush(dst)

    def flush(self, dst: str | None = None) -> None:
        """Ship any buffered frame (all destinations when ``dst`` is None)."""
        if dst is None:
            for buffered in sorted(self._frames):
                self.flush(buffered)
            return
        frame = self._frames.get(dst)
        if not frame:
            return
        self._frames[dst] = []
        self.process.send(
            dst,
            FRAME,
            (self.stream, self._next_seq(dst), tuple(frame), self.producer_id),
        )

    def seal(self, dst: str, partition: Partition) -> None:
        """Punctuate: promise no more records for ``partition``."""
        # the punctuation must carry a higher channel seq than every
        # record it covers, so any partial frame ships first
        self.flush(dst)
        self._sealed.add(partition)
        self._open.discard(partition)
        self.process.send(
            dst,
            PUNCT,
            (self.stream, self._next_seq(dst), partition, self.producer_id),
        )

    def seal_all(self, dst: str) -> None:
        """Punctuate every partition this producer has touched."""
        for partition in sorted(self._open, key=repr):
            self.seal(dst, partition)

    @property
    def sealed_partitions(self) -> frozenset[Partition]:
        return frozenset(self._sealed)


class SealManager:
    """Consumer-side seal coordination for one input stream.

    Parameters
    ----------
    on_complete:
        Called with ``(partition, records)`` exactly once per partition,
        when its complete contents are known.
    producers_for:
        Synchronous partition-to-producer-set lookup (static topologies).
        Mutually exclusive with ``zk_client``.
    zk_client / registry_prefix:
        Asynchronous lookup through the znode store: the producer set of
        partition ``p`` lives at ``{registry_prefix}/{p!r}``.  The manager
        issues exactly one read per partition and caches the result.
    """

    def __init__(
        self,
        stream: str,
        on_complete: Callable[[Partition, list[Any]], None],
        *,
        producers_for: Callable[[Partition], frozenset[str]] | None = None,
        zk_client: ZkClient | None = None,
        registry_prefix: str = "producers",
    ) -> None:
        if (producers_for is None) == (zk_client is None):
            raise SimulationError(
                "SealManager requires exactly one of producers_for / zk_client"
            )
        self.stream = stream
        self.on_complete = on_complete
        self._producers_for = producers_for
        self._zk = zk_client
        self._registry_prefix = registry_prefix
        self._channels: dict[str, OrderedInbox] = {}
        self._buffers: dict[Partition, list[Any]] = {}
        self._seals: dict[Partition, set[str]] = {}
        self._producer_sets: dict[Partition, frozenset[str]] = {}
        self._lookups_inflight: set[Partition] = set()
        self.released: set[Partition] = set()
        self.late_records = 0
        self.registry_lookups = 0

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, msg) -> bool:
        """Route a network message; returns True when it belonged here.

        Messages from each producer are reassembled in channel-sequence
        order before the protocol sees them, so a punctuation can never
        overtake the data records it covers.
        """
        if msg.kind == DATA:
            stream, seq, partition, record, producer = msg.payload
            if stream != self.stream:
                return False
            self._channel(producer).offer(seq, (partition, record, producer))
            return True
        if msg.kind == PUNCT:
            stream, seq, partition, producer = msg.payload
            if stream != self.stream:
                return False
            self._channel(producer).offer(seq, (partition, _SEAL_MARK, producer))
            return True
        if msg.kind == FRAME:
            stream, seq, items, producer = msg.payload
            if stream != self.stream:
                return False
            self._channel(producer).offer(seq, (_FRAME_MARK, items, producer))
            return True
        return False

    def _channel(self, producer: str) -> "OrderedInbox":
        inbox = self._channels.get(producer)
        if inbox is None:
            inbox = OrderedInbox(self._apply_in_order)
            self._channels[producer] = inbox
        return inbox

    def _apply_in_order(self, item: tuple[Partition, Any, str]) -> None:
        partition, record, producer = item
        if record is _SEAL_MARK:
            self.on_seal(partition, producer)
        elif partition is _FRAME_MARK:
            self.on_frame(record, producer)
        else:
            self.on_data(partition, record, producer)

    def on_data(self, partition: Partition, record: Any, producer: str) -> None:
        """Buffer one record until its partition is complete."""
        if partition in self.released:
            # At-least-once networks can replay records after release.
            self.late_records += 1
            return
        self._buffers.setdefault(partition, []).append(record)
        self._ensure_producer_set(partition)

    def on_frame(
        self, items: Iterable[tuple[Partition, Any]], producer: str
    ) -> None:
        """Buffer a frame's ``(partition, record)`` pairs.

        The same effect as :meth:`on_data` per item: records append to
        their partition's buffer in frame order, producer-set lookups go
        out in first-appearance order, and records for already-released
        partitions count as late.  Buffering never releases a partition
        (only seals and registry replies do), so the frame is grouped by
        partition first and each partition's buffer is touched once.
        """
        groups: dict[Partition, list[Any]] = {}
        for partition, record in items:
            group = groups.get(partition)
            if group is None:
                groups[partition] = [record]
            else:
                group.append(record)
        buffers = self._buffers
        for partition, records in groups.items():
            if partition in self.released:
                self.late_records += len(records)
                continue
            buffered = buffers.get(partition)
            if buffered is None:
                buffers[partition] = records
            else:
                buffered.extend(records)
            self._ensure_producer_set(partition)

    def on_seal(self, partition: Partition, producer: str) -> None:
        """Record one producer's punctuation and release if unanimous."""
        if partition in self.released:
            return
        hub = _telemetry()
        if hub is not None:
            hub.note_decision("seal_vote", topic=f"seal:{self.stream}")
        self._seals.setdefault(partition, set()).add(producer)
        self._ensure_producer_set(partition)
        self._maybe_release(partition)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        """Best-effort simulated time for span events (0.0 without one)."""
        if self._zk is not None:
            try:
                return self._zk.process.now
            except AssertionError:  # process not registered yet
                return 0.0
        return 0.0

    def _ensure_producer_set(self, partition: Partition) -> None:
        if partition in self._producer_sets or partition in self._lookups_inflight:
            return
        hub = _telemetry()
        if hub is not None:
            hub.note_decision("registry_lookup", topic=f"seal:{self.stream}")
        if self._producers_for is not None:
            self.registry_lookups += 1
            self._producer_sets[partition] = frozenset(self._producers_for(partition))
            return
        assert self._zk is not None
        self._lookups_inflight.add(partition)
        self.registry_lookups += 1
        path = f"{self._registry_prefix}/{partition!r}"
        self._zk.get_znode(path, lambda value: self._registry_reply(partition, value))

    def _registry_reply(self, partition: Partition, value: Any) -> None:
        self._lookups_inflight.discard(partition)
        if value is None:
            raise SimulationError(
                f"no producer registry entry for partition {partition!r}"
            )
        self._producer_sets[partition] = frozenset(value)
        self._maybe_release(partition)

    def _maybe_release(self, partition: Partition) -> None:
        producers = self._producer_sets.get(partition)
        if producers is None:
            return
        sealed = self._seals.get(partition, set())
        if not producers <= sealed:
            return
        if partition in self.released:
            return
        self.released.add(partition)
        records = self._buffers.pop(partition, [])
        self._seals.pop(partition, None)
        hub = _telemetry()
        if hub is not None:
            part = (
                f"part:{partition}"
                if isinstance(partition, str)
                else f"part:{partition!r}"
            )
            hub.note_decision(
                "seal_release",
                topic=f"seal:{self.stream}",
                lineage=part,
                node=self.stream,
                time=self._clock(),
                detail=f"unanimous over {len(producers)} producers, "
                f"{len(records)} records",
            )
        self.on_complete(partition, records)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_partitions(self) -> frozenset[Partition]:
        """Partitions with buffered data not yet released."""
        return frozenset(self._buffers)

    def buffered_count(self, partition: Partition) -> int:
        """Number of records currently buffered for one partition."""
        return len(self._buffers.get(partition, ()))
