"""Program rewriting: install synthesized coordination on Bloom nodes.

The paper's "white box" pipeline ends with an automatic rewrite: programs
whose analysis demands coordination are augmented so their inputs arrive
through the chosen mechanism.  Here the rewrite is an *input delivery
policy* attached to a running :class:`~repro.bloom.cluster.BloomNode`:

* :class:`OrderedInputAdapter` — inputs flow through the Zookeeper
  sequencer; every replica applies them in the same total order;
* :class:`SealedInputAdapter` — inputs buffer per partition and apply only
  when the partition's complete contents are known (the seal protocol);
* :func:`apply_strategy` — maps a strategy object produced by
  :func:`repro.core.strategy.choose_strategies` onto the adapters.

Producers use the matching :class:`OrderedInputPublisher` /
:class:`~repro.coord.sealing.SealedStreamProducer` on their side.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from repro.bloom.cluster import BloomNode
from repro.coord.ordering import OrderedConsumer
from repro.coord.sealing import SealManager
from repro.coord.zookeeper import ZkClient
from repro.core.strategy import NoCoordination, OrderStrategy, SealStrategy
from repro.errors import BloomError
from repro.sim.network import Process

__all__ = [
    "OrderedInputAdapter",
    "OrderedInputPublisher",
    "SealedInputAdapter",
    "apply_strategy",
]


class OrderedInputPublisher:
    """Producer-side ordering: submit inputs to the sequencer topic."""

    def __init__(self, process: Process, topic: str, service: str = "zookeeper"):
        self.zk = ZkClient(process, service)
        self.topic = topic

    def publish(self, collection: str, row: tuple) -> None:
        """Submit one tuple for totally ordered delivery."""
        self.zk.submit(self.topic, (collection, tuple(row)))

    def handle(self, msg) -> bool:
        return self.zk.handle(msg)


class OrderedInputAdapter:
    """Consumer-side ordering: apply sequencer deliveries in order.

    Installed as a node plugin; every ``(collection, row)`` the sequencer
    delivers is inserted into the runtime in sequence order, so all
    replicas process identical input sequences — state-machine
    replication.

    Sequence order alone is not enough for replica agreement: Bloom nodes
    batch whatever input is pending into one timestep, so a replica whose
    deliveries bunched up (a reorder burst filling an inbox gap) would
    evaluate at *different points* of the sequence than one that received
    them spread out, and a standing query can emit from a transient state
    only one of them ever observes.  The adapter therefore paces releases:
    each sequenced value is applied in its own timestep, making the whole
    evaluation trajectory — not just the input order — a deterministic
    function of the sequencer's decision log.
    """

    def __init__(self, node: BloomNode, topic: str) -> None:
        self.node = node
        self.consumer = OrderedConsumer()
        self.inbox = self.consumer.on_topic(topic, self._enqueue)
        node.add_plugin(self.consumer.handle)
        self.applied = 0
        self._queue: deque[tuple[str, tuple]] = deque()
        self._draining = False

    def _enqueue(self, item: tuple[str, tuple]) -> None:
        self._queue.append(item)
        self._pump()

    def _pump(self) -> None:
        if self._draining or not self._queue:
            return
        self._draining = True
        collection, row = self._queue.popleft()
        self.node.insert(collection, [row])
        self.applied += 1
        # the tick for this value fires at tick_delay; release the next
        # one strictly after it so no two sequenced values share a step
        self.node.after(self.node.tick_delay * 1.5, self._release_next)

    def _release_next(self) -> None:
        self._draining = False
        self._pump()


class SealedInputAdapter:
    """Consumer-side sealing: buffer partitions until punctuated.

    ``stream`` names the sealed stream (producers must use a
    :class:`~repro.coord.sealing.SealedStreamProducer` with the same
    name); complete partitions are inserted into ``collection`` in one
    timestep, which is what makes the nonmonotonic component deterministic
    without global coordination.
    """

    def __init__(
        self,
        node: BloomNode,
        stream: str,
        collection: str,
        *,
        producers_for: Callable[[object], frozenset[str]] | None = None,
        use_zk_registry: bool = False,
        registry_prefix: str = "producers",
    ) -> None:
        self.node = node
        self.collection = collection
        zk_client = ZkClient(node) if use_zk_registry else None
        self._zk_client = zk_client
        self.manager = SealManager(
            stream,
            self._release,
            producers_for=producers_for,
            zk_client=zk_client,
            registry_prefix=registry_prefix,
        )
        node.add_plugin(self._handle)
        self.released_partitions = 0

    def _handle(self, msg) -> bool:
        if self._zk_client is not None and self._zk_client.handle(msg):
            return True
        return self.manager.handle(msg)

    def _release(self, partition, records: list) -> None:
        self.node.insert(self.collection, records)
        self.released_partitions += 1


def apply_strategy(
    node: BloomNode,
    strategy,
    *,
    topic: str | None = None,
    stream_collections: dict[str, str] | None = None,
    producers_for: Callable[[object], frozenset[str]] | None = None,
    use_zk_registry: bool = False,
):
    """Install the coordination a strategy object calls for on one node.

    Returns the adapter (or ``None`` for :class:`NoCoordination`).  For a
    :class:`SealStrategy`, ``stream_collections`` maps sealed stream names
    to the runtime collections their records target.
    """
    if isinstance(strategy, NoCoordination):
        return None
    if isinstance(strategy, OrderStrategy):
        return OrderedInputAdapter(node, topic or f"{strategy.component}.inputs")
    if isinstance(strategy, SealStrategy):
        stream_collections = stream_collections or {}
        adapters = []
        for stream, _key in strategy.partitions:
            collection = stream_collections.get(stream)
            if collection is None:
                raise BloomError(
                    f"no collection mapping for sealed stream {stream!r}"
                )
            adapters.append(
                SealedInputAdapter(
                    node,
                    stream,
                    collection,
                    producers_for=producers_for,
                    use_zk_registry=use_zk_registry,
                )
            )
        return adapters if len(adapters) != 1 else adapters[0]
    raise BloomError(f"unknown strategy {strategy!r}")
