"""Distributed Bloom: runtimes on simulated nodes exchanging channels.

A :class:`BloomNode` hosts one runtime; channel tuples route over the
simulated network by their location-specifier column.  Nodes tick lazily —
whenever input is pending — so virtual time advances with message flow,
and a scheduled tick whose pending input turns out to be a no-op (see
:meth:`~repro.bloom.runtime.BloomRuntime.skip_noop_tick`) is skipped
without re-running the fixpoint at all.

Input *delivery policies* implement the coordination strategies the
analyzer synthesizes (see :mod:`repro.bloom.rewrite`): plain asynchronous
delivery, totally ordered delivery through the sequencer, or seal-based
partition buffering.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.coord.zookeeper import ZK_KINDS
from repro.errors import BloomError
from repro.sim.events import make_simulator
from repro.sim.network import LatencyModel, Message, Process, make_network
from repro.sim.trace import Trace

__all__ = ["BloomNode", "BloomCluster", "CHANNEL_MSG", "INSERT_MSG", "ZK_KINDS"]

CHANNEL_MSG = "bloom.chan"
INSERT_MSG = "bloom.insert"


class BloomNode(Process):
    """One simulated node running one Bloom module instance."""

    def __init__(
        self,
        name: str,
        module: BloomModule,
        *,
        tick_delay: float = 0.0005,
        trace: Trace | None = None,
    ) -> None:
        super().__init__(name)
        self.module = module
        self.tick_delay = tick_delay
        self.trace = trace
        self.runtime = BloomRuntime(module, on_channel_send=self._channel_send)
        self.outputs_log: dict[str, set[tuple]] = {
            decl.name: set() for decl in module.outputs
        }
        self._wake = None
        self._plugins: list[Callable[[Message], bool]] = []
        self.on_tick: Callable[[dict[str, frozenset[tuple]]], None] | None = None

    # ------------------------------------------------------------------
    # plugins (coordination adapters intercept messages before default)
    # ------------------------------------------------------------------
    def add_plugin(self, handler: Callable[[Message], bool]) -> None:
        """Register a message interceptor; first handler returning True wins."""
        self._plugins.append(handler)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def recv(self, msg: Message) -> None:
        for plugin in self._plugins:
            if plugin(msg):
                return
        if msg.kind == CHANNEL_MSG:
            channel, row = msg.payload
            self.runtime.deliver(channel, tuple(row))
            self.schedule_tick()
        elif msg.kind == INSERT_MSG:
            collection, rows = msg.payload
            self.insert(collection, rows)
        else:
            raise BloomError(f"node {self.name} got unexpected message {msg.kind}")

    def _channel_send(self, channel: str, address: str, row: tuple) -> None:
        self.send(address, CHANNEL_MSG, (channel, row))

    # ------------------------------------------------------------------
    # external input and ticking
    # ------------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[tuple]) -> None:
        """Queue external tuples and schedule a timestep."""
        self.runtime.insert(collection, rows)
        self.schedule_tick()

    def schedule_tick(self) -> None:
        # A kernel wakeup, not a heap entry per call: arming an armed
        # waker is a no-op, so an idle node costs nothing and a busy one
        # coalesces any number of deliveries into the next tick.
        wake = self._wake
        if wake is None:
            wake = self._wake = self.sim.waker(self.tick_delay, self._do_tick)
        wake.arm()

    def _do_tick(self) -> None:
        # quiescence fast path: a tick whose only pending input is
        # redundant (e.g. duplicated deliveries of rows a table already
        # holds) is skipped outright instead of re-running the fixpoint
        telemetry = self.sim.telemetry
        if self.runtime.skip_noop_tick():
            if telemetry is not None:
                telemetry.count("bloom.ticks_skipped", self.name)
            return
        outputs = self.runtime.tick()
        if telemetry is not None:
            telemetry.count("bloom.ticks", self.name)
        for name, rows in outputs.items():
            fresh = rows - self.outputs_log[name]
            if fresh and self.trace is not None:
                for row in sorted(fresh):
                    self.trace.record(self.now, self.name, f"output:{name}", row)
            self.outputs_log[name] |= rows
        if self.on_tick is not None:
            self.on_tick(outputs)
        if self.runtime.has_pending_input:
            self.schedule_tick()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def ticks_skipped(self) -> int:
        """Scheduled ticks consumed by the quiescence fast path."""
        return self.runtime.ticks_skipped

    def read(self, collection: str) -> frozenset[tuple]:
        return self.runtime.read(collection)

    def output_history(self, name: str) -> frozenset[tuple]:
        """Every tuple the output interface has ever emitted."""
        return frozenset(self.outputs_log[name])


class BloomCluster:
    """A set of Bloom nodes on one simulated network."""

    def __init__(
        self,
        *,
        seed: int = 0,
        latency: LatencyModel | None = None,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        reliable_kinds: Iterable[str] = ZK_KINDS,
        retry_crashed: bool = False,
    ) -> None:
        self.sim = make_simulator(seed=seed)
        self.network = make_network(
            self.sim,
            latency=latency or LatencyModel(base=0.001, jitter=0.003),
            drop_prob=drop_prob,
            dup_prob=dup_prob,
            reliable_kinds=reliable_kinds,
            retry_crashed=retry_crashed,
        )
        self.trace = Trace()
        self._nodes: dict[str, BloomNode] = {}

    def add_node(
        self, name: str, module: BloomModule, *, tick_delay: float = 0.0005
    ) -> BloomNode:
        """Create, register, and return a node hosting ``module``."""
        node = BloomNode(name, module, tick_delay=tick_delay, trace=self.trace)
        self.network.register(node)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> BloomNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise BloomError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> tuple[BloomNode, ...]:
        return tuple(self._nodes.values())

    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        self.network.start()
        return self.sim.run(until=until, max_events=max_events)
