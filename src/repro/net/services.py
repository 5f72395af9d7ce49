"""Nodes as asyncio services + the Simulator-compatible socket runtime.

Three layers make a socket run look exactly like a simulated one to the
apps:

* :class:`NetSimulator` — the :class:`repro.sim.events.Simulator`
  itself, paced by the wall clock: its event heap drains whenever the
  head record's ``epoch + time * time_scale`` comes due on the asyncio
  loop, and ``now`` is read back off the running loop.
  Determinism of *decisions* survives (every random draw still flows
  through the seeded ``rng``); determinism of *interleavings* does not —
  which is the point of running on a real transport.
* :class:`SocketNetwork` — the :class:`repro.sim.network.Network`
  contract over TCP.  ``send`` encodes a frame and hands it to the
  transport; the receiving endpoint feeds it to the destination node's
  mailbox; the mailbox loop schedules delivery at the frame's sampled
  latency on the *virtual* clock.  Delivery-time policy (partitions,
  crashes, retries) is the inherited ``Network._deliver`` — the very
  code the simulator runs, consulting the same
  :mod:`repro.sim.faultpolicy` decisions.
* :class:`ServiceCluster` — lifecycle: brings the topology up (one
  :class:`~repro.net.transport.Endpoint` per node, one
  :class:`NodeService` mailbox task per node, the chaos watcher), runs
  the workload to **wall-clock quiescence** — the socket backend's
  replacement for the simulator's empty-heap condition: no live
  events, no frames in flight, no queued mailbox work, sustained for
  ``quiet_checks`` consecutive polls — then tears everything down.

A wall-clock budget (``NetConfig.timeout``) bounds the whole run: on
expiry the cluster tears down cleanly and :class:`SocketTimeout` is
raised, carrying enough state for a partial run directory.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.net import frames
from repro.net.chaosproxy import ChaosProxy
from repro.net.context import NetConfig
from repro.net.transport import TcpTransport
from repro.sim.events import EventHandle, Simulator
from repro.sim.network import Message, Network

__all__ = [
    "NetSimulator",
    "NodeService",
    "ServiceCluster",
    "SocketNetwork",
    "SocketTimeout",
]


class SocketTimeout(SimulationError):
    """A socket run exceeded its wall-clock budget and was torn down."""

    def __init__(
        self, *, timeout: float, virtual_time: float, fired: int, pending: int
    ) -> None:
        super().__init__(
            f"socket run exceeded its {timeout}s wall-clock budget "
            f"(virtual time {virtual_time:.4f}, {fired} events fired, "
            f"{pending} timers pending)"
        )
        self.timeout = timeout
        self.virtual_time = virtual_time
        self.fired = fired
        self.pending = pending


class NetSimulator(Simulator):
    """The discrete-event kernel, paced by the wall clock.

    The heap, handles, wakers, counters, and profiler hook are the
    inherited :class:`~repro.sim.events.Simulator`'s; only the way time
    advances differs (the precedent is SimPy's ``RealtimeEnvironment``).
    Virtual time maps onto wall time as ``wall = epoch + virtual *
    time_scale``.  One asyncio ``call_at`` is armed at the head record's
    wall time; when it fires, :meth:`_drain` runs everything due through
    the inherited :meth:`Simulator.run` and re-arms.  Events at one
    virtual instant therefore fire in post order, exactly as on the DES
    backend.

    ``now`` is read off the running loop, so a callback that fires late
    schedules relative to when it actually ran: the wall clock paces, the
    heap orders.  It is 0.0 before :meth:`run` and frozen at the final
    time after.
    Events posted before the run (workloads, chaos schedules) wait in the
    heap until the loop starts — the same "schedule then run" shape the
    discrete-event kernel has.

    One instance supports one :meth:`run`: a socket topology's dedup and
    session state cannot be resumed meaningfully, and no cluster
    substrate runs twice.
    """

    kernel = "socket"

    def __init__(self, seed: int = 0, config: NetConfig | None = None) -> None:
        super().__init__(seed)
        self.config = config or NetConfig()
        self.network: SocketNetwork | None = None
        self._running = False
        self._draining = False
        self._ran = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._until: float | None = None
        self._max_events: int | None = None
        # the loop's one timer handle, armed at the head record's wall time
        self._wakeup: asyncio.TimerHandle | None = None
        self._error: BaseException | None = None

    @property
    def now(self) -> float:
        if self._running:
            return (self._loop.time() - self._epoch) / self.config.time_scale
        return self._now

    @now.setter
    def now(self, value: float) -> None:
        self._now = value

    # ------------------------------------------------------------------
    # scheduling: the inherited heap plus one loop timer at its head
    # ------------------------------------------------------------------
    def _push(self, time: float, fn: Callable, args: tuple) -> list:
        rec = super()._push(time, fn, args)
        if self._running and not self._draining:
            wakeup = self._wakeup
            if wakeup is None or self._wall(time) < wakeup.when():
                self._arm()
        return rec

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at virtual time ``time`` (at once if past)."""
        return EventHandle(self, self._push(max(time, self.now), action, ()))

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget at virtual time ``time`` (at once if past).

        The absolute deadline is pushed as is: ``now + (time - now)``
        can round, and would reorder records sharing a deadline.
        """
        self._push(max(time, self.now), fn, args)

    def _wall(self, time: float) -> float:
        return self._epoch + time * self.config.time_scale

    def _arm(self) -> None:
        """Point the loop timer at the head record, if it is runnable."""
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        if not self._queue:
            return
        head = self._queue[0][0]
        if self._until is not None and head > self._until:
            return
        if self._max_events is not None and self._fired >= self._max_events:
            return
        self._wakeup = self._loop.call_at(self._wall(head), self._drain)

    def _drain(self) -> None:
        """Fire every record due by the wall clock, then re-arm."""
        self._wakeup = None
        until = self.now if self._until is None else min(self.now, self._until)
        budget = None if self._max_events is None else self._max_events - self._fired
        self._draining = True
        try:
            Simulator.run(self, until=until, max_events=budget)
        except BaseException as exc:  # noqa: BLE001 - surfaces after teardown
            self._record_error(exc)
            return
        finally:
            self._draining = False
        self._arm()

    def _record_error(self, exc: BaseException) -> None:
        """Capture the first callback failure; the run loop aborts on it."""
        if self._error is None:
            self._error = exc

    # ------------------------------------------------------------------
    # network construction (the make_network funnel)
    # ------------------------------------------------------------------
    def make_network(self, **kwargs) -> "SocketNetwork":
        """Build this simulator's socket-backed network (see
        :func:`repro.sim.network.make_network`)."""
        self.network = SocketNetwork(self, **kwargs)
        return self.network

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Bring the services up, run to quiescence, tear down.

        Mirrors the discrete-event ``run``: ``until`` bounds virtual
        time, ``max_events`` bounds fired events, and the return value is
        the final virtual time.  Additionally ``NetConfig.timeout``
        bounds *wall* time; expiry raises :class:`SocketTimeout` after a
        clean teardown.
        """
        if self._ran:
            raise SimulationError(
                "a socket-backed cluster runs once; build a new cluster"
            )
        self._ran = True
        self._until = until
        self._max_events = max_events
        status = asyncio.run(self._main())
        if self._error is not None:
            raise self._error
        if status == "timeout":
            raise SocketTimeout(
                timeout=self.config.timeout,
                virtual_time=self._now,
                fired=self._fired,
                pending=self._live,
            )
        return self._now

    async def _main(self) -> str:
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._running = True
        network = self.network
        cluster = ServiceCluster(self, network) if network is not None else None
        status = "error"
        try:
            if cluster is not None:
                await cluster.start()
            # pre-run state goes live in its scheduling order: buffered
            # sends first, then on_start hooks (which send live), then
            # the heap (workloads, chaos schedules)
            if network is not None:
                network._flush_outbox()
                network._run_start_hooks()
            self._arm()
            status = await self._wait()
        finally:
            self._finish(status)
            if cluster is not None:
                await cluster.stop()
        return status

    async def _wait(self) -> str:
        config = self.config
        deadline = None if self._until is None else self._wall(self._until)
        budget = (
            None if config.timeout is None else self._loop.time() + config.timeout
        )
        network = self.network
        quiet = 0
        while True:
            if self._error is not None:
                return "error"
            wall = self._loop.time()
            if budget is not None and wall >= budget:
                return "timeout"
            if self._max_events is not None and self._fired >= self._max_events:
                return "max_events"
            if deadline is not None and wall >= deadline:
                return "until"
            if self.pending == 0 and (network is None or not network.busy()):
                # quiescent means *sustained* quiet: no live events and
                # nothing in flight, over quiet_checks consecutive polls
                # (one quiet instant can be a frame between two hops)
                quiet += 1
                if quiet >= config.quiet_checks:
                    return "quiescent"
            else:
                quiet = 0
            await asyncio.sleep(config.poll_interval)

    def _finish(self, status: str) -> None:
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        current, until = self.now, self._until
        if until is not None:
            # a quiescent bounded run ends *at* the bound, as the DES does
            quiet = status in ("quiescent", "until")
            current = until if quiet else min(current, until)
        # unfired records stay pending in the heap
        self._now = current
        self._running = False


class SocketNetwork(Network):
    """The Network contract carried by the TCP transport.

    Send side: the loss/duplication decision and the latency sample are
    drawn from the seeded RNG exactly as the simulated network draws
    them, then the message travels as a real frame; the sampled latency
    rides along and delivery is scheduled at ``sent + latency`` on the
    virtual clock (a frame arriving early waits; one arriving late —
    loopback is fast, so this is rare — delivers immediately).

    Delivery side: the endpoint's mailbox hands the frame back here, and
    the *inherited* ``Network._deliver`` runs — same policy module, same
    counters, same telemetry sites as the simulator.  Reliable kinds
    deliver FIFO per ``(src, dst)``, because the session layer they model
    is ordered, which the simulator's independent latency draws do not
    guarantee but a TCP-backed session does: each link's delivery
    deadline never decreases, and the heap fires equal deadlines in post
    order.  (A blocked link still sends individual messages through the
    shared retry policy, so ordering across a partition matches the
    simulator's retry semantics, not strict FIFO.)
    """

    def __init__(self, sim: NetSimulator, **kwargs) -> None:
        super().__init__(sim, **kwargs)
        self.proxy = ChaosProxy(self)
        self.transport: TcpTransport | None = None
        self.services: dict[str, NodeService] = {}
        self._outbox: list[dict] = []
        self._seqs: dict[tuple[str, str], int] = {}
        # per-(src, dst) delivery deadline of the last reliable frame
        self._fifo: dict[tuple[str, str], float] = {}
        self._start_requested = False
        self._started = False

    # ------------------------------------------------------------------
    # channel contract
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Request ``on_start`` hooks; they run once the services are up."""
        self._start_requested = True

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        """Route one message over TCP; may drop, duplicate, and reorder."""
        if dst not in self._processes:
            raise SimulationError(f"message to unknown process {dst!r}")
        self.sent += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_send(kind, payload)
        copies = self.proxy.send_copies(kind)
        if copies == 0:
            self.dropped += 1
        elif copies == 2:
            self.duplicated += 1
        reliable = kind in self.reliable_kinds
        now = self.sim.now
        for _ in range(copies):
            self._uid += 1
            frame = {
                "src": src,
                "dst": dst,
                "kind": kind,
                "payload": frames.encode_value(payload),
                "uid": self._uid,
                "sent": now,
                "at": now + self.latency.sample(self.sim.rng),
            }
            if reliable:
                seq = self._seqs.get((src, dst), 0) + 1
                self._seqs[(src, dst)] = seq
                frame["seq"] = seq
            if self.transport is None:
                self._outbox.append(frame)
            else:
                self.transport.send(frame)

    # ------------------------------------------------------------------
    # receive path (transport -> mailbox -> virtual delivery)
    # ------------------------------------------------------------------
    def ingest(self, frame: dict) -> None:
        """Route one received frame to its node's mailbox (in-loop)."""
        service = self.services.get(frame["dst"])
        if service is not None:
            service.mailbox.put_nowait(frame)
        else:  # pragma: no cover - services cover every process
            self._deliver_frame(frame)

    def _deliver_frame(self, frame: dict) -> None:
        msg = Message(
            frame["src"],
            frame["dst"],
            frame["kind"],
            frames.decode_value(frame["payload"]),
            frame["sent"],
            frame["uid"],
        )
        deliver_at = frame["at"]
        if frame.get("seq") is not None:
            # reliable sessions deliver FIFO: the link's deadline never
            # decreases, and equal deadlines fire in post order
            key = (msg.src, msg.dst)
            deliver_at = max(deliver_at, self._fifo.get(key, deliver_at))
            self._fifo[key] = deliver_at
        # Network._deliver: the simulator's own delivery-policy code
        self.sim.post_at(deliver_at, self._deliver, msg)

    # ------------------------------------------------------------------
    # lifecycle (driven by ServiceCluster)
    # ------------------------------------------------------------------
    def _attach(
        self, transport: TcpTransport, services: dict[str, "NodeService"]
    ) -> None:
        self.transport = transport
        self.services = services

    def _flush_outbox(self) -> None:
        outbox, self._outbox = self._outbox, []
        for frame in outbox:
            self.transport.send(frame)

    def _run_start_hooks(self) -> None:
        if not self._start_requested or self._started:
            return
        self._started = True
        for process in self._processes.values():
            process.on_start()

    def busy(self) -> bool:
        """Messages still in flight anywhere outside the virtual timers?"""
        if self._outbox:
            return True
        if any(service.pending for service in self.services.values()):
            return True
        return self.transport is not None and self.transport.busy()

    def transport_summary(self) -> dict:
        return {} if self.transport is None else self.transport.summary()


class NodeService:
    """One node as a long-running service: a mailbox plus its drain task.

    The endpoint's reader enqueues received frames; this task dequeues
    them and schedules their delivery on the virtual clock.  The hop
    keeps per-node receive work ordered and gives the quiescence check a
    visible queue (``pending``) for frames between socket and timer.
    """

    def __init__(self, network: SocketNetwork, name: str) -> None:
        self.network = network
        self.name = name
        self.mailbox: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.create_task(self._run())

    @property
    def pending(self) -> int:
        return self.mailbox.qsize()

    async def _run(self) -> None:
        while True:
            frame = await self.mailbox.get()
            try:
                self.network._deliver_frame(frame)
            except BaseException as exc:  # noqa: BLE001 - aborts the run
                self.network.sim._record_error(exc)
                return

    def stop(self) -> None:
        self._task.cancel()


class ServiceCluster:
    """Topology lifecycle: bring services up, tear down."""

    def __init__(self, sim: NetSimulator, network: SocketNetwork) -> None:
        self.sim = sim
        self.network = network
        self.transport = TcpTransport(network, sim.config)

    async def start(self) -> None:
        network = self.network
        await self.transport.start()
        services = {
            process.name: NodeService(network, process.name)
            for process in network.processes
        }
        network._attach(self.transport, services)
        network.proxy.start(self.transport)

    async def stop(self) -> None:
        network = self.network
        network.proxy.stop()
        for service in network.services.values():
            service.stop()
        await self.transport.stop()
