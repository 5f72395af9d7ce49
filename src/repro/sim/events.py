"""The high-throughput discrete-event kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of scheduled
events.  Determinism is a design requirement (the evaluation depends on
it): all randomness flows through the simulator's seeded
:class:`random.Random`, and events scheduled at the same instant fire in
schedule order, so a run is a pure function of its seed and workload.

This kernel replaces the seed scheduler (retained verbatim as the test
reference :mod:`repro.sim.events_ref`) with three structural changes,
none of which may alter observable behavior — the differential suite
holds both kernels to byte-identical traces:

* **pooled, slotted event records** — an event is a plain 4-slot list
  ``[time, seq, fn, args]``, recycled through a free pool once fired.
  The heap orders records by C-level list comparison (``time`` then the
  unique ``seq``; ``fn`` is never reached), so there is no per-event
  handle object, no ``__lt__`` dispatch, and — via :meth:`Simulator.post`
  — no per-message lambda closure;
* **batch-pop of equal-timestamp instants** — :meth:`Simulator.run`
  drains every record at the current instant in one inner loop, paying
  the clock/bound bookkeeping once per *instant* instead of once per
  event;
* **wake-based process scheduling** — a :class:`Waker` is the kernel's
  coalesced timer: arming an armed waker is a no-op, so an idle component
  (e.g. a :class:`~repro.bloom.cluster.BloomNode` between deliveries)
  costs zero heap entries and is never polled.

Cancellation is a handle-side concern: :meth:`Simulator.schedule` returns
an :class:`EventHandle` whose ``cancel`` kills the record in place (the
heap lazily discards it), while the fire-and-forget :meth:`Simulator.post`
skips handle allocation entirely.  :attr:`Simulator.pending` counts live
events only — cancelled records awaiting lazy removal are not pending
(the seed kernel's miscount is fixed in both kernels).

Profiling (:mod:`repro.sim.profile`) attaches via
:attr:`Simulator.profiler`; when detached the hot loop pays one ``None``
check per event.

The socket backend's :class:`~repro.net.services.NetSimulator` is this
kernel paced by the wall clock, so both backends share one heap and one
ordering guarantee.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from heapq import heappop, heappush

from repro.errors import SimulationError

__all__ = [
    "EventHandle",
    "Simulator",
    "Waker",
    "make_simulator",
]

# Event records are plain lists so heapq compares them at C speed:
# [time, seq, fn, args].  ``seq`` is unique per simulator, so comparison
# never reaches the callable.  A record whose fn slot is None is dead
# (cancelled or already fired) and is discarded lazily on pop.
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3

# Free-pool cap: enough to absorb any realistic steady state without
# letting one pathological burst pin memory forever.
_POOL_LIMIT = 1 << 16


class EventHandle:
    """A cancellable reference to one scheduled event.

    Holds the pooled record plus its sequence number: after the record is
    recycled and reused for a different event, the stale handle's
    ``cancel`` no-ops on the seq mismatch.
    """

    __slots__ = ("_sim", "_rec", "time", "seq", "cancelled")

    def __init__(self, sim: "Simulator", rec: list) -> None:
        self._sim = sim
        self._rec = rec
        self.time = rec[_TIME]
        self.seq = rec[_SEQ]
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True
        rec = self._rec
        if rec[_SEQ] == self.seq and rec[_FN] is not None:
            rec[_FN] = None
            rec[_ARGS] = ()
            self._sim._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Waker:
    """A coalesced kernel wakeup: at most one pending event per waker.

    ``arm()`` schedules ``fn`` to fire ``delay`` from now — unless a
    wakeup is already pending, in which case it is a no-op.  The waker
    disarms itself immediately before calling ``fn``, so ``fn`` may
    re-arm it (the Bloom node tick loop).  This is how a process sleeps:
    no pending wakeup, no heap entry, never polled.
    """

    __slots__ = ("sim", "delay", "fn", "armed")

    def __init__(self, sim, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"waker delay must be >= 0, got {delay}")
        self.sim = sim
        self.delay = delay
        self.fn = fn
        self.armed = False

    def arm(self) -> None:
        """Schedule the wakeup unless one is already pending."""
        if not self.armed:
            self.armed = True
            self.sim.post(self.delay, self._fire)

    def _fire(self) -> None:
        self.armed = False
        self.fn()

    def __repr__(self) -> str:
        state = "armed" if self.armed else "idle"
        return f"Waker(delay={self.delay}, {state})"


class Simulator:
    """A deterministic, high-throughput discrete-event simulator.

    Parameters
    ----------
    seed:
        Seeds the simulator-wide random source.  Two simulators with the
        same seed and the same schedule of actions produce identical runs.
    """

    kernel = "fast"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._queue: list[list] = []
        self._pool: list[list] = []
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._profiler = None
        # The attached telemetry hub (repro.obs), read by message-level
        # instrumentation sites; the event loop itself never consults it.
        self.telemetry = None

    @property
    def pending(self) -> int:
        """Number of live scheduled events (cancelled ones excluded)."""
        return self._live

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, fn: Callable, args: tuple) -> list:
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            rec = pool.pop()
            rec[_TIME] = time
            rec[_SEQ] = seq
            rec[_FN] = fn
            rec[_ARGS] = args
        else:
            rec = [time, seq, fn, args]
        heappush(self._queue, rec)
        self._live += 1
        profiler = self._profiler
        if profiler is not None and len(self._queue) > profiler.heap_watermark:
            profiler.heap_watermark = len(self._queue)
        return rec

    def _recycle(self, rec: list) -> None:
        rec[_FN] = None
        rec[_ARGS] = ()
        if len(self._pool) < _POOL_LIMIT:
            self._pool.append(rec)

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to fire ``delay`` time units from now.

        Returns a cancellable handle; prefer :meth:`post` on paths that
        never cancel (it skips the handle allocation).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return EventHandle(self, self._push(self.now + delay, action, ()))

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, action)

    def post(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget: schedule ``fn(*args)`` with no handle.

        This is the hot path: the callable and its arguments go straight
        into a pooled record — no closure, no handle, no per-event
        allocation once the pool is warm.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._push(self.now + delay, fn, args)

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget scheduling at an absolute virtual time."""
        self.post(time - self.now, fn, *args)

    def waker(self, delay: float, fn: Callable[[], None]) -> Waker:
        """A coalesced wakeup timer firing ``fn`` (see :class:`Waker`)."""
        return Waker(self, delay, fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            rec = heappop(queue)
            fn = rec[_FN]
            if fn is None:
                self._recycle(rec)
                continue
            time = rec[_TIME]
            if time < self.now:
                raise SimulationError("event queue went back in time")
            args = rec[_ARGS]
            self._recycle(rec)
            self.now = time
            self._fired += 1
            self._live -= 1
            if self._profiler is not None:
                self._profiler._note_fire(fn, len(queue))
            fn(*args)
            return True
        return False

    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Drain the event queue; returns the final virtual time.

        ``until`` bounds virtual time (events beyond it stay queued);
        ``max_events`` bounds the number of events fired (a safety valve
        against runaway feedback loops).

        The loop batch-pops: once an instant is chosen, every record at
        that exact timestamp drains through the inner loop — the bound
        checks and clock assignment are paid per instant, not per event.
        Events a batch schedules *at the current instant* join the same
        batch (they carry higher seqs, so they fire after the records
        already queued, exactly as the reference kernel orders them).
        """
        queue = self._queue
        fired = 0
        while queue:
            rec = queue[0]
            if rec[_FN] is None:
                heappop(queue)
                self._recycle(rec)
                continue
            if max_events is not None and fired >= max_events:
                break
            time = rec[_TIME]
            if until is not None and time > until:
                self.now = until
                break
            self.now = time
            while queue and queue[0][_TIME] == time:
                if max_events is not None and fired >= max_events:
                    break
                rec = heappop(queue)
                fn = rec[_FN]
                if fn is None:
                    self._recycle(rec)
                    continue
                args = rec[_ARGS]
                self._recycle(rec)
                self._fired += 1
                self._live -= 1
                fired += 1
                if self._profiler is not None:
                    self._profiler._note_fire(fn, len(queue))
                fn(*args)
        if until is not None and self.now < until and not queue:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self):
        """The attached :class:`repro.sim.profile.SimProfiler`, if any."""
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"


# ----------------------------------------------------------------------
# substrate selection
# ----------------------------------------------------------------------
def make_simulator(seed: int = 0):
    """Build the simulator every cluster substrate runs on.

    Every cluster substrate (:class:`~repro.bloom.cluster.BloomCluster`,
    :class:`~repro.storm.executor.StormCluster`) builds its simulator
    here.  Inside a scoped socket backend
    (``repro.net.context.socket_backend``) this funnel returns the
    wall-clock :class:`~repro.net.services.NetSimulator` instead, and the
    whole run lands on real TCP transport behind the same channel
    contract.
    """
    from repro.net.context import active_config

    net_config = active_config()
    if net_config is not None:
        from repro.net.services import NetSimulator

        sim = NetSimulator(seed=seed, config=net_config)
    else:
        sim = Simulator(seed=seed)
    # Attach the active telemetry hub (repro.obs), when one is scoped —
    # e.g. BlazesApp.run(telemetry=...) — along with its profiler, so
    # every cluster built inside the block reports through it.  With no
    # active hub the attribute stays None and every instrumentation site
    # is a single pointer check.
    from repro.obs.telemetry import current

    hub = current()
    if hub is not None:
        sim.telemetry = hub
        if hub.profiler is not None:
            sim.profiler = hub.profiler
    return sim
