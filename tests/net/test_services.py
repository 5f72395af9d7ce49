"""Behavior tests for the socket runtime: lifecycle, clock, quiescence."""

from __future__ import annotations

import time

import pytest

from repro.errors import SimulationError
from repro.net.context import NetConfig, socket_backend
from repro.net.services import NetSimulator, SocketTimeout
from repro.sim.events import make_simulator
from repro.sim.network import LatencyModel, Process, make_network

CFG = NetConfig(time_scale=0.5, poll_interval=0.005)


class Recorder(Process):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def recv(self, msg):
        self.got.append((msg.kind, msg.payload))


class Pinger(Recorder):
    def __init__(self, name, dst, count):
        super().__init__(name)
        self.dst = dst
        self.count = count

    def on_start(self):
        for i in range(self.count):
            self.send(self.dst, "ping", i)


def build(config=CFG, **net_kwargs):
    sim = NetSimulator(seed=7, config=config)
    net = make_network(
        sim, latency=LatencyModel(base=0.002, jitter=0.003), **net_kwargs
    )
    return sim, net


def test_make_simulator_respects_socket_scope():
    with socket_backend(CFG):
        assert isinstance(make_simulator(seed=1), NetSimulator)
    assert not isinstance(make_simulator(seed=1), NetSimulator)


def test_run_to_quiescence_delivers_everything():
    sim, net = build()
    a = net.register(Pinger("a", "b", 6))
    b = net.register(Recorder("b"))
    net.start()
    final = sim.run()
    assert [payload for _, payload in b.got] == sorted(
        payload for _, payload in b.got
    ) or len(b.got) == 6  # unreliable kind: all delivered, any order
    assert len(b.got) == 6
    assert net.sent == 6 and net.delivered == 6 and net.dropped == 0
    assert final > 0.0
    assert sim.now == final  # clock frozen at the final virtual time
    assert sim.fired >= 6


def test_prestart_timers_and_wakers_fire():
    sim, net = build()
    a = net.register(Recorder("a"))
    net.register(Recorder("b"))
    fired = []
    sim.schedule(0.01, lambda: fired.append("timer"))
    sim.post(0.02, lambda: a.send("b", "late", "x"))
    waker = sim.waker(0.005, lambda: fired.append("waker"))
    waker.arm()
    net.start()
    sim.run()
    assert "timer" in fired and "waker" in fired
    assert net.process("b").got == [("late", "x")]


def test_cancelled_timer_does_not_fire():
    sim, net = build()
    net.register(Recorder("a"))
    fired = []
    handle = sim.schedule(0.01, lambda: fired.append("no"))
    sim.schedule(0.02, lambda: fired.append("yes"))
    handle.cancel()
    assert sim.pending == 1
    sim.run()
    assert fired == ["yes"]


def test_same_instant_events_fire_in_post_order():
    """One virtual instant fires in post order, including events posted
    from inside earlier callbacks — the ordering guarantee the socket
    backend shares with the DES kernel."""
    sim, net = build()
    net.register(Recorder("a"))
    order = []

    def nest(tag):
        sim.post_at(0.05, order.append, tag)

    expected = []
    for index in range(20):
        sim.post_at(0.05, order.append, index)
        expected.append(index)
    sim.schedule_at(0.05, lambda: order.append("handle"))
    expected.append("handle")
    for index, at in enumerate((0.01, 0.02, 0.03)):
        sim.post(at, nest, f"nested-{index}")
        expected.append(f"nested-{index}")
    sim.run()
    assert order == expected


class LateScheduler(Recorder):
    """Schedules at absolute time 0.0 once the wall clock has moved on."""

    def __init__(self, name, fired):
        super().__init__(name)
        self.fired = fired
        self.handle = None

    def on_start(self):
        time.sleep(0.01)  # the wall clock passes virtual 0.02
        self.sim.post_at(0.0, self.fired.append, "post_at")
        self.handle = self.sim.schedule_at(0.0, lambda: self.fired.append("at"))


def test_past_absolute_time_fires_at_once():
    sim, net = build()
    fired = []
    late = net.register(LateScheduler("a", fired))
    net.start()
    sim.run()
    assert fired == ["post_at", "at"]
    # clamped to the wall clock's virtual time, not pushed into the past
    assert late.handle.time >= 0.02


def test_negative_delay_rejected():
    sim, _ = build()
    with pytest.raises(SimulationError, match="past"):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError, match="past"):
        sim.post(-0.1, lambda: None)


def test_socket_simulator_runs_once():
    sim, net = build()
    net.register(Recorder("a"))
    sim.run()
    with pytest.raises(SimulationError, match="once"):
        sim.run()


def test_callback_exception_propagates():
    sim, net = build()
    net.register(Recorder("a"))

    def boom():
        raise ValueError("from inside the loop")

    sim.schedule(0.005, boom)
    with pytest.raises(ValueError, match="from inside the loop"):
        sim.run()


def test_timeout_raises_with_forensics():
    sim, net = build(
        NetConfig(time_scale=0.5, poll_interval=0.005, timeout=0.05)
    )
    a = net.register(Pinger("a", "b", 2))
    net.register(Recorder("b"))

    # an endless virtual tick loop: the run can never quiesce
    def tick():
        sim.post(0.01, tick)

    sim.post(0.01, tick)
    net.start()
    with pytest.raises(SocketTimeout) as err:
        sim.run()
    assert err.value.timeout == 0.05
    assert err.value.virtual_time > 0.0
    assert err.value.pending >= 1


def test_until_bounds_virtual_time():
    sim, net = build()
    net.register(Recorder("a"))
    fired = []
    sim.schedule(0.01, lambda: fired.append("early"))
    sim.schedule(10.0, lambda: fired.append("far"))  # far beyond the bound
    final = sim.run(until=0.05)
    assert fired == ["early"]
    assert final == 0.05
    assert sim.pending == 1  # the far timer is still pending, as in the DES


def test_reliable_sends_are_exempt_from_loss():
    sim, net = build(drop_prob=1.0, reliable_kinds=("ping",))
    net.register(Pinger("a", "b", 5))
    b = net.register(Recorder("b"))
    net.start()
    sim.run()
    assert len(b.got) == 5
    assert net.dropped == 0


def test_unreliable_sends_can_be_lost():
    sim, net = build(drop_prob=1.0)
    net.register(Pinger("a", "b", 5))
    b = net.register(Recorder("b"))
    net.start()
    sim.run()
    assert b.got == []
    assert net.dropped == 5


def test_transport_summary_in_metrics_shape():
    sim, net = build()
    net.register(Pinger("a", "b", 3))
    net.register(Recorder("b"))
    net.start()
    sim.run()
    summary = net.transport_summary()
    assert summary["codec"] == "json"
    assert summary["nodes"] == 2
    assert summary["frames_sent"] >= 3
