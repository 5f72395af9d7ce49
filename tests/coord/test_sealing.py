"""Unit tests for the seal protocol."""

from __future__ import annotations

import random

import pytest

from repro.coord import SealManager, SealedStreamProducer, ZkClient, install_zookeeper
from repro.errors import SimulationError
from repro.sim import LatencyModel, Network, Process, Simulator


class Producer(Process):
    def __init__(self, name, stream="c"):
        super().__init__(name)
        self.out = SealedStreamProducer(self, stream)

    def recv(self, msg):
        pass


class Consumer(Process):
    """Releases complete partitions into ``self.completed``."""

    def __init__(self, name, producers_for=None, use_zk=False, stream="c"):
        super().__init__(name)
        self.completed: list[tuple[object, list]] = []
        zk_client = ZkClient(self) if use_zk else None
        self.zk_client = zk_client
        self.seals = SealManager(
            stream,
            lambda partition, records: self.completed.append((partition, records)),
            producers_for=producers_for,
            zk_client=zk_client,
        )

    def recv(self, msg):
        if self.zk_client is not None and self.zk_client.handle(msg):
            return
        self.seals.handle(msg)


def build(seed=0, **net_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(0.001, 0.002), **net_kwargs)
    return sim, network


def test_single_producer_partition_releases_on_seal():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "k1", "r1")
        producer.out.send_record("cons", "k1", "r2")
        producer.out.seal("cons", "k1")

    sim.schedule(0.0, drive)
    sim.run()
    assert len(consumer.completed) == 1
    partition, records = consumer.completed[0]
    assert partition == "k1"
    assert sorted(records) == ["r1", "r2"]


def test_multi_producer_partition_waits_for_unanimous_vote():
    sim, network = build()
    producers = [Producer(f"p{i}") for i in range(3)]
    names = frozenset(p.name for p in producers)
    consumer = Consumer("cons", producers_for=lambda partition: names)
    for producer in producers:
        network.register(producer)
    network.register(consumer)

    def drive():
        for producer in producers:
            producer.out.send_record("cons", "k", f"r-{producer.name}")
        producers[0].out.seal("cons", "k")
        producers[1].out.seal("cons", "k")

    sim.schedule(0.0, drive)
    sim.run()
    assert consumer.completed == []  # one vote missing
    sim.schedule(0.0, lambda: producers[2].out.seal("cons", "k"))
    sim.run()
    assert len(consumer.completed) == 1
    assert len(consumer.completed[0][1]) == 3


def test_partitions_release_independently():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "a", 1)
        producer.out.send_record("cons", "b", 2)
        producer.out.seal("cons", "b")

    sim.schedule(0.0, drive)
    sim.run()
    assert [p for p, _ in consumer.completed] == ["b"]
    assert consumer.seals.pending_partitions == frozenset({"a"})
    assert consumer.seals.buffered_count("a") == 1


def test_producer_cannot_send_after_sealing():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.seal("cons", "k")
        with pytest.raises(SimulationError):
            producer.out.send_record("cons", "k", "late")

    sim.schedule(0.0, drive)
    sim.run()


def test_seal_all_punctuates_every_open_partition():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "a", 1)
        producer.out.send_record("cons", "b", 2)
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    assert sorted(p for p, _ in consumer.completed) == ["a", "b"]
    assert producer.out.sealed_partitions == frozenset({"a", "b"})


def test_duplicated_network_releases_each_partition_once():
    sim, network = build(seed=3, dup_prob=0.4)
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        for i in range(20):
            producer.out.send_record("cons", i % 4, i)
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    released = [p for p, _ in consumer.completed]
    assert sorted(released) == [0, 1, 2, 3]
    assert len(released) == len(set(released))


def test_zk_registry_lookup_once_per_partition():
    sim, network = build()
    zk = install_zookeeper(network)
    zk.preload_znode("producers/'k1'", ["p0"])
    zk.preload_znode("producers/'k2'", ["p0"])
    producer = Producer("p0")
    consumer = Consumer("cons", use_zk=True)
    network.register(producer)
    network.register(consumer)

    def drive():
        for i in range(10):
            producer.out.send_record("cons", "k1", i)
        producer.out.send_record("cons", "k2", "x")
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    assert sorted(p for p, _ in consumer.completed) == ["k1", "k2"]
    # one registry read per partition, regardless of record count
    assert consumer.seals.registry_lookups == 2
    assert zk.stats.reads == 2


def test_missing_registry_entry_raises():
    sim, network = build()
    install_zookeeper(network)
    producer = Producer("p0")
    consumer = Consumer("cons", use_zk=True)
    network.register(producer)
    network.register(consumer)
    sim.schedule(0.0, lambda: producer.out.seal("cons", "ghost"))
    with pytest.raises(SimulationError):
        sim.run()


def test_manager_requires_exactly_one_registry_mode():
    with pytest.raises(SimulationError):
        SealManager("s", lambda p, r: None)


# ----------------------------------------------------------------------
# batch paths: send_batch and on_frame against their per-item forms
# ----------------------------------------------------------------------
class Recorder:
    """A stand-in process that records every message it is asked to send."""

    def __init__(self, name="p0"):
        self.name = name
        self.sent: list[tuple[str, str, object]] = []

    def send(self, dst, kind, payload):
        self.sent.append((dst, kind, payload))


def _producer_script(rng: random.Random) -> list[tuple]:
    """Random batches, seals and flushes over a shrinking partition pool."""
    pool = [f"k{i}" for i in range(6)]
    script = []
    record = 0
    while pool:
        roll = rng.random()
        dst = rng.choice(("d0", "d1"))
        if roll < 0.7:
            items = []
            for _ in range(rng.randrange(0, 9)):
                items.append((rng.choice(pool), record))
                record += 1
            script.append(("batch", dst, items))
        elif roll < 0.85:
            partition = pool.pop(rng.randrange(len(pool)))
            script.append(("seal", dst, partition))
        else:
            script.append(("flush", dst, None))
    script.append(("flush", None, None))
    return script


@pytest.mark.parametrize("frame_size", (1, 3, 250))
@pytest.mark.parametrize("seed", range(5))
def test_send_batch_matches_send_record_loop(frame_size, seed):
    script = _producer_script(random.Random(f"send-batch:{seed}"))
    looped, batched = Recorder(), Recorder()
    by_record = SealedStreamProducer(looped, "c", frame_size=frame_size)
    by_batch = SealedStreamProducer(batched, "c", frame_size=frame_size)
    for op, dst, arg in script:
        if op == "batch":
            for partition, record in arg:
                by_record.send_record(dst, partition, record)
            by_batch.send_batch(dst, arg)
        elif op == "seal":
            by_record.seal(dst, arg)
            by_batch.seal(dst, arg)
        else:
            by_record.flush(dst)
            by_batch.flush(dst)
    assert batched.sent == looped.sent
    assert looped.sent  # the script did send something
    assert by_batch.sealed_partitions == by_record.sealed_partitions


def test_send_batch_rejects_sealed_partition_like_send_record():
    items = [("k2", 1), ("k1", 2), ("k3", 3)]
    errors = []
    for batched in (False, True):
        producer = SealedStreamProducer(Recorder(), "c", frame_size=3)
        producer.seal("d0", "k3")
        producer.seal("d0", "k1")
        with pytest.raises(SimulationError) as caught:
            if batched:
                producer.send_batch("d0", items)
            else:
                for partition, record in items:
                    producer.send_record("d0", partition, record)
        errors.append(str(caught.value))
    # both name the first sealed partition in send order
    assert errors[0] == errors[1]
    assert "'k1'" in errors[0]


class RecordingZk:
    """A stand-in registry client: records lookups, answers on demand."""

    def __init__(self):
        self.paths: list[str] = []
        self.callbacks: dict[str, object] = {}

    def get_znode(self, path, callback):
        self.paths.append(path)
        self.callbacks[path] = callback


def _manager():
    zk = RecordingZk()
    released = []
    manager = SealManager(
        "c", lambda partition, records: released.append(partition), zk_client=zk
    )
    return manager, zk, released


@pytest.mark.parametrize("seed", range(5))
def test_on_frame_matches_per_item_on_data(seed):
    rng = random.Random(f"on-frame:{seed}")
    partitions = ["done", "k0", "k1", "k2", "k3"]
    frames = [
        [(rng.choice(partitions), index * 10 + n) for n in range(rng.randrange(1, 12))]
        for index in range(8)
    ]
    states = []
    for batched in (False, True):
        manager, zk, released = _manager()
        # release one partition first, so later frames carry late items
        manager.on_data("done", "early", "p0")
        zk.callbacks["producers/'done'"](["p0"])
        manager.on_seal("done", "p0")
        assert released == ["done"]
        for frame in frames:
            if batched:
                manager.on_frame(frame, "p0")
            else:
                for partition, record in frame:
                    manager.on_data(partition, record, "p0")
        states.append(
            (
                list(manager._buffers.items()),
                manager.late_records,
                manager.registry_lookups,
                zk.paths,
            )
        )
    assert states[0] == states[1]
    assert states[0][1] > 0  # late items were exercised
