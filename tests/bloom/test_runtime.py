"""Unit tests for the single-node Bloom timestep runtime."""

from __future__ import annotations

import pytest

from repro.bloom.ast import DeltaContext, GroupBy, Scan
from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError


class PathModule(BloomModule):
    """Transitive closure: a classic fixpoint program."""

    def setup(self):
        self.input_interface("edge", ["src", "dst"])
        self.output_interface("reach", ["src", "dst"])
        self.table("link", ["src", "dst"])
        self.table("path", ["src", "dst"])

    def rules(self):
        hop = self.join(
            self.scan("link"),
            self.project(self.scan("path"), [("src", "mid"), ("dst", "far")]),
            on=[("dst", "mid")],
        )
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("path", "<=", self.scan("link")),
            self.rule("path", "<=", self.project(hop, ["src", ("far", "dst")])),
            self.rule("reach", "<=", self.scan("path")),
        ]


class DeferredModule(BloomModule):
    def setup(self):
        self.input_interface("inp", ["v"])
        self.output_interface("out", ["v"])
        self.table("seen", ["v"])
        self.table("old", ["v"])

    def rules(self):
        return [
            self.rule("seen", "<=", self.scan("inp")),
            self.rule("old", "<+", self.scan("seen")),   # deferred copy
            self.rule("seen", "<-", self.scan("old")),   # delete what aged
            self.rule("out", "<=", self.scan("seen")),
        ]


def test_transitive_closure_reaches_fixpoint_in_one_tick():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2), (2, 3), (3, 4)])
    outputs = runtime.tick()
    assert outputs["reach"] == {
        (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
    }


def test_tables_persist_and_scratches_clear():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2)])
    runtime.tick()
    # next tick: input interface cleared, table retained
    outputs = runtime.tick()
    assert runtime.read("edge") == frozenset()
    assert runtime.read("link") == {(1, 2)}
    assert outputs["reach"] == {(1, 2)}


def test_incremental_input_extends_closure():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2)])
    runtime.tick()
    runtime.insert("edge", [(2, 3)])
    outputs = runtime.tick()
    assert (1, 3) in outputs["reach"]


def test_deferred_and_delete_apply_next_tick():
    runtime = BloomRuntime(DeferredModule())
    runtime.insert("inp", [(1,)])
    out1 = runtime.tick()
    assert out1["out"] == {(1,)}
    # tick 2: old <+ got (1,), so seen loses it at tick 3
    out2 = runtime.tick()
    assert out2["out"] == {(1,)}
    out3 = runtime.tick()
    assert out3["out"] == frozenset()


def test_insert_arity_checked():
    runtime = BloomRuntime(PathModule())
    with pytest.raises(BloomError):
        runtime.insert("edge", [(1, 2, 3)])


def test_insert_into_output_rejected():
    runtime = BloomRuntime(PathModule())
    with pytest.raises(BloomError):
        runtime.insert("reach", [(1, 2)])


def test_async_without_transport_raises():
    class Chatty(BloomModule):
        def setup(self):
            self.input_interface("inp", ["addr", "v"])
            self.channel("chan", ["@addr", "v"])

        def rules(self):
            return [self.rule("chan", "<~", self.scan("inp"))]

    runtime = BloomRuntime(Chatty())
    runtime.insert("inp", [("n1", 7)])
    with pytest.raises(BloomError):
        runtime.tick()


def test_async_rule_hands_tuples_to_transport():
    sent = []

    class Chatty(BloomModule):
        def setup(self):
            self.input_interface("inp", ["addr", "v"])
            self.channel("chan", ["@addr", "v"])

        def rules(self):
            return [self.rule("chan", "<~", self.scan("inp"))]

    runtime = BloomRuntime(
        Chatty(), on_channel_send=lambda chan, addr, row: sent.append((chan, addr, row))
    )
    runtime.insert("inp", [("n1", 7), ("n2", 8)])
    runtime.tick()
    assert sorted(sent) == [("chan", "n1", ("n1", 7)), ("chan", "n2", ("n2", 8))]


def test_has_pending_input_reflects_queues():
    runtime = BloomRuntime(PathModule())
    assert not runtime.has_pending_input
    runtime.insert("edge", [(1, 2)])
    assert runtime.has_pending_input
    runtime.tick()
    assert not runtime.has_pending_input


class ReplaceModule(BloomModule):
    """Defers both an insert and a delete of the same tuple."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("keep", ["v"])
        self.table("t", ["v"])

    def rules(self):
        return [
            self.rule("keep", "<=", self.scan("inp")),
            self.rule("t", "<+", self.scan("keep")),  # re-insert every step
            self.rule("t", "<-", self.scan("keep")),  # and delete it too
        ]


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_simultaneous_deferred_insert_and_delete(engine):
    """Bud's boundary order: deletes apply before inserts, insert wins.

    A tuple that is both ``<+``-inserted and ``<-``-deleted at the same
    timestep boundary survives (the delete removes the old copy, the
    insert puts it back) — the semantics the module docstring documents.
    """
    runtime = BloomRuntime(ReplaceModule(), engine=engine)
    runtime.insert("inp", [(1,)])
    runtime.tick()
    assert runtime.read("t") == frozenset()      # nothing pending yet
    runtime.tick()
    assert runtime.read("t") == {(1,)}           # insert+delete: survives
    runtime.tick()
    assert runtime.read("t") == {(1,)}           # and keeps surviving

    # direct pending-queue race, without rules: same outcome
    direct = BloomRuntime(PathModule(), engine=engine)
    direct.insert("edge", [(7, 8)])
    direct._pending_deletes.setdefault("edge", set()).add((7, 8))
    direct.tick()
    assert direct.read("edge") == {(7, 8)}


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_deferred_delete_of_still_derivable_row_is_restored(engine):
    """A ``<-`` of a row an instantaneous rule still derives is undone
    by the next tick's fixpoint (the naive engine re-asserts every rule;
    the incremental engine must match)."""

    class Underiveable(BloomModule):
        def setup(self):
            self.input_interface("inp", ["v"])
            self.table("src", ["v"])
            self.table("dst", ["v"])
            self.table("kill", ["v"])

        def rules(self):
            return [
                self.rule("src", "<=", self.scan("inp")),
                self.rule("dst", "<=", self.scan("src")),   # still derivable
                self.rule("kill", "<+", self.scan("src")),
                self.rule("dst", "<-", self.scan("kill")),  # deleted anyway
            ]

    runtime = BloomRuntime(Underiveable(), engine=engine)
    runtime.insert("inp", [(3,)])
    runtime.tick()
    assert runtime.read("dst") == {(3,)}
    for _ in range(3):
        runtime.tick()
        # the boundary delete removes (3,), the fixpoint re-derives it
        assert runtime.read("dst") == {(3,)}


class TableSink(BloomModule):
    """No output interfaces: quiescent state is skippable."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("t", ["v"])

    def rules(self):
        return [self.rule("t", "<=", self.scan("inp"))]


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_noop_tick_skipping(engine):
    """Duplicate table inserts are consumed without running a tick."""
    runtime = BloomRuntime(TableSink(), engine=engine)
    runtime.insert("inp", [(1,)])
    assert not runtime.tick_is_noop  # transient input pending
    runtime.tick()
    runtime.tick()  # drain the input interface: every transient empty now
    # a novel row is not skippable
    runtime.insert("t", [(2,)])
    assert not runtime.tick_is_noop
    assert not runtime.skip_noop_tick()
    runtime.tick()
    # re-delivering rows the table already holds is a pure no-op
    runtime.insert("t", [(1,), (2,)])
    assert runtime.tick_is_noop
    assert runtime.skip_noop_tick()
    assert runtime.ticks_skipped == 1
    assert not runtime.has_pending_input
    assert runtime.read("t") == {(1,), (2,)}
    # ...and a subsequent real tick still works
    runtime.insert("t", [(3,)])
    runtime.tick()
    assert runtime.read("t") == {(1,), (2,), (3,)}


def test_noop_tick_never_skipped_with_end_of_step_rules():
    runtime = BloomRuntime(DeferredModule())
    assert not runtime.tick_is_noop  # <+ / <- rules emit every tick
    assert not runtime.skip_noop_tick()


# ----------------------------------------------------------------------
# batch arity checks and the count-only aggregation invariant
# ----------------------------------------------------------------------
def test_check_rows_raises_check_arity_error_for_first_bad_row():
    decl = CollectionDecl("edge", CollectionKind.TABLE, ("src", "dst"))
    with pytest.raises(BloomError) as batch:
        decl.check_rows([(1, 2), (3,), (4, 5, 6)])
    with pytest.raises(BloomError) as single:
        decl.check_arity((3,))
    assert str(batch.value) == str(single.value)


def test_list_rows_are_stored_as_tuples():
    # the socket backend's JSON decode delivers rows as lists
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [[1, 2], [2, 3]])
    runtime.tick()
    assert runtime.read("link") == {(1, 2), (2, 3)}
    assert runtime.read("edge") == {(1, 2), (2, 3)}
    for name in ("edge", "link"):
        assert all(type(row) is tuple for row in runtime.storage[name])


def test_count_group_rejects_removal_of_absent_row():
    grouped = GroupBy(Scan("t", ("a", "b")), ["a"], [("n", "count", None)])
    ctx = DeltaContext({"t": {(1, 2), (1, 3)}})
    ctx.begin({})
    assert grouped.eval_delta(ctx) == (frozenset({(1, 2)}), frozenset())
    ctx.begin({"t": (frozenset(), frozenset({(7, 7)}))})
    with pytest.raises(BloomError, match="went negative"):
        grouped.eval_delta(ctx)
