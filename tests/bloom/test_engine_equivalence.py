"""Differential tests: the incremental engine against the naive reference.

The semi-naive engine of :mod:`repro.bloom.runtime` claims *exact*
equivalence with the retained naive engine — same fixpoints, same stratum
assignments, same output-interface contents, tick for tick, including the
accumulation artifacts of nonmonotonic rule bodies (intermediate
aggregates that land in persistent targets) and the boundary semantics of
``<+``/``<-``.  These tests check the claim two ways:

* seeded-random *programs*: a generator builds random rule sets over
  every operator (scan/project/calc/select/join/antijoin/groupby/union/
  const, all four merge ops; groupby over one- and two-column keys with
  single and multiple aggregates), skips unstratifiable draws, and drives
  both engines through a random multi-tick input schedule;
* hypothesis-random *schedules* over a fixed adversarial module that
  mixes recursion, aggregation, antijoin, deferred copy, and deletion.

Both engines evaluate the *same module instance* on purpose: per-rule
evaluation state must live in the runtime (DeltaContext), never on the
shared AST.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError

VALUES = range(4)


def _pred_even(row) -> bool:
    return row["a"] % 2 == 0


def _pred_le(row) -> bool:
    return row["a"] <= row["b"]


def _calc_sum(a, b) -> int:
    return (a + b) % 7


_PREDICATES = (_pred_even, _pred_le)
_AGGS = ("count", "sum", "min", "max")
_MULTI_AGGS = (
    [("n", "count", None)],
    [("n", "count", None), ("m", "count", None)],
    [("n", "count", None), ("m", "sum", "b")],
)


class RandomModule(BloomModule):
    """A random arity-2 Bloom program drawn from a seed."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        super().__init__(f"random{seed}")

    def setup(self) -> None:
        self.input_interface("in0", ["a", "b"])
        self.input_interface("in1", ["a", "b"])
        self.table("t0", ["a", "b"])
        self.table("t1", ["a", "b"])
        self.table("t2", ["a", "b"])
        self.scratch("s0", ["a", "b"])
        self.output_interface("out0", ["a", "b"])

    # -- random tree construction --------------------------------------
    def _leaf(self, rng: random.Random):
        if rng.random() < 0.15:
            rows = [
                (rng.choice(VALUES), rng.choice(VALUES))
                for _ in range(rng.randrange(3))
            ]
            return self.const(rows, ["a", "b"])
        return self.scan(
            rng.choice(["in0", "in1", "t0", "t1", "t2", "s0"])
        )

    def _tree(self, rng: random.Random, depth: int):
        if depth <= 0:
            return self._leaf(rng)
        kind = rng.choice(
            ["leaf", "project", "select", "calc", "join", "antijoin",
             "groupby", "union"]
        )
        if kind == "leaf":
            return self._leaf(rng)
        if kind == "project":
            child = self._tree(rng, depth - 1)
            return self.project(child, [("b", "a"), ("a", "b")])
        if kind == "select":
            child = self._tree(rng, depth - 1)
            pred = rng.choice(_PREDICATES)
            return self.select(child, pred, refs=["a", "b"])
        if kind == "calc":
            child = self._tree(rng, depth - 1)
            wide = self.calc(child, "c", _calc_sum, ["a", "b"])
            return self.project(wide, ["a", ("c", "b")])
        if kind == "join":
            left = self._tree(rng, depth - 1)
            right = self.project(
                self._tree(rng, depth - 1), [("a", "x"), ("b", "y")]
            )
            joined = self.join(left, right, on=[("b", "x")])
            return self.project(joined, ["a", ("y", "b")])
        if kind == "antijoin":
            left = self._tree(rng, depth - 1)
            right = self._tree(rng, depth - 1)
            on = rng.choice(([("a", "a")], [("b", "b")], [("a", "b")]))
            return self.notin(left, right, on=on)
        if kind == "groupby":
            child = self._tree(rng, depth - 1)
            if rng.random() < 0.5:
                # one- or two-column keys under several aggregates: one
                # or two counts run the per-key counter path, count+sum
                # the set path; two output columns project back to
                # arity 2
                keys = rng.choice((["a"], ["a", "b"]))
                aggs = rng.choice(_MULTI_AGGS)
                grouped = self.group_by(child, keys, aggs)
                first, second = rng.sample(grouped.schema, 2)
                return self.project(grouped, [(first, "a"), (second, "b")])
            agg = rng.choice(_AGGS)
            col = None if agg == "count" else "b"
            # a monotone hint exempts the aggregate from stratification,
            # so recursion through it is legal — only min/max terminate
            # there (they never mint values outside the finite domain;
            # count/sum would grow their own input forever)
            monotone = agg in ("min", "max") and rng.random() < 0.3
            return self.group_by(
                child,
                ["a"],
                [("b", agg, col)],
                monotone=monotone,
            )
        return self.union(self._tree(rng, depth - 1), self._tree(rng, depth - 1))

    def rules(self):
        rng = random.Random(f"program:{self._seed}")
        built = []
        for _ in range(rng.randrange(4, 9)):
            roll = rng.random()
            if roll < 0.7:
                op = "<="
                lhs = rng.choice(["t0", "t1", "t2", "s0", "out0"])
            elif roll < 0.85:
                op = "<+"
                lhs = rng.choice(["t0", "t1", "t2"])
            else:
                op = "<-"
                lhs = rng.choice(["t0", "t1", "t2"])
            built.append(self.rule(lhs, op, self._tree(rng, rng.randrange(1, 4))))
        return built


def _schedule(seed: int, ticks: int = 5) -> list[list[tuple[str, list[tuple]]]]:
    """Random external inserts per tick (interfaces and tables)."""
    rng = random.Random(f"schedule:{seed}")
    plan = []
    for _ in range(ticks):
        step = []
        for collection in ("in0", "in1", "t0"):
            if rng.random() < 0.8:
                rows = [
                    (rng.choice(VALUES), rng.choice(VALUES))
                    for _ in range(rng.randrange(4))
                ]
                if rows:
                    step.append((collection, rows))
        plan.append(step)
    return plan


def _run_differential(module: BloomModule, plan) -> None:
    incremental = BloomRuntime(module, engine="incremental")
    naive = BloomRuntime(module, engine="naive")
    assert incremental.strata() == naive.strata()
    for step in plan:
        for collection, rows in step:
            incremental.insert(collection, rows)
            naive.insert(collection, rows)
        assert incremental.tick() == naive.tick()
        for decl in module.declarations:
            assert incremental.read(decl.name) == naive.read(decl.name), (
                f"{module.name}: {decl.name} diverged"
            )
        assert incremental.has_pending_input == naive.has_pending_input
    # settle: deferred/deletion chains keep mutating state after input
    # stops; both engines must track each other to quiescence (bounded)
    for _ in range(4):
        if not naive.has_pending_input:
            break
        assert incremental.tick() == naive.tick()
        for decl in module.declarations:
            assert incremental.read(decl.name) == naive.read(decl.name)


def test_randomized_programs_and_schedules_are_engine_equivalent():
    """The satellite acceptance: identical fixpoints, strata, outputs."""
    checked = 0
    for seed in range(120):
        module = RandomModule(seed)
        try:
            BloomRuntime(module, engine="naive")
        except BloomError:
            continue  # unstratifiable draw (recursion through negation)
        _run_differential(module, _schedule(seed))
        checked += 1
    # the generator must actually exercise the space, not skip it
    assert checked >= 40, f"only {checked} stratifiable programs generated"


class AdversarialModule(BloomModule):
    """Recursion + aggregation + antijoin + deferred copy + deletion.

    Designed to hit every engine path at once: a transitive closure
    (recursive join) feeding a count aggregate in a higher stratum, an
    antijoin gate over a table that rows are deferred-deleted from, and a
    ``<+``/``<-`` aging pair that keeps state churning across boundaries.
    """

    def setup(self) -> None:
        self.input_interface("edge", ["a", "b"])
        self.table("link", ["a", "b"])
        self.table("path", ["a", "b"])
        self.table("fresh", ["a", "b"])
        self.table("old", ["a", "b"])
        self.output_interface("fan", ["a", "b"])
        self.output_interface("quiet", ["a", "b"])

    def rules(self):
        hop = self.join(
            self.scan("link"),
            self.project(self.scan("path"), [("a", "m"), ("b", "far")]),
            on=[("b", "m")],
        )
        counts = self.group_by(
            self.scan("path"), ["a"], [("b", "count", None)]
        )
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("path", "<=", self.scan("link")),
            self.rule("path", "<=", self.project(hop, ["a", ("far", "b")])),
            self.rule("fan", "<=", counts),
            self.rule("fresh", "<=", self.scan("edge")),
            self.rule("old", "<+", self.scan("fresh")),
            self.rule("fresh", "<-", self.scan("old")),
            self.rule(
                "quiet",
                "<=",
                self.notin(self.scan("link"), self.scan("fresh"), on=[("a", "a")]),
            ),
        ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_adversarial_module_equivalent_under_random_schedules(steps):
    module = AdversarialModule()
    plan = [[("edge", rows)] if rows else [] for rows in steps]
    _run_differential(module, plan)


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_engine_selection_is_explicit(engine):
    module = AdversarialModule()
    runtime = BloomRuntime(module, engine=engine)
    assert runtime.engine == engine
    assert engine in repr(runtime)


def test_unknown_engine_rejected():
    with pytest.raises(BloomError):
        BloomRuntime(AdversarialModule(), engine="turbo")
