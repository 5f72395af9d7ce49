"""Single-node Bloom runtime: timestep (fixpoint) evaluation.

Bloom's operational model evaluates a program in *timesteps*.  Within one
timestep:

1. externally arriving tuples (channel deliveries, interface inserts) and
   merges deferred from the previous step become visible;
2. the instantaneous (``<=``) rules run to a set-theoretic fixpoint,
   *stratum by stratum*: a rule whose body aggregates or negates a
   collection belongs to a strictly higher stratum than every rule that
   feeds that collection, so nonmonotonic operators only ever observe the
   final contents of their inputs (stratified evaluation, as in classical
   Datalog and Bud; the paper leans on this in Section III-C);
3. the deferred (``<+``), deletion (``<-``), and asynchronous (``<~``)
   rules are evaluated against the fixpoint; deferred merges apply at the
   start of the next step, and async tuples are handed to the transport.

Tables persist across steps; scratches, channels, and interfaces are
emptied when a new step begins.  The fixpoint terminates because ``<=``
only ever adds tuples within a step.  Programs with recursion through
negation/aggregation are rejected as unstratifiable.

**Simultaneous deferred insert and delete.**  At a timestep boundary the
pending ``<-`` deletions are applied *before* the pending ``<+``
insertions.  A tuple that was both deferred-inserted and deferred-deleted
at the same boundary therefore survives: the delete removes (at most) the
old copy and the insert puts the tuple back.  This is Bud's behavior —
insertion wins a same-boundary race — and programs like the classic
"replace a row" idiom (``t <- old_row; t <+ new_row``) rely on delete
running first so a self-replacement is not lost.  The regression test
``test_simultaneous_deferred_insert_and_delete`` pins this down.

**Evaluation engines.**  Two engines implement the identical semantics:

``incremental`` (the default)
    Semi-naive evaluation: every rule keeps a materialized output and a
    :class:`~repro.bloom.ast.DeltaContext` of per-operator hash indexes,
    and only re-fires when one of the collections it scans actually
    changed (a dependency graph over cached per-rule scan sets).  Firing
    cost is proportional to the *change*, not to total state — the
    difference between per-tick work of O(|delta|) and the naive
    engine's O(|database|) rebuild, which is what dominated paper-scale
    (``--full``) workloads.

``naive``
    The textbook engine: every fixpoint iteration snapshots every
    collection and re-evaluates every rule of the stratum from scratch.
    Retained as the executable reference semantics; the differential
    tests in ``tests/bloom/test_engine_equivalence.py`` assert both
    engines produce identical fixpoints on randomized programs, and
    ``benchmarks/bench_fixpoint_scaling.py`` measures the gap.

Select the engine per runtime (``BloomRuntime(module, engine="naive")``);
every cluster substrate uses the default.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.bloom.ast import DeltaContext
from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.rules import Rule
from repro.errors import BloomError

__all__ = ["BloomRuntime", "ENGINES", "DEFAULT_ENGINE"]

ChannelSend = Callable[[str, str, tuple], None]

DEFAULT_ENGINE = "incremental"


@dataclasses.dataclass(frozen=True)
class RuleInfo:
    """Per-rule metadata computed once at runtime construction.

    ``scans`` and ``negated`` used to be recomputed per rule *per
    fixpoint iteration* inside stratification; they are now cached here
    and shared by the stratifier, the incremental engine's
    dependency-driven scheduler, and the quiescence checks.
    """

    rule: Rule
    scans: frozenset[str]
    negated: frozenset[str]
    decl: CollectionDecl

    @property
    def lhs(self) -> str:
        return self.rule.lhs


class BloomRuntime:
    """Evaluates one module instance, one timestep at a time.

    ``on_channel_send(channel, address, row)`` is invoked for every tuple
    an async rule inserts into a channel; the cluster layer routes it over
    the simulated network.  ``engine`` picks the evaluation engine (see
    the module docstring); it defaults to ``"incremental"``.
    """

    def __init__(
        self,
        module: BloomModule,
        *,
        on_channel_send: ChannelSend | None = None,
        engine: str | None = None,
    ) -> None:
        self.module = module
        self.on_channel_send = on_channel_send
        self.storage: dict[str, set[tuple]] = {
            decl.name: set() for decl in module.declarations
        }
        self._pending_inserts: dict[str, set[tuple]] = {}
        self._pending_deletes: dict[str, set[tuple]] = {}
        self.rule_infos: tuple[RuleInfo, ...] = tuple(
            RuleInfo(
                rule,
                rule.rhs.scans(),
                _negated_scans(rule.rhs),
                module.declaration(rule.lhs),
            )
            for rule in module.program
        )
        self._strata = _stratify(module, self.rule_infos)
        self._end_rules = tuple(
            info for info in self.rule_infos if not info.rule.instantaneous
        )
        engine = engine or DEFAULT_ENGINE
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise BloomError(
                f"unknown Bloom engine {engine!r}; have {sorted(ENGINES)}"
            ) from None
        self.engine = engine
        self._engine = engine_cls(self)
        self.tick_count = 0
        self.ticks_skipped = 0

    # ------------------------------------------------------------------
    # external input
    # ------------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[tuple]) -> None:
        """Queue tuples for the next timestep (external stimulus)."""
        decl = self.module.declaration(collection)
        if decl.kind is CollectionKind.OUTPUT:
            raise BloomError(f"cannot insert into output interface {collection!r}")
        self._pending_inserts.setdefault(collection, set()).update(
            decl.check_rows(rows)
        )

    def deliver(self, channel: str, row: tuple) -> None:
        """A network delivery into a channel (visible next timestep)."""
        decl = self.module.declaration(channel)
        if decl.kind is not CollectionKind.CHANNEL:
            raise BloomError(f"{channel!r} is not a channel")
        self._pending_inserts.setdefault(channel, set()).add(decl.check_arity(row))

    @property
    def has_pending_input(self) -> bool:
        """True when queued inserts/deletes will affect the next step."""
        return any(self._pending_inserts.values()) or any(
            self._pending_deletes.values()
        )

    # ------------------------------------------------------------------
    # quiescence
    # ------------------------------------------------------------------
    @property
    def tick_is_noop(self) -> bool:
        """Would running a tick now leave no observable trace?

        True only when the boundary would change nothing — no pending
        deletes, every pending insert targets a persistent collection
        that already holds the row (e.g. a duplicated network delivery),
        and every transient collection is already empty — *and* the
        module has no deferred/deletion/async rules (those emit on every
        tick regardless of change).  Skipping such a tick is exactly
        equivalent to running it.
        """
        if self.tick_count == 0:
            return False  # the first tick materializes Const-only rules
        if self._end_rules:
            return False
        if any(self._pending_deletes.values()):
            return False
        for decl in self.module.declarations:
            pending = self._pending_inserts.get(decl.name)
            if decl.transient:
                if pending or self.storage[decl.name]:
                    return False
            elif pending and not pending <= self.storage[decl.name]:
                return False
        return True

    def skip_noop_tick(self) -> bool:
        """Consume the pending queues without evaluating, if a no-op.

        The cluster layer's quiescence fast path: returns True (and
        drains the no-op pending input) when :attr:`tick_is_noop`,
        otherwise leaves the runtime untouched for a real :meth:`tick`.
        """
        if not self.tick_is_noop:
            return False
        self._pending_inserts = {}
        self._pending_deletes = {}
        self.ticks_skipped += 1
        return True

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def tick(self) -> dict[str, frozenset[tuple]]:
        """Run one timestep; returns the contents of output interfaces."""
        outputs = self._engine.tick()
        self.tick_count += 1
        return outputs

    def _apply_boundary(self) -> tuple[dict[str, tuple[frozenset, frozenset]], set[str]]:
        """Start of step: clear transients, apply deletes then inserts.

        Returns the net per-collection ``(added, removed)`` deltas plus
        the set of collections that lost rows (the incremental engine
        must re-assert rule outputs into those).  Deletes apply before
        inserts — see the module docstring on simultaneous ``<+``/``<-``.
        """
        deltas: dict[str, tuple[frozenset, frozenset]] = {}
        shrunk: set[str] = set()
        for decl in self.module.declarations:
            name = decl.name
            current = self.storage[name]
            if decl.transient:
                pending = self._pending_inserts.get(name)
                if not current and not pending:
                    continue
                new_rows = set(pending) if pending else set()
                added = frozenset(new_rows - current)
                removed = frozenset(current - new_rows)
                self.storage[name] = new_rows
            else:
                deletes = self._pending_deletes.get(name) or frozenset()
                inserts = self._pending_inserts.get(name) or frozenset()
                if not deletes and not inserts:
                    continue
                removed = frozenset((deletes & current) - inserts)
                added = frozenset(inserts - current)
                current -= removed
                current |= added
            if added or removed:
                deltas[name] = (added, removed)
            if removed:
                shrunk.add(name)
        self._pending_inserts = {}
        self._pending_deletes = {}
        return deltas, shrunk

    def _send_async(self, channel: str, rows: Iterable[tuple]) -> None:
        decl = self.module.declaration(channel)
        if decl.kind is not CollectionKind.CHANNEL:
            raise BloomError(
                f"async rules must target channels; {channel!r} is a "
                f"{decl.kind.value}"
            )
        if self.on_channel_send is None:
            raise BloomError(
                f"module {self.module.name} sends on channel {channel!r} but "
                f"no transport is attached"
            )
        address_index = decl.columns.index(decl.address_column)
        # engine-independent send order: set iteration order depends on
        # construction history, which differs between engines
        for row in sorted(rows, key=repr):
            self.on_channel_send(channel, row[address_index], row)

    def _collect_outputs(self) -> dict[str, frozenset[tuple]]:
        return {
            decl.name: frozenset(self.storage[decl.name])
            for decl in self.module.outputs
        }

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def read(self, collection: str) -> frozenset[tuple]:
        """Contents of a collection as of the end of the last timestep."""
        self.module.declaration(collection)
        return frozenset(self.storage[collection])

    def count(self, collection: str) -> int:
        """Cardinality of a collection without snapshotting it.

        ``len(read(...))`` copies the whole collection into a frozenset;
        per-tick probes over large tables (the fig12 processed-records
        probe) need the O(1) answer.
        """
        self.module.declaration(collection)
        return len(self.storage[collection])

    def strata(self) -> tuple[tuple[Rule, ...], ...]:
        """The stratified instantaneous program (for tests/inspection)."""
        return tuple(
            tuple(info.rule for info in stratum) for stratum in self._strata
        )

    def __repr__(self) -> str:
        return (
            f"BloomRuntime({self.module.name!r}, engine={self.engine!r}, "
            f"ticks={self.tick_count})"
        )


class _NaiveEngine:
    """Textbook stratified-naive evaluation (the reference semantics).

    Every fixpoint iteration rebuilds a full frozenset snapshot of every
    collection and re-evaluates every rule in the stratum from scratch;
    per-tick cost grows with total state.  Kept as the executable
    specification the incremental engine is differentially tested
    against, and as the baseline of ``bench_fixpoint_scaling``.
    """

    def __init__(self, runtime: BloomRuntime) -> None:
        self.runtime = runtime

    def tick(self) -> dict[str, frozenset[tuple]]:
        rt = self.runtime
        rt._apply_boundary()

        # instantaneous rules to fixpoint, one stratum at a time, so
        # nonmonotonic operators see only the final contents of lower
        # strata.
        for stratum in rt._strata:
            changed = True
            while changed:
                changed = False
                env = {
                    name: frozenset(rows) for name, rows in rt.storage.items()
                }
                for info in stratum:
                    produced = info.rule.rhs.eval(env)
                    target = rt.storage[info.lhs]
                    before = len(target)
                    for row in produced:
                        target.add(info.decl.check_arity(row))
                    if len(target) != before:
                        changed = True

        # end of step: deferred / deletion / async rules.
        env = {name: frozenset(rows) for name, rows in rt.storage.items()}
        for info in rt._end_rules:
            rule = info.rule
            produced = rule.rhs.eval(env)
            if rule.deferred:
                pending = rt._pending_inserts.setdefault(rule.lhs, set())
                pending.update(info.decl.check_arity(row) for row in produced)
            elif rule.deletion:
                pending = rt._pending_deletes.setdefault(rule.lhs, set())
                pending.update(tuple(row) for row in produced)
            elif rule.asynchronous:
                rt._send_async(rule.lhs, produced)

        return rt._collect_outputs()


class _RuleState:
    """The incremental engine's mutable view of one rule.

    ``out`` is the rule's materialized output — kept exactly equal to
    ``rule.rhs.eval(current storage)`` by delta propagation — and
    ``last_clock`` is the change-clock value up to which this rule has
    consumed its inputs' deltas.
    """

    __slots__ = ("info", "ctx", "out", "last_clock")

    def __init__(self, info: RuleInfo) -> None:
        self.info = info
        self.ctx: DeltaContext | None = None
        self.out: set[tuple] = set()
        self.last_clock = -1


class _IncrementalEngine:
    """Semi-naive incremental fixpoint with dependency-driven scheduling.

    The engine is *exactly* equivalent to :class:`_NaiveEngine` — the
    whole per-tick storage trajectory matches, iteration for iteration —
    via three observations:

    * a rule whose scanned collections did not change since its last
      firing re-produces its previous output, so skipping it (persistent
      target) or re-asserting its cached materialized output (a target
      that lost rows at the boundary) is a no-op rewrite of the naive
      iteration;
    * when inputs did change, the delta path of
      :meth:`repro.bloom.ast.Node.eval_delta` yields the exact net change
      of the rule's output, so merging it reproduces ``target |=
      eval(env)`` without rescanning;
    * waves are iteration-aligned: every rule fired in a wave sees the
      same start-of-wave contents (additions are staged and applied at
      the wave boundary), mirroring the naive engine's per-iteration
      snapshot.

    Change tracking is a per-collection version clock plus a per-tick
    delta log; both the log and every rule's :class:`DeltaContext` hold
    their indexes across ticks, which is what makes a quiet tick cost
    O(changed rows) instead of O(database).
    """

    def __init__(self, runtime: BloomRuntime) -> None:
        self.runtime = runtime
        self._clock = 0
        self._versions: dict[str, int] = {}
        self._log: dict[str, list[tuple[int, frozenset, frozenset]]] = {}
        states = {id(info): _RuleState(info) for info in runtime.rule_infos}
        self._strata = [
            [states[id(info)] for info in stratum] for stratum in runtime._strata
        ]
        self._end_rules = [states[id(info)] for info in runtime._end_rules]

    # -- change tracking ------------------------------------------------
    def _record(self, name: str, added: frozenset, removed: frozenset) -> None:
        self._log.setdefault(name, []).append((self._clock, added, removed))
        self._versions[name] = self._clock

    def _eligible(self, state: _RuleState) -> bool:
        if state.last_clock < 0:
            return True  # never fired: must materialize
        last = state.last_clock
        versions = self._versions
        return any(versions.get(name, 0) > last for name in state.info.scans)

    def _gather(self, state: _RuleState) -> dict[str, tuple[frozenset, frozenset]]:
        """Net per-collection change since the rule's last firing."""
        base: dict[str, tuple[frozenset, frozenset]] = {}
        since = state.last_clock
        for name in state.info.scans:
            entries = self._log.get(name)
            if not entries or entries[-1][0] <= since:
                continue
            added: frozenset = frozenset()
            removed: frozenset = frozenset()
            for clock, entry_added, entry_removed in entries:
                if clock <= since:
                    continue
                added, removed = (
                    (added - entry_removed) | (entry_added - removed),
                    (removed - entry_added) | (entry_removed - added),
                )
            if added or removed:
                base[name] = (added, removed)
        return base

    def _fire(self, state: _RuleState) -> frozenset:
        """Bring the rule's materialized output up to date.

        Returns the rows newly added to the output.  The first firing
        materializes the whole rule body (every AST node initializes its
        index from live storage); later firings consume only deltas.
        """
        first = state.last_clock < 0
        base = {} if first else self._gather(state)
        state.last_clock = self._clock
        if not first and not base:
            return frozenset()
        if state.ctx is None:
            state.ctx = DeltaContext(self.runtime.storage)
        state.ctx.begin(base)
        added, removed = state.info.rule.rhs.eval_delta(state.ctx)
        if removed:
            state.out -= removed
        if added:
            state.out |= added
        return added

    # -- the timestep ---------------------------------------------------
    def tick(self) -> dict[str, frozenset[tuple]]:
        rt = self.runtime
        storage = rt.storage

        # 1. boundary: clear transients, apply deletes then inserts.
        self._clock += 1
        deltas, shrunk = rt._apply_boundary()
        for name, (added, removed) in deltas.items():
            self._record(name, added, removed)

        # 2. instantaneous strata to fixpoint, wave-aligned.
        for stratum in self._strata:
            # rules whose target lost rows at the boundary must re-assert
            # their cached output (the naive engine re-derives it on the
            # stratum's first iteration)
            reassert = {
                id(state)
                for state in stratum
                if state.info.lhs in shrunk and state.out
            }
            while True:
                wave = [
                    state
                    for state in stratum
                    if id(state) in reassert or self._eligible(state)
                ]
                if not wave:
                    break
                staging: dict[str, set[tuple]] = {}
                for state in wave:
                    produced = self._fire(state)
                    if id(state) in reassert:
                        reassert.discard(id(state))
                        produced = state.out
                    if not produced:
                        continue
                    fresh = produced - storage[state.info.lhs]
                    if fresh:
                        staging.setdefault(state.info.lhs, set()).update(
                            state.info.decl.check_rows(fresh)
                        )
                # wave boundary: publish this wave's additions at once,
                # exactly like the naive engine's per-iteration snapshot
                self._clock += 1
                for name, rows in staging.items():
                    if rows:
                        storage[name] |= rows
                        self._record(name, frozenset(rows), frozenset())

        # 3. end of step: deferred / deletion / async rules evaluate
        # against the fixpoint and emit their full materialized output
        # every tick (pending queues were drained; async re-sends).
        for state in self._end_rules:
            if self._eligible(state):
                self._fire(state)
            rule = state.info.rule
            if rule.deferred:
                pending = rt._pending_inserts.setdefault(rule.lhs, set())
                pending.update(state.info.decl.check_rows(state.out))
            elif rule.deletion:
                pending = rt._pending_deletes.setdefault(rule.lhs, set())
                pending.update(tuple(row) for row in state.out)
            elif rule.asynchronous:
                # unconditionally, matching the naive engine: the
                # transport/kind checks raise even for an empty output
                rt._send_async(rule.lhs, state.out)

        # the per-tick delta log is fully consumed: every dependent rule
        # fired above (versions persist for cross-tick eligibility)
        self._log.clear()
        return rt._collect_outputs()


ENGINES: dict[str, type] = {
    "incremental": _IncrementalEngine,
    "naive": _NaiveEngine,
}


def _negated_scans(node) -> frozenset[str]:
    """Collections a rule body aggregates or negates.

    Scans under an (un-hinted) aggregation, and scans on the right side of
    an antijoin, must be complete before the operator runs: they induce
    stratum boundaries.
    """
    from repro.bloom.ast import AntiJoin, GroupBy, Scan

    negated: set[str] = set()

    def walk(current, under_negation: bool) -> None:
        if isinstance(current, GroupBy) and not current.monotone_hint:
            walk(current.child, True)
            return
        if isinstance(current, AntiJoin):
            walk(current.left, under_negation)
            walk(current.right, True)
            return
        if isinstance(current, Scan):
            if under_negation:
                negated.add(current.collection)
            return
        for child in current.children:
            walk(child, under_negation)

    walk(node, False)
    return frozenset(negated)


def _stratify(
    module: BloomModule, infos: Iterable[RuleInfo]
) -> list[list[RuleInfo]]:
    """Group instantaneous rules into evaluation strata.

    ``stratum(lhs) >= stratum(src)`` for positive dependencies and
    ``stratum(lhs) > stratum(src)`` for aggregated/negated ones.  The
    computation iterates to a fixpoint; exceeding the collection count
    means recursion through negation — unstratifiable.  Per-rule scan
    and negation sets come precomputed on :class:`RuleInfo` (they used
    to be recomputed for every rule on every iteration of this loop).
    """
    instantaneous = [info for info in infos if info.rule.instantaneous]
    stratum: dict[str, int] = {d.name: 0 for d in module.declarations}
    limit = len(stratum) + 1
    changed = True
    while changed:
        changed = False
        for info in instantaneous:
            for scanned in info.scans:
                required = stratum[scanned] + (1 if scanned in info.negated else 0)
                if stratum[info.lhs] < required:
                    stratum[info.lhs] = required
                    if stratum[info.lhs] > limit:
                        raise BloomError(
                            f"module {module.name} is unstratifiable: "
                            f"recursion through aggregation/negation at "
                            f"{info.lhs!r}"
                        )
                    changed = True
    buckets: dict[int, list[RuleInfo]] = {}
    for info in instantaneous:
        buckets.setdefault(stratum[info.lhs], []).append(info)
    return [buckets[level] for level in sorted(buckets)]
