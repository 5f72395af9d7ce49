"""Relational-algebra AST for Bloom rule bodies.

Bloom rules are declarative: the right-hand side of every rule is a tree of
relational operators over collections.  Representing rule bodies as an
explicit AST is what enables the paper's *white box* analysis
(Section VII): monotonicity is a syntactic property of the tree (no
antijoin, no aggregation), and attribute *lineage* — which output columns
are identity copies of which input columns — feeds the injective
functional-dependency chase that decides seal compatibility.

Every node knows its output ``schema`` (a tuple of column names), can
``eval`` itself against an environment mapping collection names to tuple
sets, and reports ``lineage()``: for each output column, the set of
``(collection, column)`` pairs it copies untransformed (empty for computed
columns).

Nodes also support a *delta-aware* evaluation path for the semi-naive
incremental engine (:mod:`repro.bloom.runtime`): ``eval_delta`` consumes
the net ``(added, removed)`` change of each scanned collection and
returns the exact net change of the node's own output, maintaining
per-key hash indexes (joins, antijoins), support counts (projections,
unions), and per-group materializations (aggregations) inside a
:class:`DeltaContext` instead of rescanning full ``frozenset`` snapshots.
The AST itself stays immutable — one module can be evaluated by several
runtimes at once — so every piece of mutable state lives in the context.
Predicates (``Select``) and computed columns (``Calc``) must be pure
functions of their row for the delta path to be exact; the naive path
already assumes this (it re-invokes them every fixpoint iteration).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter

from repro.errors import BloomError

__all__ = [
    "Node",
    "Scan",
    "Project",
    "Calc",
    "Select",
    "Join",
    "AntiJoin",
    "GroupBy",
    "Union",
    "Const",
    "AGGREGATES",
    "Delta",
    "DeltaContext",
    "EMPTY_DELTA",
]

Env = Mapping[str, frozenset[tuple]]
LineageMap = dict[str, frozenset[tuple[str, str]]]

# The net change of a tuple set: (added, removed), disjoint by invariant.
Delta = tuple[frozenset, frozenset]

EMPTY_DELTA: Delta = (frozenset(), frozenset())


class DeltaContext:
    """Mutable state for one rule body's incremental evaluation.

    AST nodes are immutable and may be shared between runtimes (the
    differential tests drive one module through two engines at once), so
    everything an incremental evaluation mutates — join/antijoin hash
    indexes, projection/union support counts, group materializations —
    lives here, keyed by node identity.  The context belongs to one rule
    of one runtime; its node states are created lazily on the rule's
    first firing and updated in place on every later firing.

    Protocol: the engine stores the net per-collection change since the
    rule last observed the environment in ``base``, bumps ``round``, and
    calls ``root.eval_delta(ctx)``.  A node with no state yet
    materializes from ``env`` (the live current contents) and reports its
    entire output as added, which makes a rule's first firing and its
    incremental refirings the same code path.  Per-round memoization
    keeps shared sub-DAGs within one body consistent (the same node
    object must not consume its input delta twice).
    """

    def __init__(self, env: Mapping[str, "set[tuple] | frozenset[tuple]"]):
        self.env = env
        self.base: Mapping[str, Delta] = {}
        self.round = 0
        self._state: dict[int, dict] = {}
        self._memo: dict[int, tuple[int, Delta]] = {}

    def begin(self, base: Mapping[str, Delta]) -> None:
        """Open one evaluation round over the given base-collection deltas."""
        self.base = base
        self.round += 1

    def state(self, node: "Node") -> dict:
        """The (lazily created) mutable state of one node."""
        st = self._state.get(id(node))
        if st is None:
            st = self._state[id(node)] = {}
        return st


def _keys(rows, key_cols: list[int]) -> list[tuple]:
    """The key tuple of every row, in ``rows``' iteration order.

    Keys are built C-side by ``itemgetter`` over the whole batch instead
    of one generator-built tuple per row (a one-column getter returns
    the bare value, so that case zips it back into 1-tuples).
    """
    if not rows:
        return []
    if not key_cols:
        return [()] * len(rows)
    if len(key_cols) == 1:
        return list(zip(map(itemgetter(key_cols[0]), rows)))
    return list(map(itemgetter(*key_cols), rows))


def _index_add(index: dict, rows, key_cols: list[int]) -> None:
    """Insert rows into a per-key hash index (key -> set of rows)."""
    for row in rows:
        key = tuple(row[i] for i in key_cols)
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = set()
        bucket.add(row)


def _index_discard(index: dict, rows, key_cols: list[int]) -> None:
    """Remove rows from a per-key hash index, dropping empty buckets."""
    for row in rows:
        key = tuple(row[i] for i in key_cols)
        bucket = index.get(key)
        if bucket is None:
            continue
        bucket.discard(row)
        if not bucket:
            del index[key]


class Node:
    """Base class for relational operators."""

    schema: tuple[str, ...] = ()

    def eval(self, env: Env) -> frozenset[tuple]:  # pragma: no cover - interface
        raise NotImplementedError

    def eval_delta(self, ctx: DeltaContext) -> Delta:
        """Incrementally (re)evaluate against the context's base deltas.

        Returns the exact net ``(added, removed)`` change of this node's
        output since the previous round; on a node's first round the
        whole output counts as added.  The invariant every operator
        maintains (and relies on from its children): ``added`` is
        disjoint from the pre-round output and ``removed`` is a subset of
        it.
        """
        memo = ctx._memo.get(id(self))
        if memo is not None and memo[0] == ctx.round:
            return memo[1]
        added, removed = self._eval_delta(ctx)
        if added and removed:
            # a row that transiently flipped both ways is no net change
            added, removed = added - removed, removed - added
        delta = (frozenset(added), frozenset(removed))
        ctx._memo[id(self)] = (ctx.round, delta)
        return delta

    def _eval_delta(self, ctx: DeltaContext):  # pragma: no cover - interface
        raise NotImplementedError

    def lineage(self) -> LineageMap:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def monotonic(self) -> bool:
        """Syntactic monotonicity: no antijoin / aggregation anywhere.

        A ``GroupBy`` carrying a *monotone hint* (the lattice-style
        assertion that its aggregate is only observed through a monotone
        threshold, as in the paper's THRESH query) does not count as
        nonmonotonic.
        """
        if not all(child.monotonic for child in self.children):
            return False
        if isinstance(self, AntiJoin):
            return False
        if isinstance(self, GroupBy):
            return self.monotone_hint
        return True

    @property
    def children(self) -> tuple["Node", ...]:
        return ()

    def scans(self) -> frozenset[str]:
        """Names of every collection the tree reads."""
        names: set[str] = set()
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                names.add(node.collection)
            stack.extend(node.children)
        return frozenset(names)

    def nonmonotonic_ops(self) -> tuple["Node", ...]:
        """Every antijoin / aggregation node in the tree, outermost first."""
        found: list[Node] = []
        stack: list[Node] = [self]
        while stack:
            node = stack.pop(0)
            if isinstance(node, AntiJoin) or (
                isinstance(node, GroupBy) and not node.monotone_hint
            ):
                found.append(node)
            stack.extend(node.children)
        return tuple(found)

    # small conveniences for fluent composition -------------------------
    def project(self, *cols) -> "Project":
        return Project(self, list(cols))

    def where(self, predicate, refs: Iterable[str] = ()) -> "Select":
        return Select(self, predicate, tuple(refs))

    def _index(self, col: str) -> int:
        try:
            return self.schema.index(col)
        except ValueError:
            raise BloomError(
                f"column {col!r} not in schema {self.schema} of {type(self).__name__}"
            ) from None


@dataclasses.dataclass
class Scan(Node):
    """Read every tuple of a named collection."""

    collection: str
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        self.schema = tuple(self.schema)

    def eval(self, env: Env) -> frozenset[tuple]:
        return env.get(self.collection, frozenset())

    def _eval_delta(self, ctx: DeltaContext):
        st = ctx.state(self)
        if not st:
            st["live"] = True
            return set(ctx.env.get(self.collection, ())), frozenset()
        return ctx.base.get(self.collection, EMPTY_DELTA)

    def lineage(self) -> LineageMap:
        return {
            col: frozenset({(self.collection, col)}) for col in self.schema
        }


class Project(Node):
    """Projection with optional renaming.

    ``cols`` entries are either a source column name (identity) or a
    ``(source, alias)`` pair.  Identity projection preserves lineage —
    the "trivial and ubiquitous" injective function of Section V-A1.
    """

    def __init__(self, child: Node, cols: Iterable[str | tuple[str, str]]):
        self.child = child
        self._pairs: list[tuple[str, str]] = []
        for col in cols:
            if isinstance(col, tuple):
                src, alias = col
            else:
                src, alias = col, col
            child._index(src)  # validates
            self._pairs.append((src, alias))
        if not self._pairs:
            raise BloomError("projection requires at least one column")
        aliases = [alias for _, alias in self._pairs]
        if len(set(aliases)) != len(aliases):
            raise BloomError(f"duplicate output columns in projection: {aliases}")
        self.schema = tuple(aliases)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def eval(self, env: Env) -> frozenset[tuple]:
        indexes = [self.child._index(src) for src, _ in self._pairs]
        return frozenset(
            tuple(row[i] for i in indexes) for row in self.child.eval(env)
        )

    def _eval_delta(self, ctx: DeltaContext):
        child_added, child_removed = self.child.eval_delta(ctx)
        if not child_added and not child_removed:
            return EMPTY_DELTA
        st = ctx.state(self)
        support = st.setdefault("support", {})  # out row -> #source rows
        indexes = st.get("cols")
        if indexes is None:
            indexes = st["cols"] = [
                self.child._index(src) for src, _ in self._pairs
            ]
        added, removed = set(), set()
        for row in child_added:
            out = tuple(row[i] for i in indexes)
            count = support.get(out, 0)
            support[out] = count + 1
            if count == 0:
                added.add(out)
        for row in child_removed:
            out = tuple(row[i] for i in indexes)
            count = support[out] - 1
            if count:
                support[out] = count
            else:
                del support[out]
                removed.add(out)
        return added, removed

    def lineage(self) -> LineageMap:
        child_lineage = self.child.lineage()
        return {
            alias: child_lineage.get(src, frozenset())
            for src, alias in self._pairs
        }


class Calc(Node):
    """Append a computed column (non-identity lineage).

    ``fn`` receives the values of ``deps`` (in order) and returns the new
    column's value.
    """

    def __init__(self, child: Node, out: str, fn: Callable, deps: Iterable[str]):
        self.child = child
        self.out = out
        self.fn = fn
        self.deps = tuple(deps)
        for dep in self.deps:
            child._index(dep)
        if out in child.schema:
            raise BloomError(f"computed column {out!r} shadows an existing column")
        self.schema = child.schema + (out,)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def eval(self, env: Env) -> frozenset[tuple]:
        indexes = [self.child._index(d) for d in self.deps]
        return frozenset(
            row + (self.fn(*(row[i] for i in indexes)),)
            for row in self.child.eval(env)
        )

    def _eval_delta(self, ctx: DeltaContext):
        child_added, child_removed = self.child.eval_delta(ctx)
        if not child_added and not child_removed:
            return EMPTY_DELTA
        indexes = [self.child._index(d) for d in self.deps]
        # row -> output is injective (columns are appended), so deltas map
        # one-to-one; ``fn`` must be pure for the removal recomputation
        return (
            {
                row + (self.fn(*(row[i] for i in indexes)),)
                for row in child_added
            },
            {
                row + (self.fn(*(row[i] for i in indexes)),)
                for row in child_removed
            },
        )

    def lineage(self) -> LineageMap:
        lineage = dict(self.child.lineage())
        lineage[self.out] = frozenset()  # computed: identity lost
        return lineage


class Select(Node):
    """Filter rows by a predicate over named columns.

    ``refs`` documents which columns the predicate reads (selection is
    monotonic regardless).  The predicate receives a mapping from column
    name to value.
    """

    def __init__(self, child: Node, predicate: Callable, refs: tuple[str, ...] = ()):
        self.child = child
        self.predicate = predicate
        self.refs = refs
        for ref in refs:
            child._index(ref)
        self.schema = child.schema

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def eval(self, env: Env) -> frozenset[tuple]:
        schema = self.child.schema
        out = []
        for row in self.child.eval(env):
            if self.predicate(dict(zip(schema, row))):
                out.append(row)
        return frozenset(out)

    def _eval_delta(self, ctx: DeltaContext):
        child_added, child_removed = self.child.eval_delta(ctx)
        if not child_added and not child_removed:
            return EMPTY_DELTA
        schema = self.child.schema
        return (
            {r for r in child_added if self.predicate(dict(zip(schema, r)))},
            {r for r in child_removed if self.predicate(dict(zip(schema, r)))},
        )

    def lineage(self) -> LineageMap:
        return self.child.lineage()


class Join(Node):
    """Equijoin on pairs of columns (monotonic).

    The output schema is the left schema followed by the right columns
    that are not join keys; non-key column names must not collide.
    """

    def __init__(
        self, left: Node, right: Node, on: Iterable[tuple[str, str]]
    ):
        self.left = left
        self.right = right
        self.on = tuple(on)
        if not self.on:
            raise BloomError("joins require at least one column pair")
        for lcol, rcol in self.on:
            left._index(lcol)
            right._index(rcol)
        right_keys = {rcol for _, rcol in self.on}
        self._right_keep = tuple(c for c in right.schema if c not in right_keys)
        collisions = set(self._right_keep) & set(left.schema)
        if collisions:
            raise BloomError(
                f"join output columns collide: {sorted(collisions)}; "
                f"project/rename before joining"
            )
        self.schema = left.schema + self._right_keep

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def eval(self, env: Env) -> frozenset[tuple]:
        lidx = [self.left._index(l) for l, _ in self.on]
        ridx = [self.right._index(r) for _, r in self.on]
        keep_idx = [self.right._index(c) for c in self._right_keep]
        index: dict[tuple, list[tuple]] = {}
        for row in self.right.eval(env):
            index.setdefault(tuple(row[i] for i in ridx), []).append(row)
        out = []
        for lrow in self.left.eval(env):
            key = tuple(lrow[i] for i in lidx)
            for rrow in index.get(key, ()):
                out.append(lrow + tuple(rrow[i] for i in keep_idx))
        return frozenset(out)

    def _eval_delta(self, ctx: DeltaContext):
        left_added, left_removed = self.left.eval_delta(ctx)
        right_added, right_removed = self.right.eval_delta(ctx)
        if not (left_added or left_removed or right_added or right_removed):
            return EMPTY_DELTA
        st = ctx.state(self)
        cols = st.get("cols")
        if cols is None:
            cols = st["cols"] = (
                [self.left._index(l) for l, _ in self.on],
                [self.right._index(r) for _, r in self.on],
                [self.right._index(c) for c in self._right_keep],
            )
        lidx, ridx, keep_idx = cols
        left_index = st.setdefault("left", {})    # key -> set of left rows
        right_index = st.setdefault("right", {})  # key -> set of right rows

        def out(lrow, rrow):
            return lrow + tuple(rrow[i] for i in keep_idx)

        added, removed = set(), set()
        # removals: dL- against the pre-round right, then dR- against the
        # already-shrunk left, so pairs with both sides gone count once
        for lrow in left_removed:
            key = tuple(lrow[i] for i in lidx)
            for rrow in right_index.get(key, ()):
                removed.add(out(lrow, rrow))
        _index_discard(left_index, left_removed, lidx)
        for rrow in right_removed:
            key = tuple(rrow[i] for i in ridx)
            for lrow in left_index.get(key, ()):
                removed.add(out(lrow, rrow))
        _index_discard(right_index, right_removed, ridx)
        # additions: dL+ against the post-round right, dR+ against the
        # post-round left (the dL+ x dR+ overlap dedupes in the set)
        _index_add(right_index, right_added, ridx)
        for lrow in left_added:
            key = tuple(lrow[i] for i in lidx)
            for rrow in right_index.get(key, ()):
                added.add(out(lrow, rrow))
        _index_add(left_index, left_added, lidx)
        for rrow in right_added:
            key = tuple(rrow[i] for i in ridx)
            for lrow in left_index.get(key, ()):
                added.add(out(lrow, rrow))
        return added, removed

    def lineage(self) -> LineageMap:
        lineage = dict(self.left.lineage())
        right_lineage = self.right.lineage()
        for col in self._right_keep:
            lineage[col] = right_lineage.get(col, frozenset())
        return lineage


class AntiJoin(Node):
    """Rows of ``left`` with no match in ``right`` (nonmonotonic).

    This is Bloom's ``not in``; the theta columns identify the sealable
    partitions of the operation (paper Section VII-B2).
    """

    def __init__(self, left: Node, right: Node, on: Iterable[tuple[str, str]]):
        self.left = left
        self.right = right
        self.on = tuple(on)
        if not self.on:
            raise BloomError("antijoins require at least one column pair")
        for lcol, rcol in self.on:
            left._index(lcol)
            right._index(rcol)
        self.schema = left.schema

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    @property
    def theta_columns(self) -> tuple[str, ...]:
        """Left-side columns of the antijoin condition (the gate)."""
        return tuple(l for l, _ in self.on)

    def eval(self, env: Env) -> frozenset[tuple]:
        lidx = [self.left._index(l) for l, _ in self.on]
        ridx = [self.right._index(r) for _, r in self.on]
        present = {
            tuple(row[i] for i in ridx) for row in self.right.eval(env)
        }
        return frozenset(
            row
            for row in self.left.eval(env)
            if tuple(row[i] for i in lidx) not in present
        )

    def _eval_delta(self, ctx: DeltaContext):
        left_added, left_removed = self.left.eval_delta(ctx)
        right_added, right_removed = self.right.eval_delta(ctx)
        if not (left_added or left_removed or right_added or right_removed):
            return EMPTY_DELTA
        st = ctx.state(self)
        cols = st.get("cols")
        if cols is None:
            cols = st["cols"] = (
                [self.left._index(l) for l, _ in self.on],
                [self.right._index(r) for _, r in self.on],
            )
        lidx, ridx = cols
        left_index = st.setdefault("left", {})     # key -> set of left rows
        blocked = st.setdefault("blocked", {})     # key -> right rows matching

        added, removed = set(), set()
        # 1. left removals: in the output iff unblocked before this round
        for lrow in left_removed:
            if tuple(lrow[i] for i in lidx) not in blocked:
                removed.add(lrow)
        _index_discard(left_index, left_removed, lidx)
        # 2. right net update; keys that flip blocked status move every
        # surviving left row of that key in or out of the output
        affected: dict[tuple, bool] = {}
        for rrow in right_removed:
            key = tuple(rrow[i] for i in ridx)
            if key not in affected:
                affected[key] = key in blocked
        for rrow in right_added:
            key = tuple(rrow[i] for i in ridx)
            if key not in affected:
                affected[key] = key in blocked
        _index_discard(blocked, right_removed, ridx)
        _index_add(blocked, right_added, ridx)
        for key, was_blocked in affected.items():
            now_blocked = key in blocked
            if was_blocked and not now_blocked:
                added |= left_index.get(key, set())
            elif now_blocked and not was_blocked:
                removed |= left_index.get(key, set())
        # 3. left additions: in the output iff unblocked after this round
        _index_add(left_index, left_added, lidx)
        for lrow in left_added:
            if tuple(lrow[i] for i in lidx) not in blocked:
                added.add(lrow)
        return added, removed

    def lineage(self) -> LineageMap:
        return self.left.lineage()


def _agg_count(values: list) -> int:
    return len(values)


def _agg_sum(values: list):
    return sum(values)


def _agg_min(values: list):
    return min(values)


def _agg_max(values: list):
    return max(values)


def _agg_accum(values: list) -> frozenset:
    return frozenset(values)


AGGREGATES: dict[str, Callable[[list], object]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "min": _agg_min,
    "max": _agg_max,
    "accum": _agg_accum,
}


class GroupBy(Node):
    """Grouped aggregation (nonmonotonic).

    ``aggs`` is a list of ``(output_column, aggregate_name, input_column)``
    — ``input_column`` is ignored by ``count``.  The grouping keys are the
    sealable partitions of the operation (paper Section VII-B2).

    ``monotone`` asserts that downstream consumers observe the aggregate
    only through monotone thresholds (e.g. ``count(*) > 1000``), in which
    case the statement is confluent despite the aggregation — the CALM
    extension of Conway et al.'s lattice work that the paper applies to
    THRESH.
    """

    def __init__(
        self,
        child: Node,
        keys: Iterable[str],
        aggs: Iterable[tuple[str, str, str | None]],
        *,
        monotone: bool = False,
    ):
        self.child = child
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)
        self.monotone_hint = monotone
        if not self.aggs:
            raise BloomError("group_by requires at least one aggregate")
        for key in self.keys:
            child._index(key)
        for out, agg_name, col in self.aggs:
            if agg_name not in AGGREGATES:
                raise BloomError(
                    f"unknown aggregate {agg_name!r}; have {sorted(AGGREGATES)}"
                )
            if agg_name != "count" and col is None:
                raise BloomError(f"aggregate {agg_name!r} requires an input column")
            if col is not None:
                child._index(col)
        self.schema = self.keys + tuple(out for out, _, _ in self.aggs)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def eval(self, env: Env) -> frozenset[tuple]:
        key_idx = [self.child._index(k) for k in self.keys]
        groups: dict[tuple, list[tuple]] = {}
        for row in self.child.eval(env):
            groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
        out = []
        for key, rows in groups.items():
            agg_values = []
            for _out, agg_name, col in self.aggs:
                if col is None:
                    values = rows
                else:
                    idx = self.child._index(col)
                    values = [row[idx] for row in rows]
                agg_values.append(AGGREGATES[agg_name](values))
            out.append(key + tuple(agg_values))
        return frozenset(out)

    def _eval_delta(self, ctx: DeltaContext):
        child_added, child_removed = self.child.eval_delta(ctx)
        if not child_added and not child_removed:
            return EMPTY_DELTA
        st = ctx.state(self)
        cols = st.get("cols")
        if cols is None:
            cols = st["cols"] = (
                [self.child._index(k) for k in self.keys],
                [
                    (AGGREGATES[agg_name],
                     None if col is None else self.child._index(col))
                    for _out, agg_name, col in self.aggs
                ],
                # ``count`` is the one aggregate with an exact streaming
                # form: a per-key integer count of child rows, exact
                # under retractions because child deltas are exact.
                # Other aggregates (notably float ``sum``) keep a set of
                # child rows per key and re-aggregate touched groups: an
                # incremental accumulator would drift from the naive
                # engine's recompute.
                all(agg_name == "count" for _out, agg_name, _col in self.aggs),
            )
        key_idx, agg_fns, count_only = cols
        out_rows = st.setdefault("out", {})    # key -> current output row
        added_keys = _keys(child_added, key_idx)
        removed_keys = _keys(child_removed, key_idx)
        # only *touched* groups are re-aggregated; untouched groups keep
        # their materialized output row
        touched = set(added_keys)
        touched.update(removed_keys)
        if count_only:
            counts = st.get("counts")
            if counts is None:
                counts = st["counts"] = Counter()
            if added_keys:
                counts.update(added_keys)
            if removed_keys:
                counts.subtract(removed_keys)
        else:
            groups = st.setdefault("groups", {})   # key -> set of child rows
            for key, row in zip(added_keys, child_added):
                groups.setdefault(key, set()).add(row)
            for key, row in zip(removed_keys, child_removed):
                bucket = groups.get(key)
                if bucket is not None:
                    bucket.discard(row)
        added, removed = set(), set()
        for key in touched:
            old = out_rows.get(key)
            if count_only:
                count = counts[key]
                if count < 0:
                    raise BloomError(
                        f"group_by count for key {key!r} went negative: a "
                        f"delta removed a row the group never held"
                    )
                if count:
                    new = key + (count,) * len(agg_fns)
                else:
                    new = None
                    del counts[key]
            else:
                rows = groups.get(key)
                if rows:
                    values = []
                    for fn, col in agg_fns:
                        if col is None:
                            values.append(fn(list(rows)))
                        else:
                            values.append(fn([row[col] for row in rows]))
                    new = key + tuple(values)
                else:
                    new = None
                    groups.pop(key, None)
            if new != old:
                if old is not None:
                    removed.add(old)
                    del out_rows[key]
                if new is not None:
                    added.add(new)
                    out_rows[key] = new
        return added, removed

    def lineage(self) -> LineageMap:
        child_lineage = self.child.lineage()
        lineage = {key: child_lineage.get(key, frozenset()) for key in self.keys}
        for out, _agg, _col in self.aggs:
            lineage[out] = frozenset()  # aggregates are computed values
        return lineage


class Union(Node):
    """Set union of identically-shaped inputs (monotonic)."""

    def __init__(self, *parts: Node):
        if len(parts) < 2:
            raise BloomError("union requires at least two inputs")
        arity = len(parts[0].schema)
        for part in parts[1:]:
            if len(part.schema) != arity:
                raise BloomError(
                    f"union arity mismatch: {parts[0].schema} vs {part.schema}"
                )
        self.parts = parts
        self.schema = parts[0].schema

    @property
    def children(self) -> tuple[Node, ...]:
        return tuple(self.parts)

    def eval(self, env: Env) -> frozenset[tuple]:
        out: set[tuple] = set()
        for part in self.parts:
            out |= part.eval(env)
        return frozenset(out)

    def _eval_delta(self, ctx: DeltaContext):
        st = ctx.state(self)
        support = st.setdefault("support", {})  # row -> #branches holding it
        added, removed = set(), set()
        for part in self.parts:
            part_added, part_removed = part.eval_delta(ctx)
            for row in part_added:
                count = support.get(row, 0)
                support[row] = count + 1
                if count == 0:
                    added.add(row)
            for row in part_removed:
                count = support[row] - 1
                if count:
                    support[row] = count
                else:
                    del support[row]
                    removed.add(row)
        if not added and not removed:
            return EMPTY_DELTA
        return added, removed

    def lineage(self) -> LineageMap:
        # A column keeps identity lineage only if every branch agrees.
        maps = [part.lineage() for part in self.parts]
        lineage: LineageMap = {}
        for position, col in enumerate(self.schema):
            sources: set[tuple[str, str]] | None = None
            for part, part_map in zip(self.parts, maps):
                branch_col = part.schema[position]
                branch = part_map.get(branch_col, frozenset())
                sources = branch if sources is None else (sources & branch)
            lineage[col] = frozenset(sources or ())
        return lineage


class Const(Node):
    """A literal collection of tuples (monotonic)."""

    def __init__(self, rows: Iterable[tuple], schema: Iterable[str]):
        self.rows = frozenset(tuple(r) for r in rows)
        self.schema = tuple(schema)
        for row in self.rows:
            if len(row) != len(self.schema):
                raise BloomError(
                    f"const row {row} does not match schema {self.schema}"
                )

    def eval(self, env: Env) -> frozenset[tuple]:
        return self.rows

    def _eval_delta(self, ctx: DeltaContext):
        st = ctx.state(self)
        if not st:
            st["live"] = True
            return self.rows, frozenset()
        return EMPTY_DELTA

    def lineage(self) -> LineageMap:
        return {col: frozenset() for col in self.schema}
