"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of each layer from outside the
program: it replaces a class attribute or module function with a wrapper
that opens a span (name, start, end, parent) around the call, and puts
the original back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
knows it is being traced.

Spans live in flat in-memory columns while the run executes and are
written out only when the benchmark ends.  A span's self time is its
duration minus the durations of its direct child spans; a layer's busy
time is the sum of the self times of the spans that belong to it.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections.abc import Callable
from pathlib import Path
from typing import Any


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        # values collected at wrapped boundaries (e.g. socket lateness)
        self.samples: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self.end[index] = end
        stack = self._stack
        stack.pop()
        if stack:
            self.child[stack[-1]] += end - self.start[index]

    def span(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span.

        ``before(args, kwargs)`` runs ahead of the span and returns the
        arguments to call with; ``after(args, result)`` runs on return.
        """
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def wrap_method(
        self,
        owner: type,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Trace ``owner.attr`` (looked up through the MRO)."""
        original = owner.__dict__.get(attr, _MISSING)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.span(name, getattr(owner, attr), before, after))

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Trace a module function everywhere it was imported by name.

        ``from x import f`` copies the binding, so every loaded ``repro``
        module that holds the same function object is rebound too.
        """
        original = getattr(module, attr)
        traced = self.span(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (
                namespace is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and namespace.get(attr) is original
            ):
                self._restore.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self seconds."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        names, start, end, child = self.names, self.start, self.end, self.child
        for index, nid in enumerate(self.name_of):
            row = out[names[nid]]
            row["calls"] += 1
            row["self_s"] += end[index] - start[index] - child[index]
        return out

    def write(self, path: Path) -> None:
        """Dump every span as gzipped TSV: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for index, nid in enumerate(self.name_of):
                out.write(
                    f"{index}\t{self.parent[index]}\t{names[nid]}\t"
                    f"{self.start[index]:.9f}\t{self.end[index]:.9f}\n"
                )


_MISSING = object()
