"""The content-addressed on-disk cell cache (``.blazes-cache/``).

Campaign and benchmark cells are deterministic functions of their
parameters, so a finished cell's metric mapping can be stored once and
served on every identical rerun.  Entries are addressed purely by
content: the cache key is a sha256 over the canonical JSON of

* the cache schema version (:data:`CACHE_SCHEMA_VERSION`) and the
  source fingerprint (:func:`source_fingerprint`, a digest of every
  ``repro`` module) — bumping the one or editing any module orphans
  every old entry, so a code change can never be served a stale cell;
* the caller-supplied key fields — for an audit cell that is the app,
  strategy, *compiled* fault-schedule digest, horizon, seeds, and a
  digest of the runner kwargs; for a generic bench cell the bench name
  and scenario parameters.

Values round-trip through JSON (tuples come back as lists), carry the
original wall/cpu cost of computing the cell (so a warm ``BENCH_*.json``
still reports true compute cost), and are written atomically
(temp file + ``os.replace``) so concurrent writers never corrupt an
entry.  ``blazes cache clear`` (or :meth:`CellCache.clear`) empties the
store; ``BLAZES_CACHE_DIR`` relocates it.  Cumulative engine counters
persist next to the objects in ``stats.json`` for ``blazes stats
--engine``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.exec.canon import canonical, content_digest

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellCache",
    "default_cache_dir",
    "kwargs_digest",
    "read_engine_stats",
    "record_engine_stats",
    "schedule_digest",
    "source_fingerprint",
]

# v2: audit-cell metrics gained the envelope status fields
# (status / in_envelope / envelope_violations)
# v3: keys cover the code (source_fingerprint), not the library version
CACHE_SCHEMA_VERSION = 3
CACHE_DIR_ENV = "BLAZES_CACHE_DIR"
STATS_FILE = "stats.json"


def default_cache_dir() -> Path:
    """Where cached cells live: ``$BLAZES_CACHE_DIR`` or ``.blazes-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, ".blazes-cache"))


@functools.lru_cache(maxsize=None)
def source_fingerprint(root: Path | None = None) -> str:
    """A sha256 over the sorted ``**/*.py`` sources under ``root``.

    ``root`` defaults to the installed ``repro`` package, so the digest
    names the code every cached cell was computed by.  It is computed
    once per process and root.
    """
    base = root if root is not None else Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def kwargs_digest(kwargs: Mapping[str, Any]) -> str:
    """A stable digest of a runner-kwargs mapping (workload objects and
    other non-JSON values fall back to their deterministic repr)."""
    return content_digest(kwargs)


def schedule_digest(schedule) -> str:
    """The digest of a *compiled* fault schedule: its faults, not its name.

    Two schedules with identical fault content share cache entries; any
    change to a fault's timing, target, or probability changes the key.
    """
    return content_digest(
        [
            (type(fault).__name__, dataclasses.asdict(fault))
            for fault in schedule.faults
        ]
    )


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CellCache:
    """One content-addressed store of finished cell results."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key(self, fields: Mapping[str, Any]) -> str:
        """The content address of one cell."""
        return content_digest(
            {
                "cache_schema": CACHE_SCHEMA_VERSION,
                "source": source_fingerprint(),
                **fields,
            }
        )

    def _path(self, key: str) -> Path:
        return self.directory / "objects" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored entry for ``key``, or ``None`` (counted as a miss).

        A corrupt or schema-mismatched entry is treated as a miss; the
        next :meth:`put` overwrites it.
        """
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("cache_schema") != CACHE_SCHEMA_VERSION
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        key: str,
        metrics: Mapping[str, Any],
        *,
        wall_seconds: float,
        cpu_seconds: float | None = None,
        fields: Mapping[str, Any] | None = None,
    ) -> Path:
        """Store one finished cell atomically; returns the entry path."""
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fields": canonical(fields) if fields is not None else None,
            "metrics": metrics,
            "wall_seconds": wall_seconds,
            "cpu_seconds": cpu_seconds,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        path = self._path(key)
        _atomic_write(path, json.dumps(payload, sort_keys=True, default=repr) + "\n")
        return path

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        objects = self.directory / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def clear(self) -> int:
        """Remove every entry (and the persisted stats); returns the count."""
        removed = len(self.entries())
        shutil.rmtree(self.directory / "objects", ignore_errors=True)
        try:
            (self.directory / STATS_FILE).unlink()
        except OSError:
            pass
        return removed

    def stats(self) -> dict[str, Any]:
        """This instance's counters plus the on-disk store summary."""
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "size_bytes": sum(path.stat().st_size for path in entries),
            "hits": self.hits,
            "misses": self.misses,
        }


# ----------------------------------------------------------------------
# cumulative engine counters (``blazes stats --engine``)
# ----------------------------------------------------------------------
_TOTAL_KEYS = (
    "runs",
    "cells",
    "computed",
    "cache_hits",
    "cache_misses",
    "pool_tasks",
    "pool_busy_seconds",
    "pool_wall_seconds",
    "events",
)


def read_engine_stats(directory: str | Path | None = None) -> dict[str, Any]:
    """The persisted cumulative engine counters (empty when none)."""
    path = (
        Path(directory) if directory is not None else default_cache_dir()
    ) / STATS_FILE
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


def record_engine_stats(
    engine: Mapping[str, Any], directory: str | Path | None = None
) -> None:
    """Fold one engine run into the cumulative ``stats.json``.

    Best-effort read-modify-write with an atomic replace: concurrent
    writers may drop each other's increment but can never corrupt the
    file.
    """
    base = Path(directory) if directory is not None else default_cache_dir()
    current = read_engine_stats(base)
    totals = current.get("totals") or {}
    pool = engine.get("pool") or {}
    increments = {
        "runs": 1,
        "cells": engine.get("cells", 0),
        "computed": engine.get("computed", 0),
        "cache_hits": engine.get("cache_hits", 0),
        "cache_misses": engine.get("cache_misses", 0),
        "pool_tasks": pool.get("tasks", 0),
        "pool_busy_seconds": pool.get("busy_seconds", 0.0),
        "pool_wall_seconds": pool.get("wall_seconds", 0.0),
        "events": pool.get("events", 0),
    }
    for key in _TOTAL_KEYS:
        totals[key] = totals.get(key, 0) + increments[key]
    payload = {
        "totals": totals,
        "last": canonical(dict(engine)),
        "updated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    _atomic_write(
        base / STATS_FILE, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
