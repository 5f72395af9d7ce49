"""The content-addressed cell cache: keying, round-trips, invalidation."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro
from repro.chaos.harnesses import harness_for
from repro.exec import CACHE_SCHEMA_VERSION, CellCache, cache, read_engine_stats
from repro.exec.cache import (
    kwargs_digest,
    record_engine_stats,
    schedule_digest,
    source_fingerprint,
)

FIELDS = {"kind": "test", "app": "wordcount", "strategy": "sealed", "seed": 7}


def test_key_is_stable_and_field_sensitive(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    assert key == cache.key(dict(FIELDS))  # same content, same address
    for field, changed in (
        ("seed", 8),
        ("strategy", "ordered"),
        ("app", "kvs"),
        ("kind", "other"),
    ):
        assert cache.key({**FIELDS, field: changed}) != key, field


def test_source_edit_changes_fingerprint_and_misses(tmp_path, monkeypatch):
    """Keys cover the code: an edited module orphans every cached cell."""
    package = Path(repro.__file__).parent
    pristine, edited = tmp_path / "pristine", tmp_path / "edited"
    for copy in (pristine, edited):
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
    module = edited / "chaos" / "oracle.py"
    module.write_text(module.read_text() + "\n# an edit\n")
    assert source_fingerprint(pristine) == source_fingerprint()
    assert source_fingerprint(edited) != source_fingerprint()

    store = CellCache(tmp_path / "cache")
    key = store.key(FIELDS)
    store.put(key, {"score": 1}, wall_seconds=0.1)
    assert store.get(key) is not None
    monkeypatch.setattr(
        cache, "source_fingerprint", lambda: source_fingerprint(edited)
    )
    assert store.key(FIELDS) != key
    assert store.get(store.key(FIELDS)) is None


def test_put_get_roundtrip_counts_hits_and_misses(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    assert cache.get(key) is None
    cache.put(key, {"score": 3, "pair": (1, 2)}, wall_seconds=0.5, fields=FIELDS)
    entry = cache.get(key)
    # values round-trip through JSON: tuples come back as lists
    assert entry["metrics"] == {"score": 3, "pair": [1, 2]}
    assert entry["wall_seconds"] == 0.5
    assert entry["fields"]["app"] == "wordcount"
    assert (cache.hits, cache.misses) == (1, 1)


def test_corrupt_or_mismatched_entries_read_as_misses(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    path = cache.put(key, {"score": 1}, wall_seconds=0.1)
    path.write_text("not json{")
    assert cache.get(key) is None
    # a schema bump orphans old entries rather than serving them
    payload = {"cache_schema": CACHE_SCHEMA_VERSION + 1, "metrics": {"score": 1}}
    path.write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert cache.misses == 2


def test_clear_empties_the_store(tmp_path):
    cache = CellCache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(cache.key({**FIELDS, "seed": seed}), {"s": seed}, wall_seconds=0.1)
    assert len(cache.entries()) == 3
    assert cache.clear() == 3
    assert cache.entries() == []
    assert cache.stats()["entries"] == 0


def test_stats_summarize_the_store(tmp_path):
    cache = CellCache(tmp_path)
    cache.put(cache.key(FIELDS), {"score": 1}, wall_seconds=0.1)
    stats = cache.stats()
    assert stats["directory"] == str(tmp_path)
    assert stats["entries"] == 1
    assert stats["size_bytes"] > 0


def test_schedule_digest_tracks_compiled_faults_not_names():
    harness = harness_for("wordcount", smoke=True)
    schedules = {sched.name: sched for sched in harness.schedules}
    digests = {
        name: schedule_digest(sched.scaled(harness.horizon))
        for name, sched in schedules.items()
    }
    # distinct fault content -> distinct addresses...
    assert len(set(digests.values())) == len(digests)
    # ...and the digest follows the *compiled* faults: a different
    # horizon scale is a different schedule, recomputing the digest of
    # the same compiled schedule is stable
    some = next(sched for sched in schedules.values() if sched.faults)
    assert schedule_digest(some.scaled(2.0)) != schedule_digest(some.scaled(4.0))
    assert schedule_digest(some.scaled(2.0)) == schedule_digest(some.scaled(2.0))


def test_kwargs_digest_covers_non_json_values():
    base = {"workers": 4, "workload": object}
    assert kwargs_digest(base) == kwargs_digest(dict(base))
    assert kwargs_digest(base) != kwargs_digest({**base, "workers": 5})


def test_engine_stats_accumulate_across_runs(tmp_path):
    engine = {
        "cells": 10,
        "computed": 6,
        "cache_hits": 4,
        "cache_misses": 6,
        "pool": {"tasks": 6, "busy_seconds": 1.0, "wall_seconds": 0.5, "events": 100},
    }
    record_engine_stats(engine, tmp_path)
    record_engine_stats(engine, tmp_path)
    stats = read_engine_stats(tmp_path)
    assert stats["totals"]["runs"] == 2
    assert stats["totals"]["cells"] == 20
    assert stats["totals"]["cache_hits"] == 8
    assert stats["totals"]["events"] == 200
    assert stats["last"]["cells"] == 10


def test_engine_stats_read_is_empty_when_absent(tmp_path):
    assert read_engine_stats(tmp_path / "nope") == {}
