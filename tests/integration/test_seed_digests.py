"""Determinism regression pins: per-app x strategy x seed run digests.

Every registered app, under every strategy, at several seeds, is run to
quiescence and hashed — trace rows, virtual end time, events fired, and
the metrics summary, canonicalized so the digest is stable across hash
randomization and Python minor versions.  The canonicalization and
hashing live in :mod:`repro.exec.digests` (moved verbatim from here, so
the checked-in pins never shifted).  The digests are checked in
(``seed_digests.json``): any kernel, engine, or app change that silently
perturbs deterministic replay fails this test loudly instead of quietly
shifting every figure and audit verdict.

When a change *intentionally* alters replay (a new RNG draw, a different
message granularity), regenerate the pins and review the diff::

    REPRO_REGEN_DIGESTS=1 python -m pytest tests/integration/test_seed_digests.py

Regeneration runs through the evaluation engine, so ``BLAZES_JOBS=4``
fans the (app, strategy, seed) cells out over the warm worker pool.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exec.digests import digest_cells, outcome_digest
from repro.exec.engine import resolve_jobs

DIGEST_PATH = Path(__file__).parent / "seed_digests.json"
SEEDS = (1, 2)


def test_seed_digests_pinned():
    if os.environ.get("REPRO_REGEN_DIGESTS") == "1":
        current = digest_cells(SEEDS, jobs=resolve_jobs())
        DIGEST_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {len(current)} seed digests")
    current = digest_cells(SEEDS)
    assert DIGEST_PATH.exists(), (
        "seed_digests.json is missing; regenerate with REPRO_REGEN_DIGESTS=1"
    )
    pinned = json.loads(DIGEST_PATH.read_text())
    assert current == pinned, (
        "deterministic replay diverged from the pinned digests; if the "
        "change is intentional, regenerate with REPRO_REGEN_DIGESTS=1 and "
        "review the diff"
    )


# ----------------------------------------------------------------------
# framed ad network: frame-level delivery has its own replay pins
# ----------------------------------------------------------------------
FRAMED_DIGEST_PATH = Path(__file__).parent / "framed_adnet_digests.json"
FRAMED_STRATEGIES = ("uncoordinated", "seal", "independent-seal")
FRAMED_REPLICAS = (1, 2)
FRAMED_SEEDS = (1, 2)


def _framed_digest(strategy: str, producer_replicas: int, seed: int) -> str:
    """Digest one framed run: trace, clock, summary and committed state."""
    from repro.apps.ad_network import AdWorkload, run_ad_network

    workload = AdWorkload(
        ad_servers=3,
        entries_per_server=140,
        batch_size=25,
        sleep=0.1,
        campaigns=6,
        requests=3,
        report_replicas=2,
        producer_replicas=producer_replicas,
        frames=True,
    )
    result = run_ad_network(strategy, workload=workload, seed=seed)
    metrics = {
        "processed": result.processed_count(),
        "completion": result.completion_time,
        "agree": result.replicas_agree,
        "registry_lookups": result.registry_lookups,
        "committed": {
            node: result.committed_state(node) for node in result.report_nodes
        },
    }
    return outcome_digest(SimpleNamespace(cluster=result.cluster, metrics=metrics))


def test_framed_adnet_digests_pinned():
    current = {
        f"{strategy}/r{replicas}/{seed}": _framed_digest(strategy, replicas, seed)
        for strategy in FRAMED_STRATEGIES
        for replicas in FRAMED_REPLICAS
        for seed in FRAMED_SEEDS
    }
    if os.environ.get("REPRO_REGEN_DIGESTS") == "1":
        FRAMED_DIGEST_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {len(current)} framed adnet digests")
    pinned = json.loads(FRAMED_DIGEST_PATH.read_text())
    assert current == pinned, (
        "framed ad-network replay diverged from the pinned digests; if the "
        "change is intentional, regenerate with REPRO_REGEN_DIGESTS=1 and "
        "review the diff"
    )
