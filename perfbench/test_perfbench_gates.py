"""The benchmark's correctness gates pass real results and fail on one
dropped committed row."""

from __future__ import annotations

from repro.api import get_app
from repro.apps.ad_network import AdWorkload
from repro.apps.wordcount import committed_store, reference_counts

from perfbench import gates

SMALL_AD = AdWorkload(
    ad_servers=2, entries_per_server=40, batch_size=10, sleep=0.1,
    campaigns=4, requests=2, report_replicas=2,
)


def _drop_one(state: frozenset) -> frozenset:
    return state - {min(state, key=repr)}


def _ad_run(strategy: str):
    result = get_app("adnet").run(
        strategy, seed=3, workload=SMALL_AD, workload_seed=3
    ).result
    committed = {node: result.committed_state(node) for node in result.report_nodes}
    return result, committed


def _ad_problems(strategy, result, committed):
    return gates.adreport_problems(
        strategy,
        processed=result.processed_count(),
        clicks=SMALL_AD.total_entries,
        replicas_agree=result.replicas_agree,
        committed=committed,
        truth=result.ground_truth_state(),
    )


def test_adreport_gate_fails_on_a_dropped_row():
    for strategy in ("seal", "uncoordinated"):
        result, committed = _ad_run(strategy)
        assert _ad_problems(strategy, result, committed) == []
        first = result.report_nodes[0]
        broken = {**committed, first: _drop_one(committed[first])}
        assert _ad_problems(strategy, result, broken)


def test_adreport_gate_counts_missing_clicks_and_sealed_disagreement():
    result, committed = _ad_run("seal")
    truth = result.ground_truth_state()
    kwargs = {"clicks": SMALL_AD.total_entries, "committed": committed, "truth": truth}
    assert gates.adreport_problems(
        "seal", processed=SMALL_AD.total_entries - 1, replicas_agree=True, **kwargs
    )
    assert gates.adreport_problems(
        "seal", processed=SMALL_AD.total_entries, replicas_agree=False, **kwargs
    )
    # uncoordinated responses may differ: the predicted anomaly, not a fault
    assert not gates.adreport_problems(
        "uncoordinated", processed=SMALL_AD.total_entries, replicas_agree=False, **kwargs
    )


def test_wordcount_gate_fails_on_a_dropped_row():
    outcome = get_app("wordcount").run(
        "sealed", seed=4, workers=2, total_batches=3, batch_size=10
    )
    store = committed_store(outcome.cluster)
    reference = reference_counts(3, 10, 4)
    assert gates.wordcount_problems(store, reference) == []
    broken = dict(store)
    del broken[min(broken)]
    assert gates.wordcount_problems(broken, reference)


def test_socket_gate_fails_on_a_dropped_row():
    _result, committed = _ad_run("seal")
    kwargs = {"processed": 80, "clicks": 80, "sim_committed": committed}
    assert gates.socket_problems(committed=dict(committed), **kwargs) == []
    node = min(committed)
    broken = {**committed, node: _drop_one(committed[node])}
    assert gates.socket_problems(committed=broken, **kwargs)


def test_grid_gate_flags_unsound_cells_and_missing_anomalies():
    cells = [
        {"name": "kvs/uncoordinated/a", "app": "kvs", "strategy": "uncoordinated",
         "status": "sound", "observed": "Diverge"},
        {"name": "wordcount/eager/a", "app": "wordcount", "strategy": "eager",
         "status": "sound", "observed": "Run"},
        {"name": "adnet/seal/a", "app": "adnet", "strategy": "seal",
         "status": "sound", "observed": "Async"},
    ]
    assert not any(gates.grid_problems(cells).values())
    unsound = [dict(cells[0]), dict(cells[1]), {**cells[2], "status": "unsound"}]
    assert gates.grid_problems(unsound)["adnet/seal/a"]
    no_anomaly = [{**cells[0], "observed": "Async"}, cells[1], cells[2]]
    assert gates.grid_problems(no_anomaly)["kvs/uncoordinated/a"]
