"""Correctness gates: each returns the list of problems found in one cell.

A cell whose list is non-empty counts as a failed operation.  The gates
take plain committed state (sets and mappings), so a test can hand them a
result with one row removed and see it fail.
"""

from __future__ import annotations

from collections.abc import Mapping

# (app, strategy) -> the anomaly the paper predicts once coordination is
# removed; the audit must demonstrate each (as bench_fig14_fault_audit does)
EXPECTED_ANOMALIES = {
    ("wordcount", "eager"): "Run",
    ("kvs", "uncoordinated"): "Diverge",
}

SEALED_AD_STRATEGIES = ("seal", "independent-seal")


def adreport_problems(
    strategy: str,
    *,
    processed: int,
    clicks: int,
    replicas_agree: bool,
    committed: Mapping[str, frozenset],
    truth: frozenset,
) -> list[str]:
    """Every click visible and every replica committed the ground truth;
    sealed runs' replicas also emit the same responses.

    Uncoordinated replicas answer each request from whatever clicks have
    arrived, so their responses may differ: that is the anomaly Blazes
    predicts for the CAMPAIGN query without coordination, not a fault.
    """
    problems = []
    if processed != clicks:
        problems.append(f"processed {processed} of {clicks} clicks")
    if strategy in SEALED_AD_STRATEGIES and not replicas_agree:
        problems.append("sealed report replicas disagree")
    for node, state in sorted(committed.items()):
        if state != truth:
            problems.append(
                f"{node} committed {len(state)} rows, "
                f"{len(state ^ truth)} differ from the ground truth"
            )
    return problems


def wordcount_problems(store: Mapping, reference: Mapping) -> list[str]:
    """The committed (word, batch) counts equal a sequential recount."""
    if store == reference:
        return []
    missing = set(reference) - set(store)
    wrong = {key for key in set(store) & set(reference) if store[key] != reference[key]}
    extra = set(store) - set(reference)
    return [
        f"committed store differs from reference: {len(missing)} missing, "
        f"{len(wrong)} wrong, {len(extra)} extra keys"
    ]


def socket_problems(
    *,
    processed: int,
    clicks: int,
    committed: Mapping[str, frozenset],
    sim_committed: Mapping[str, frozenset],
) -> list[str]:
    """The socket run commits exactly what the sim backend commits."""
    problems = []
    if processed != clicks:
        problems.append(f"processed {processed} of {clicks} clicks")
    if set(committed) != set(sim_committed):
        problems.append(f"replica sets differ: {sorted(committed)} vs {sorted(sim_committed)}")
    for node in sorted(set(committed) & set(sim_committed)):
        if committed[node] != sim_committed[node]:
            diff = len(committed[node] ^ sim_committed[node])
            problems.append(f"{node}: {diff} rows differ from the sim backend")
    return problems


def grid_problems(cells: list[Mapping]) -> dict[str, list[str]]:
    """Per audit cell: unsound in-envelope verdicts and missing anomalies.

    ``cells`` are ``{"name", "app", "strategy", "status", "observed"}``
    mappings.  When an expected anomaly appears in none of its
    (app, strategy) cells, every one of those cells fails.
    """
    problems: dict[str, list[str]] = {cell["name"]: [] for cell in cells}
    for cell in cells:
        if cell["status"] == "unsound":
            problems[cell["name"]].append(
                f"in-envelope cell unsound (observed {cell['observed']})"
            )
    for (app, strategy), label in EXPECTED_ANOMALIES.items():
        group = [c for c in cells if c["app"] == app and c["strategy"] == strategy]
        if group and not any(c["observed"] == label for c in group):
            for cell in group:
                problems[cell["name"]].append(f"predicted anomaly {label} never observed")
    return problems
