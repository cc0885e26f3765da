"""Best-point selection and fidelity-vs-runtime Pareto frontiers.

The paper's design-space study boils down to two questions per application:
which architecture maximises reliability, and what does the
reliability/runtime trade-off curve look like (Figures 6-8 read off its
extremes).  These helpers answer both over any mix of live
:class:`~repro.toolflow.runner.ExperimentRecord` and store-replayed
:class:`~repro.dse.store.CachedRecord` objects.

All orderings are deterministic: ties break towards the earlier record, so
the same record list always yields the same frontier and best point.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

#: Objectives understood by the strategies and the CLI.  All are
#: canonicalised to higher-is-better by :func:`objective_value`:
#:
#: * ``fidelity`` -- application reliability (higher is better as-is).
#: * ``runtime`` -- negated makespan in seconds (faster is better).
#: * ``comm_fraction`` -- negated fraction of the makespan spent on
#:   communication (:func:`repro.sim.metrics.communication_fraction`; less
#:   shuttling overhead is better).
#: * ``shuttles_per_2q`` -- negated shuttles per executed MS gate.  The
#:   denominator is ``num_ms_gates`` (MS applications including reordering
#:   swaps) because that is the count store rows persist, so live and
#:   store-replayed records score identically.
OBJECTIVES = ("fidelity", "runtime", "comm_fraction", "shuttles_per_2q")


def objective_value(record, metric: str = "fidelity") -> float:
    """Scalar score of a record under ``metric`` -- higher is always better."""

    if metric == "fidelity":
        return record.fidelity
    if metric == "runtime":
        return -record.duration_seconds
    if metric == "comm_fraction":
        duration = record.result.duration_seconds
        if duration <= 0:
            return 0.0
        return -record.result.communication_seconds / duration
    if metric == "shuttles_per_2q":
        gates = record.result.num_ms_gates
        if gates == 0:
            return 0.0
        return -record.num_shuttles / gates
    raise ValueError(f"unknown objective {metric!r}; expected one of {OBJECTIVES}")


def best_record(records: Iterable, metric: str = "fidelity"):
    """The record with the best objective (first wins on ties); None if empty."""

    best = None
    best_score = None
    for record in records:
        score = objective_value(record, metric)
        if best is None or score > best_score:
            best, best_score = record, score
    return best


def pareto_frontier(records: Iterable) -> List:
    """Records not dominated in (runtime down, fidelity up).

    A record is dominated when another is at least as fast *and* at least as
    reliable (and strictly better in one).  The frontier is returned fastest
    first; among records with identical runtime only the most reliable
    (earliest on ties) survives.
    """

    indexed = list(enumerate(records))
    # Sort: runtime ascending, fidelity descending, original order last so
    # the sweep below is deterministic for fully tied records.  After this
    # sort, a runtime tie always presents its best fidelity first, so the
    # single fidelity check below also resolves ties.
    indexed.sort(key=lambda item: (item[1].duration_seconds,
                                   -item[1].fidelity, item[0]))
    frontier: List = []
    best_fidelity: Optional[float] = None
    for _, record in indexed:
        if best_fidelity is not None and record.fidelity <= best_fidelity:
            continue
        frontier.append(record)
        best_fidelity = record.fidelity
    return frontier


def per_app_frontiers(records: Iterable) -> Dict[str, List]:
    """Frontier per application, keyed by application name (sorted)."""

    by_app: Dict[str, List] = {}
    for record in records:
        by_app.setdefault(record.application, []).append(record)
    return {app: pareto_frontier(app_records)
            for app, app_records in sorted(by_app.items())}
