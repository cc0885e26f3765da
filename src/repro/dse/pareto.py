"""The objectives and best-point selection.

The paper's design-space study boils down to two questions per application:
which architecture maximises reliability, and what does the
reliability/runtime trade-off curve look like (Figures 6-8 read off its
extremes).  These helpers score and rank
:class:`~repro.toolflow.runner.ExperimentRecord` objects, computed or
replayed from a store alike; the frontiers are
:func:`repro.dse.moo.frontier.record_frontier`'s.  A leaf module: the CLI
reads :data:`OBJECTIVES` without loading a strategy.

Ties break towards the earlier record, so the same record list always
yields the same best point.
"""

from __future__ import annotations

from typing import Iterable

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
