"""Derived metrics over simulation results.

Small, pure ratios a report prints next to the headline metrics (the
quickstart example shows both), each computed from a
:class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from repro.isa.records import OpKind
from repro.sim.results import SimulationResult


def communication_fraction(result: SimulationResult) -> float:
    """Fraction of the makespan attributable to communication (0..1)."""

    if result.duration <= 0:
        return 0.0
    return result.communication_time / result.duration


def shuttles_per_two_qubit_gate(result: SimulationResult) -> float:
    """Average number of shuttles incurred per application entangling gate."""

    gates = result.count(OpKind.GATE_2Q)
    if gates == 0:
        return 0.0
    return result.num_shuttles / gates
