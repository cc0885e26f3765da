"""Derived metrics over simulation results.

Small, pure helper functions the analysis layer and tests share.  Everything
here can be computed from a :class:`~repro.sim.results.SimulationResult`
(and optionally the program that produced it).
"""

from __future__ import annotations

from typing import Dict

from repro.isa.records import OpKind
from repro.isa.program import QCCDProgram
from repro.sim.results import SimulationResult


def communication_fraction(result: SimulationResult) -> float:
    """Fraction of the makespan attributable to communication (0..1)."""

    if result.duration <= 0:
        return 0.0
    return result.communication_time / result.duration


def mean_two_qubit_error(result: SimulationResult) -> float:
    """Mean per-MS-gate error (background + motional)."""

    return result.mean_background_error + result.mean_motional_error


def shuttles_per_two_qubit_gate(result: SimulationResult) -> float:
    """Average number of shuttles incurred per application entangling gate."""

    gates = result.count(OpKind.GATE_2Q)
    if gates == 0:
        return 0.0
    return result.num_shuttles / gates


def reorder_overhead(result: SimulationResult) -> Dict[str, int]:
    """Counts of reordering operations (swap gates and physical ion swaps)."""

    return {
        "swap_gates": result.count(OpKind.SWAP_GATE),
        "ion_swaps": result.count(OpKind.ION_SWAP),
    }


def device_heating_summary(result: SimulationResult) -> Dict[str, float]:
    """Device-level heating metrics (Figure 6f / 7g style)."""

    energies = result.final_trap_energies
    return {
        "max_motional_energy": result.max_motional_energy,
        "final_max_energy": max(energies.values(), default=0.0),
        "final_mean_energy": (sum(energies.values()) / len(energies)) if energies else 0.0,
    }


def program_expansion(program: QCCDProgram) -> float:
    """Ratio of executed primitives to application gates.

    A measure of the communication overhead the compiler added; 1.0 means the
    program needed no shuttling at all.
    """

    app_ops = (program.count(OpKind.GATE_1Q) + program.count(OpKind.GATE_2Q)
               + program.count(OpKind.MEASURE))
    if app_ops == 0:
        return 0.0
    return len(program.operations) / app_ops


def gate_parallelism(result: SimulationResult) -> float:
    """Average number of traps busy with gates at any time.

    Computed as total gate busy time across traps divided by the makespan.
    """

    if result.duration <= 0:
        return 0.0
    total_busy = sum(result.trap_gate_busy_time.values())
    return total_busy / result.duration
