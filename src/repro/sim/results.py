"""Simulation results: application metrics and device metrics.

The result object mirrors the outputs of the paper's toolflow (Figure 3):
application run time, reliability (fidelity), resource/operation counts and
device noise metrics (motional mode energies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.isa.records import OpKind


@dataclass
class SimulationResult:
    """Application- and device-level metrics of one simulated execution.

    All times are microseconds unless the attribute name says otherwise.
    """

    #: Total execution time (makespan) in microseconds.
    duration: float
    #: Product of per-operation fidelities (the paper's application reliability).
    fidelity: float
    #: Natural log of the fidelity (robust to underflow for huge programs).
    log_fidelity: float
    #: Wall-clock of the program if all communication primitives took zero
    #: time -- the "computation time" component of Figure 6b.
    computation_time: float
    #: duration - computation_time: the communication component of Figure 6b.
    communication_time: float
    #: Operation counts by kind.
    op_counts: Dict[OpKind, int] = field(default_factory=dict)
    #: Mean per-two-qubit-gate error from background heating (Gamma * tau).
    mean_background_error: float = 0.0
    #: Mean per-two-qubit-gate error from motional energy / laser instability.
    mean_motional_error: float = 0.0
    #: Sum of background error over all MS gates (including reordering swaps).
    total_background_error: float = 0.0
    #: Sum of motional error over all MS gates (including reordering swaps).
    total_motional_error: float = 0.0
    #: Highest motional energy reached by any chain at any point (quanta).
    max_motional_energy: float = 0.0
    #: Final motional energy per trap (quanta).
    final_trap_energies: Dict[str, float] = field(default_factory=dict)
    #: Peak number of ions simultaneously present per trap.
    peak_occupancy: Dict[str, int] = field(default_factory=dict)
    #: Number of trap-to-trap shuttles (split operations).
    num_shuttles: int = 0
    #: Number of MS gate applications including reordering SWAPs (each SWAP
    #: counts as three MS gates).
    num_ms_gates: int = 0
    #: Busy time per trap spent executing gates (computation).
    trap_gate_busy_time: Dict[str, float] = field(default_factory=dict)
    #: Busy time per trap spent on splits/merges/reordering (communication).
    trap_comm_busy_time: Dict[str, float] = field(default_factory=dict)
    #: Name of the circuit and device configuration that produced the result.
    circuit_name: str = "circuit"
    device_name: str = "device"

    # ------------------------------------------------------------------ #
    @property
    def duration_seconds(self) -> float:
        """Makespan in seconds (the unit of the paper's time plots)."""

        return self.duration * 1e-6

    @property
    def computation_seconds(self) -> float:
        """Computation component in seconds."""

        return self.computation_time * 1e-6

    @property
    def communication_seconds(self) -> float:
        """Communication component in seconds."""

        return self.communication_time * 1e-6

    @property
    def mean_two_qubit_error(self) -> float:
        """Mean total error per MS gate (background + motional)."""

        return self.mean_background_error + self.mean_motional_error

    def count(self, kind: OpKind) -> int:
        """Operation count for ``kind``."""

        return self.op_counts.get(kind, 0)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (used by sweep tables)."""

        return headline_metrics(self)

    @staticmethod
    def fidelity_from_log(log_fidelity: float) -> float:
        """Convert a log-fidelity back to a probability, guarding underflow."""

        if log_fidelity == -math.inf:
            return 0.0
        return math.exp(log_fidelity)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"SimulationResult({self.circuit_name!r} on {self.device_name!r}: "
                f"time={self.duration_seconds:.4f}s, fidelity={self.fidelity:.4g})")


def headline_metrics(result) -> Dict[str, float]:
    """The headline metrics of a result, in the one order every view lists.

    ``result`` is a :class:`SimulationResult` or a store row's
    :class:`~repro.dse.store.CachedResult`, which exposes the same
    attributes; store rows keep the metrics with sorted keys, so a replayed
    record lists them in this order only through here.
    """

    return {
        "duration_us": result.duration,
        "duration_s": result.duration_seconds,
        "fidelity": result.fidelity,
        "log_fidelity": result.log_fidelity,
        "computation_s": result.computation_seconds,
        "communication_s": result.communication_seconds,
        "max_motional_energy": result.max_motional_energy,
        "mean_background_error": result.mean_background_error,
        "mean_motional_error": result.mean_motional_error,
        "num_shuttles": float(result.num_shuttles),
        "num_ms_gates": float(result.num_ms_gates),
    }
