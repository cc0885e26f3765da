"""The design-point record and the compile-and-simulate drivers.

:class:`ExperimentRecord` is the one record of an evaluated design point,
whether it was computed in this process or replayed from an experiment
store (:func:`repro.dse.store.row_to_record`).  :func:`run_experiment`
evaluates one (application, architecture) pair; :func:`run_gate_variants`
exploits the fact that the two-qubit gate implementation does not change
the compiled operation sequence (only its durations and fidelities), so one
compilation can be simulated under AM1, AM2, PM and FM -- this is how
Figure 8's 288 points are produced from 72 compilations.  Both are one
:func:`~repro.toolflow.parallel.execute_task` call, the path every sweep
point takes.

The drivers import the compiler and the simulator when called, so a
process that only reads records (``repro dse pareto``, ``repro dse
status``) loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:
    from repro.ir.circuit import Circuit
    from repro.sim.results import SimulationResult
    from repro.toolflow.config import ArchitectureConfig


@dataclass(frozen=True)
class ExperimentRecord:
    """One evaluated design point."""

    application: str
    config: ArchitectureConfig
    #: A :class:`~repro.sim.results.SimulationResult` when computed, a
    #: :class:`~repro.dse.store.CachedResult` over the stored metrics when
    #: replayed; both carry the same floats.
    result: SimulationResult
    program_size: int
    num_shuttles: int
    #: Wall-clock seconds spent producing this record (compile share plus its
    #: simulation), measured by the sweep executor.  ``None`` when unknown
    #: (rows written before schema v2).  Excluded from equality and from
    #: ``as_row()``: the timing describes the run, not the design point, so
    #: report tables and golden outputs never depend on it.
    wall_s: Optional[float] = field(default=None, compare=False)
    #: Who asked for the point: strategy name, seed and multi-fidelity rung
    #: (schema v3), as replayed from a store row; ``None`` for older rows
    #: and for records computed in this process (the runner stamps its rows
    #: itself).  Excluded from equality like ``wall_s``.
    provenance: Optional[Dict[str, object]] = field(default=None,
                                                    compare=False)

    @property
    def fidelity(self) -> float:
        """Application reliability."""

        return self.result.fidelity

    @property
    def duration_seconds(self) -> float:
        """Application run time in seconds."""

        return self.result.duration_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by report tables."""

        row = {
            "application": self.application,
            "topology": self.config.topology,
            "capacity": self.config.trap_capacity,
            "gate": self.config.gate,
            "reorder": self.config.reorder,
            "buffer": self.config.buffer_ions,
            "program_ops": self.program_size,
            "shuttles": self.num_shuttles,
        }
        row.update(self.result.as_dict())
        return row


def compile_for(circuit: Circuit, config: ArchitectureConfig) -> tuple:
    """Compile ``circuit`` for ``config``; returns ``(program, device)``."""

    from repro.compiler.compile import compile_circuit

    device = config.build_device(circuit.num_qubits)
    program = compile_circuit(circuit, device)
    return program, device


def run_experiment(circuit: Circuit,
                   config: ArchitectureConfig) -> ExperimentRecord:
    """Compile and simulate one application on one candidate architecture."""

    from repro.toolflow.parallel import ProgramCache, SweepTask, execute_task

    return execute_task(SweepTask(circuit, config), ProgramCache())[0]


def run_gate_variants(circuit: Circuit, config: ArchitectureConfig,
                      gates: Iterable[str] = ("AM1", "AM2", "PM", "FM"),
                      ) -> Dict[str, ExperimentRecord]:
    """Evaluate several gate implementations from a single compilation.

    The compiled program depends on topology, capacity and reordering method
    but not on the MS pulse-modulation scheme, so the program is compiled once
    (under ``config``) and simulated for every entry of ``gates`` in one
    batched call (:func:`repro.sim.batch.simulate_gate_variants`): one
    shared timeline pass per distinct duration vector, identical to
    simulating each variant on its own.
    """

    from repro.toolflow.parallel import ProgramCache, SweepTask, execute_task

    gates = tuple(gates)
    records = execute_task(SweepTask(circuit, config, gates=gates),
                           ProgramCache())
    return dict(zip(gates, records))
