"""Compile-and-simulate drivers.

:func:`run_experiment` evaluates one (application, architecture) pair and
returns an :class:`ExperimentRecord`.  :func:`run_gate_variants` exploits the
fact that the two-qubit gate implementation does not change the compiled
operation sequence (only its durations and fidelities), so one compilation can
be simulated under AM1, AM2, PM and FM -- this is how Figure 8's 288 points
are produced from 72 compilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.compiler.compile import compile_circuit
from repro.ir.circuit import Circuit
from repro.sim.batch import simulate_gate_variants
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.toolflow.config import ArchitectureConfig


@dataclass(frozen=True)
class ExperimentRecord:
    """One evaluated design point."""

    application: str
    config: ArchitectureConfig
    result: SimulationResult
    program_size: int
    num_shuttles: int
    #: Wall-clock seconds spent producing this record (compile share plus its
    #: simulation), measured by the sweep executor.  ``None`` when the record
    #: was produced by an untimed path.  Excluded from equality and from
    #: ``as_row()``: the timing describes the run, not the design point, so
    #: report tables and golden outputs never depend on it.
    wall_s: Optional[float] = field(default=None, compare=False)

    @property
    def fidelity(self) -> float:
        """Application reliability."""

        return self.result.fidelity

    @property
    def duration_seconds(self) -> float:
        """Application run time in seconds."""

        return self.result.duration_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by report tables.

        The row is assembled once per record and memoised (filter helpers
        like :func:`~repro.toolflow.sweep.select` call this repeatedly over
        large record lists); callers receive a fresh copy they may mutate.
        """

        cached = self.__dict__.get("_row_cache")
        if cached is None:
            cached = {
                "application": self.application,
                "topology": self.config.topology,
                "capacity": self.config.trap_capacity,
                "gate": self.config.gate,
                "reorder": self.config.reorder,
                "buffer": self.config.buffer_ions,
                "program_ops": self.program_size,
                "shuttles": self.num_shuttles,
            }
            cached.update(self.result.as_dict())
            # Frozen dataclass: store through the instance dict directly.
            self.__dict__["_row_cache"] = cached
        return dict(cached)


def compile_for(circuit: Circuit, config: ArchitectureConfig) -> tuple:
    """Compile ``circuit`` for ``config``; returns ``(program, device)``."""

    device = config.build_device(circuit.num_qubits)
    program = compile_circuit(circuit, device)
    return program, device


def run_experiment(circuit: Circuit,
                   config: ArchitectureConfig) -> ExperimentRecord:
    """Compile and simulate one application on one candidate architecture."""

    program, device = compile_for(circuit, config)
    result = simulate(program, device)
    return ExperimentRecord(
        application=circuit.name,
        config=config,
        result=result,
        program_size=len(program),
        num_shuttles=program.num_shuttles,
    )


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

    program, device = compile_for(circuit, config)
    gates = tuple(gates)
    results = simulate_gate_variants(program, device, gates)
    records: Dict[str, ExperimentRecord] = {}
    for gate, result in zip(gates, results):
        records[gate] = ExperimentRecord(
            application=circuit.name,
            config=config.with_updates(gate=gate),
            result=result,
            program_size=len(program),
            num_shuttles=program.num_shuttles,
        )
    return records
