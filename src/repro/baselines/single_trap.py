"""Single-trap baseline: every qubit in one long ion chain.

A single-trap device needs no shuttling (the chain is fully connected), so its
execution model is simple: gates run serially on the chain, each with the
duration and fidelity dictated by the chain length and ion separation.  The
motional energy stays at zero (no splits or merges), yet fidelity still
degrades with qubit count because the laser-instability term ``A(N)`` grows
and, for AM gates, far-apart ion pairs take a long time.

This is the architecture the paper argues cannot scale past ~50 qubits; the
baseline lets the repository demonstrate that argument with numbers.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.ir.circuit import Circuit
from repro.ir.gate import GateKind
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import GateImplementation, gate_time
from repro.models.params import PhysicalModel
from repro.sim.results import SimulationResult


def simulate_single_trap(circuit: Circuit, gate="FM",
                         model: PhysicalModel = None) -> SimulationResult:
    """Simulate ``circuit`` on a single trap holding every qubit in one chain.

    Qubits sit in the chain in index order; every gate executes serially.
    """

    model = model or PhysicalModel()
    model.validate()
    implementation = GateImplementation.from_name(gate)
    fidelity_model = FidelityModel(model.fidelity)
    chain_length = circuit.num_qubits

    duration = 0.0
    log_fidelity = 0.0
    background_total = 0.0
    motional_total = 0.0
    num_ms = 0
    op_counts: Dict = {}

    for ir_gate in circuit.lowered().gates:
        if ir_gate.kind is GateKind.BARRIER:
            continue
        if ir_gate.kind is GateKind.SINGLE_QUBIT:
            duration += model.single_qubit.gate_time
            fidelity = fidelity_model.single_qubit_fidelity()
        elif ir_gate.kind is GateKind.MEASUREMENT:
            duration += model.single_qubit.measurement_time
            fidelity = fidelity_model.measurement_fidelity()
        else:
            distance = abs(ir_gate.qubits[0] - ir_gate.qubits[1]) - 1
            gate_duration = gate_time(implementation, distance=distance,
                                      chain_length=chain_length)
            duration += gate_duration
            breakdown = fidelity_model.two_qubit_error(
                duration=gate_duration, chain_length=chain_length, motional_energy=0.0)
            background_total += breakdown.background
            motional_total += breakdown.motional
            num_ms += 1
            fidelity = breakdown.fidelity
        if fidelity <= 0.0:
            log_fidelity = -math.inf
        elif log_fidelity != -math.inf:
            log_fidelity += math.log(fidelity)

    return SimulationResult(
        duration=duration,
        fidelity=SimulationResult.fidelity_from_log(log_fidelity),
        log_fidelity=log_fidelity,
        computation_time=duration,
        communication_time=0.0,
        op_counts=op_counts,
        mean_background_error=background_total / num_ms if num_ms else 0.0,
        mean_motional_error=motional_total / num_ms if num_ms else 0.0,
        total_background_error=background_total,
        total_motional_error=motional_total,
        max_motional_energy=0.0,
        final_trap_energies={"T0": 0.0},
        peak_occupancy={"T0": circuit.num_qubits},
        num_shuttles=0,
        num_ms_gates=num_ms,
        trap_gate_busy_time={"T0": duration},
        trap_comm_busy_time={"T0": 0.0},
        circuit_name=circuit.name,
        device_name=f"single-trap-{circuit.num_qubits}-{implementation.value}",
    )
