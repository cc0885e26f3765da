"""Initial qubit-to-trap mapping (paper Section VI).

The heuristic is the paper's: order program qubits by the sequence in which
the application first uses them, then fill traps in topology order, leaving
``buffer_ions`` free slots per trap for incoming shuttles.  Because most
NISQ circuits (QAOA ring ansatz, Supremacy grids, adders) interact
neighbouring qubit indices, first-use order co-locates interacting qubits.
"""

from __future__ import annotations

from typing import List

from repro.compiler.placement_state import PlacementState
from repro.hardware.device import QCCDDevice
from repro.ir.circuit import Circuit


def first_use_order(circuit: Circuit) -> List[int]:
    """Program qubits ordered by the position of their first gate.

    Qubits that never appear in a gate are appended afterwards in index order
    so that every program qubit receives an ion.  Read from the circuit's
    cached front-end.
    """

    return list(circuit.front_end().first_use_order)


def greedy_mapping(circuit: Circuit, device: QCCDDevice) -> PlacementState:
    """The paper's greedy mapping: first-use order, traps filled in sequence."""

    usable = device.usable_capacity()
    if circuit.num_qubits > usable:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but the device only has "
            f"{usable} usable slots ({device.topology.num_traps} traps of capacity "
            f"{device.trap_capacity} with {device.buffer_ions} buffer slots each)"
        )
    state = PlacementState(device)
    traps = list(device.topology.traps)
    trap_index = 0
    placed_in_trap = 0
    for qubit in first_use_order(circuit):
        while True:
            trap = traps[trap_index]
            limit = trap.usable_capacity(device.buffer_ions)
            if placed_in_trap < limit:
                break
            trap_index += 1
            placed_in_trap = 0
            if trap_index >= len(traps):
                raise ValueError("ran out of trap capacity while mapping")
        state.load_ion(ion=qubit, trap_name=traps[trap_index].name, qubit=qubit)
        placed_in_trap += 1
    return state
