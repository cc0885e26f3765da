"""Initial qubit-to-trap mapping heuristics (paper Section VI).

The default heuristic is the paper's: order program qubits by the sequence in
which the application first uses them, then fill traps in topology order,
leaving ``buffer_ions`` free slots per trap for incoming shuttles.  Because
most NISQ circuits (QAOA ring ansatz, Supremacy grids, adders) interact
neighbouring qubit indices, first-use order co-locates interacting qubits.

Two alternatives are provided for ablation studies:

* :func:`round_robin_mapping` -- deal qubits across traps one at a time
  (deliberately poor locality; useful as a stress baseline).
* :func:`interaction_aware_mapping` -- greedy clustering by interaction count
  (a heavier heuristic in the spirit of [74]).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

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


def _check_fits(circuit: Circuit, device: QCCDDevice) -> None:
    usable = device.usable_capacity()
    if circuit.num_qubits > usable:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but the device only has "
            f"{usable} usable slots ({device.topology.num_traps} traps of capacity "
            f"{device.trap_capacity} with {device.buffer_ions} buffer slots each)"
        )


def _fill_traps(order: Sequence[int], device: QCCDDevice) -> PlacementState:
    """Place qubits in ``order`` into traps in topology order."""

    state = PlacementState(device)
    traps = list(device.topology.traps)
    trap_index = 0
    placed_in_trap = 0
    for qubit in order:
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


def greedy_mapping(circuit: Circuit, device: QCCDDevice) -> PlacementState:
    """The paper's greedy mapping: first-use order, traps filled in sequence."""

    _check_fits(circuit, device)
    return _fill_traps(first_use_order(circuit), device)


def round_robin_mapping(circuit: Circuit, device: QCCDDevice) -> PlacementState:
    """Deal qubits across traps round-robin (ablation baseline)."""

    _check_fits(circuit, device)
    state = PlacementState(device)
    traps = list(device.topology.traps)
    capacities = {t.name: t.usable_capacity(device.buffer_ions) for t in traps}
    counts = defaultdict(int)
    trap_cycle = 0
    for qubit in first_use_order(circuit):
        placed = False
        for offset in range(len(traps)):
            trap = traps[(trap_cycle + offset) % len(traps)]
            if counts[trap.name] < capacities[trap.name]:
                state.load_ion(ion=qubit, trap_name=trap.name, qubit=qubit)
                counts[trap.name] += 1
                trap_cycle = (trap_cycle + offset + 1) % len(traps)
                placed = True
                break
        if not placed:
            raise ValueError("ran out of trap capacity while mapping")
    return state


def interaction_aware_mapping(circuit: Circuit, device: QCCDDevice) -> PlacementState:
    """Greedy clustering by interaction weight.

    Qubits are considered in first-use order; each qubit is placed in the trap
    (with free usable space) that maximises the total interaction count with
    qubits already placed there, breaking ties toward the first-use trap
    order.  This approximates the qubit-allocation heuristics of [74] without
    an expensive search.
    """

    _check_fits(circuit, device)
    # Per qubit, its interaction count with each neighbour, from the
    # circuit's cached front-end.
    weight = [dict(pairs) for pairs in circuit.front_end().neighbours]

    state = PlacementState(device)
    traps = list(device.topology.traps)
    capacities = {t.name: t.usable_capacity(device.buffer_ions) for t in traps}
    members: Dict[str, List[int]] = {t.name: [] for t in traps}

    for qubit in first_use_order(circuit):
        best_trap = None
        best_score = -1
        for trap in traps:
            if len(members[trap.name]) >= capacities[trap.name]:
                continue
            score = sum(weight[qubit].get(other, 0) for other in members[trap.name])
            if score > best_score:
                best_score = score
                best_trap = trap
        if best_trap is None:
            raise ValueError("ran out of trap capacity while mapping")
        state.load_ion(ion=qubit, trap_name=best_trap.name, qubit=qubit)
        members[best_trap.name].append(qubit)
    return state


#: Registry used by the compiler options.
MAPPING_STRATEGIES = {
    "greedy": greedy_mapping,
    "round_robin": round_robin_mapping,
    "interaction_aware": interaction_aware_mapping,
}
