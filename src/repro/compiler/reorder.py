"""Chain reordering: position a qubit's state at a chain end before a split.

Split and merge operations act on the ends of an ion chain, so before a qubit
can leave a trap its state must reach the end facing the outgoing segment
(Section IV.C, Figure 5).  Two microarchitectures are modelled:

* **GS (gate-based swapping).**  One SWAP gate (three MS gates) exchanges the
  quantum state of the departing qubit with whatever ion already sits at the
  required end.  Because traps are fully connected, a single SWAP always
  suffices, but its duration and error follow the two-qubit gate model.
* **IS (ion swapping).**  The physical ion is walked to the end one hop at a
  time; every hop costs a split, a 180-degree rotation and a merge and heats
  the chain.
"""

from __future__ import annotations

from repro.compiler.builder import ProgramBuilder
from repro.compiler.placement_state import PlacementState
from repro.hardware.device import QCCDDevice, ReorderMethod
from repro.isa.operations import ion_swap_record, swap_gate_record


def reorder_to_end(builder: ProgramBuilder, state: PlacementState, device: QCCDDevice,
                   qubit: int, trap_name: str, side: str) -> int:
    """Bring ``qubit``'s state to the ``side`` end of ``trap_name``'s chain.

    Returns the number of reordering operations emitted (0 when the qubit is
    already at the requested end).  After the call,
    ``state.ion_of_qubit(qubit)`` is the ion at the requested end.
    """

    chain = state.chain(trap_name)
    ion = state.ion_of_qubit(qubit)
    if state.trap_of_ion(ion) != trap_name:
        raise ValueError(f"qubit {qubit} is not in trap {trap_name}")
    position = chain.index_of(ion)
    target = chain.end_index(side)
    if position == target:
        return 0
    size = len(chain)

    if device.reorder is ReorderMethod.GS:
        end_ion = chain.ion_at_end(side)
        builder.two_ions(ion, end_ion, trap_name, swap_gate_record, trap_name,
                         (ion, end_ion), (qubit, state.qubit_of_ion(end_ion)),
                         size, abs(target - position) - 1)
        state.swap_states(ion, end_ion)
        return 1

    # Ion swapping: hop the physical ion toward the end one neighbour at a
    # time, by its chain index.
    step = 1 if target > position else -1
    for index in range(position, target, step):
        neighbour = chain.hop(index, step)
        builder.two_ions(ion, neighbour, trap_name, ion_swap_record, trap_name,
                         (ion, neighbour), size)
    return abs(target - position)
