"""Shuttle emission: move one qubit's state from its trap to a destination trap.

A shuttle is lowered to the primitive sequence of Figure 2d / Figure 4:

1. reorder the departing qubit to the chain end facing the outgoing segment,
2. split it off the source chain,
3. move it segment by segment, crossing junctions where paths branch and
   passing *through* intermediate traps in linear topologies (merge, reorder
   to the far end, split again),
4. merge it into the destination chain at the end facing the incoming segment.

The route is replayed from the topology's cached
:class:`~repro.hardware.topology.ShuttlePath`, which carries its segments,
junctions and pass-through traps in order and the chain end of every trap it
leaves, passes through or enters, so a shuttle computes no path, port side or
segment lookup of its own.  Every primitive goes through the builder's
single-ion emitter.

The placement state is updated as operations are emitted so that the compiler
always sees the machine exactly as the simulator will replay it.
"""

from __future__ import annotations

from repro.compiler.builder import ProgramBuilder
from repro.compiler.placement_state import PlacementState
from repro.compiler.reorder import reorder_to_end
from repro.hardware.device import QCCDDevice
from repro.isa.records import junction_record, merge_record, move_record, split_record


def emit_shuttle(builder: ProgramBuilder, state: PlacementState, device: QCCDDevice,
                 qubit: int, destination: str) -> None:
    """Emit every primitive needed to bring ``qubit`` into trap ``destination``."""

    source = state.trap_of_qubit(qubit)
    if source is None:
        raise ValueError(f"qubit {qubit} is in transit; cannot start a new shuttle")
    if source == destination:
        return
    if state.free_space(destination) <= 0:
        raise ValueError(
            f"destination trap {destination} is full; the router must evict first"
        )

    path = device.topology.shortest_path(source, destination)
    emit = builder.one_ion

    # Depart: reorder to the exit end, then split.
    reorder_to_end(builder, state, device, qubit, source, path.exit_side)
    ion = state.ion_of_qubit(qubit)
    emit(ion, source, split_record, source, ion, len(state.chain(source)), path.exit_side)
    state.split(source, ion)

    # Travel step by step.
    node = source
    for step in path.steps:
        element = step.element
        if step.kind == "segment":
            end = element.other_end(node)
            emit(ion, None, move_record, ion, element.name, element.length, node, end)
            node = end
        elif step.kind == "junction":
            emit(ion, None, junction_record, ion, element.name, element.degree)
        else:
            # Pass-through trap (linear topologies, Figure 4): merge, bring the
            # state to the far end, split back out.  The chain may transiently
            # hold capacity+1 ions while the travelling ion is inside.
            entry_side, exit_side = step.sides
            emit(ion, node, merge_record, node, ion, entry_side)
            state.merge(node, ion, entry_side, allow_overfill=True)
            reorder_to_end(builder, state, device, qubit, node, exit_side)
            ion = state.ion_of_qubit(qubit)
            emit(ion, node, split_record, node, ion, len(state.chain(node)), exit_side)
            state.split(node, ion)

    # Arrive: merge at the end facing the last segment.
    emit(ion, destination, merge_record, destination, ion, path.entry_side)
    state.merge(destination, ion, path.entry_side)
