"""Static program verifier: prove a compiled program legal without simulating.

The verifier replays a :class:`~repro.isa.program.QCCDProgram` against its
:class:`~repro.isa.program.InitialPlacement` symbolically -- chain contents,
transit positions and qubit/ion bindings, exactly the state the compiler's
:class:`~repro.compiler.placement_state.PlacementState` tracked while
emitting -- and checks the paper's legality rules op by op (checks ``QV001``
.. ``QV007``, catalogued in :mod:`repro.analyze.diagnostics` and
``docs/static-analysis.md``):

* **Occupancy.**  No trap ever holds more than ``capacity`` ions, except the
  single transient overfill ion of a pass-through merge (Figure 4): while a
  trap is overfilled only reorder ops (SwapGate/IonSwap) and the relieving
  Split may touch it, and the program may not end overfilled.
* **Conservation.**  An ion is in exactly one chain or in transit; splits
  take the ion from the declared trap's declared end, merges/moves/junction
  crossings act only on in-transit ions, and transit routes are continuous
  (each move departs from where the previous hop arrived).
* **Gate legality.**  Gates, measurements and swaps act only on ions
  co-trapped in the declared trap, and the program-qubit operands match the
  tracked qubit/ion binding (flipped by every gate-based SWAP).
* **Annotations.**  ``chain_length`` / ``chain_size`` / ``ion_distance`` /
  split sides / IS-hop adjacency equal what the replayed chain shows -- the
  simulator's performance and noise models read these without re-deriving
  chain contents, so a wrong annotation silently corrupts results.
* **Dependency coverage.**  Dependencies are in range (op ids are dense by
  construction: an op's id is its record's position), and
  consecutive ops touching the same ion are ordered by a happens-before path
  through dependencies and shared-resource chains -- the merged predecessor
  relation of the simulator's lowering (:mod:`repro.sim.lower`), so a
  program that passes here cannot be misordered by the simulator.  Two ops
  on one resource are ordered by its chain, which the lowering always
  keeps; only pairs on different resources take a reachability search.
* **Connectivity** (when a device is supplied).  Every trap/segment/junction
  name exists in the topology, moves run along segments that join their
  endpoints with matching lengths, junction degrees agree, and merge/split
  sides agree with the topology's port geometry.

The replay runs in one pass over the op stream (chains are bounded by trap
capacity, so per-op work is O(capacity)); it is cheap enough to run on every
compile under ``--check``.  Every check walks the op records
(``program.records``): the replay keeps one handler per kind code, which
unpacks its record as the simulator's lowering does, so the verifier checks
what the simulator runs and builds no operation objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.diagnostics import Report, diag
from repro.isa.program import QCCDProgram
from repro.isa.records import (
    GATE_1Q,
    GATE_2Q,
    ION_SWAP,
    JUNCTION,
    KINDS,
    MEASURE,
    MERGE,
    MOVE,
    SPLIT,
    SWAP_GATE,
    record_ions,
)
from repro.sim.lower import Predecessors, lower

#: Cap on the backward reachability search of the dependency-coverage check;
#: generously above any real dependency chain between two uses of one ion.
_REACH_LIMIT = 4096


def _op_location(op_id: int) -> str:
    return f"op {op_id}"


class _Replay:
    """Mutable machine state replayed from the initial placement."""

    __slots__ = ("chains", "position", "trap_of", "qubit_of_ion",
                 "ion_of_qubit", "overfilled", "capacities", "topology")

    def __init__(self, program: QCCDProgram,
                 capacities: Optional[Dict[str, int]], topology) -> None:
        placement = program.placement
        self.chains: Dict[str, List[int]] = {
            trap: list(chain) for trap, chain in placement.trap_chains.items()
        }
        # trap_of: ion -> trap name, or None while in transit.
        self.trap_of: Dict[int, Optional[str]] = {}
        for trap, chain in self.chains.items():
            for ion in chain:
                self.trap_of[ion] = trap
        # position: transit node of each in-transit ion (last node reached).
        self.position: Dict[int, str] = {}
        self.qubit_of_ion: Dict[int, Optional[int]] = {}
        self.ion_of_qubit: Dict[int, int] = {}
        for qubit, ion in placement.qubit_to_ion.items():
            self.qubit_of_ion[ion] = qubit
            self.ion_of_qubit[qubit] = ion
        self.overfilled: Dict[str, bool] = {}
        self.capacities = capacities
        self.topology = topology


def verify_program(program: QCCDProgram, device=None) -> Report:
    """Run every program-level check; returns the findings as a
    :class:`~repro.analyze.diagnostics.Report`.

    ``device`` (a :class:`~repro.hardware.device.QCCDDevice`) enables the
    capacity and connectivity checks; without one the verifier covers
    everything derivable from the op stream and placement alone and notes
    the reduced scope with one ``QV000`` info diagnostic.
    """

    report = Report()
    topology = device.topology if device is not None else None
    capacities = None
    if topology is not None:
        capacities = {trap.name: trap.capacity for trap in topology.traps}
    else:
        report.add(diag("QV000",
                        "no device supplied: trap-capacity and "
                        "route-connectivity checks were skipped",
                        hint="pass the architecture flags (or verify through "
                             "`repro check --app/--suite`) for full coverage"))

    _check_placement(program, capacities, report)
    _check_structure(program, report)
    state = _Replay(program, capacities, topology)
    for index, record in enumerate(program.records):
        code = record[0]
        _REPLAY[code](index, record, state, report)
        if capacities is not None and code != MOVE and code != JUNCTION:
            trap = record[2]
            if trap and trap not in capacities:
                report.add(diag(
                    "QV007", f"op {index} references unknown trap {trap!r}",
                    location=_op_location(index),
                    hint="the device topology has no such trap"))
    _check_final_state(state, report)
    _check_dependency_coverage(program, report)
    return report


def quick_validate(program: QCCDProgram) -> Report:
    """The cheap structural subset behind :meth:`QCCDProgram.validate`.

    Covers referenced-ion existence, placement self-consistency and
    dependency ranges -- the checks every compile pays for, all read from
    the op records; the full replay stays behind :func:`verify_program` /
    ``--check``.
    """

    report = Report()
    _check_placement(program, None, report)
    _check_structure(program, report)
    return report


# --------------------------------------------------------------------------- #
# Placement and structural checks
# --------------------------------------------------------------------------- #
def _check_placement(program: QCCDProgram,
                     capacities: Optional[Dict[str, int]],
                     report: Report) -> None:
    placement = program.placement
    seen: Dict[int, str] = {}
    for trap, chain in placement.trap_chains.items():
        for ion in chain:
            if ion in seen:
                report.add(diag(
                    "QV002", f"ion {ion} appears in two initial chains "
                             f"({seen[ion]} and {trap})",
                    location="placement",
                    hint="an ion must start in exactly one trap chain"))
            seen[ion] = trap
        if capacities is not None:
            capacity = capacities.get(trap)
            if capacity is not None and len(chain) > capacity:
                report.add(diag(
                    "QV001", f"initial chain of {trap} holds {len(chain)} "
                             f"ions but capacity is {capacity}",
                    location="placement",
                    hint="reduce the initial loading or raise trap_capacity"))
    for ion, trap in placement.ion_to_trap.items():
        if seen.get(ion) != trap:
            report.add(diag(
                "QV002", f"ion {ion} maps to trap {trap} but "
                         f"{'sits in ' + seen[ion] if ion in seen else 'is in no chain'}",
                location="placement",
                hint="ion_to_trap must mirror trap_chains"))
    for qubit, ion in placement.qubit_to_ion.items():
        if ion not in seen:
            report.add(diag(
                "QV005", f"qubit {qubit} mapped to unplaced ion {ion}",
                location="placement",
                hint="every program qubit needs a placed ion"))

    placed = set(seen)
    for index, record in enumerate(program.records):
        for ion in record_ions(record):
            if ion not in placed:
                # Message kept compatible with the historical
                # QCCDProgram.validate() wording.
                report.add(diag(
                    "QV005", f"op {index} references unknown ion {ion}",
                    location=_op_location(index),
                    hint="the operation uses an ion the initial placement "
                         "never loaded"))


def _check_structure(program: QCCDProgram, report: Report) -> None:
    for index, record in enumerate(program.records):
        for dep in record[1]:
            if dep < 0 or dep >= index:
                report.add(diag(
                    "QV006", f"op {index} depends on {dep}, which is not an "
                             f"earlier operation",
                    location=_op_location(index),
                    hint="dependencies must reference earlier ops (this also "
                         "guarantees the DAG is acyclic)"))


# --------------------------------------------------------------------------- #
# The replay: one handler per kind code, each unpacking its op record
# --------------------------------------------------------------------------- #
def _ions_in_trap(index: int, code: int, trap: str, ions: Sequence[int],
                  state: _Replay, report: Report) -> bool:
    chain = state.chains.get(trap)
    if chain is None:
        report.add(diag(
            "QV003", f"op {index} targets trap {trap!r} which holds "
                     f"no chain", location=_op_location(index),
            hint="the placement never loaded this trap"))
        return False
    ok = True
    for ion in ions:
        where = state.trap_of.get(ion)
        if where != trap:
            place = "in transit" if where is None and ion in state.position \
                else f"in {where}" if where else "unplaced"
            report.add(diag(
                "QV003", f"op {index} ({KINDS[code].value}) needs ion {ion} "
                         f"in {trap} but it is {place}",
                location=_op_location(index),
                hint="gates act only on co-trapped ions; shuttle the ion "
                     "first"))
            ok = False
    return ok


def _check_overfill(index: int, code: int, trap: str, state: _Replay,
                    report: Report) -> None:
    """Gates and measurements may not touch an overfilled trap; the reorder
    ops and the relieving split may."""

    if state.overfilled.get(trap):
        report.add(diag(
            "QV001", f"op {index} ({KINDS[code].value}) executes on "
                     f"overfilled trap {trap}",
            location=_op_location(index),
            hint="while a pass-through ion is inside, only reorder ops and "
                 "the relieving split may touch the trap"))


def _replay_gate(index: int, record: tuple, state: _Replay,
                 report: Report) -> None:
    code = record[0]
    if code == SWAP_GATE:
        # The record names the pre-swap binding; the swap then flips it.
        _, _, trap, ions, qubits, chain_length, ion_distance = record
    else:
        _, _, trap, ions, qubits, _, chain_length, ion_distance = record
        _check_overfill(index, code, trap, state, report)
    if not _ions_in_trap(index, code, trap, ions, state, report):
        return
    chain = state.chains[trap]
    if chain_length != len(chain):
        report.add(diag(
            "QV004", f"op {index} annotates chain_length "
                     f"{chain_length} but {trap} holds {len(chain)}",
            location=_op_location(index),
            hint="the FM gate-time and A(N) error models read this "
                 "annotation; re-derive it from the chain at emission"))
    if len(ions) == 2:
        distance = abs(chain.index(ions[0]) - chain.index(ions[1])) - 1
        if ion_distance != distance:
            report.add(diag(
                "QV004", f"op {index} annotates ion_distance "
                         f"{ion_distance} but the ions sit {distance} "
                         f"apart",
                location=_op_location(index),
                hint="AM/PM gate times scale with the true separation"))
    for ion, qubit in zip(ions, qubits):
        bound = state.qubit_of_ion.get(ion)
        if bound != qubit:
            report.add(diag(
                "QV005", f"op {index} says ion {ion} holds qubit "
                         f"{qubit} but the tracked binding is {bound}",
                location=_op_location(index),
                hint="a missed or extra gate-based SWAP desynchronises the "
                     "qubit/ion binding"))
    if code == SWAP_GATE:
        ion_a, ion_b = ions
        qubit_a = state.qubit_of_ion.get(ion_a)
        qubit_b = state.qubit_of_ion.get(ion_b)
        state.qubit_of_ion[ion_a] = qubit_b
        state.qubit_of_ion[ion_b] = qubit_a
        if qubit_a is not None:
            state.ion_of_qubit[qubit_a] = ion_b
        if qubit_b is not None:
            state.ion_of_qubit[qubit_b] = ion_a


def _replay_measure(index: int, record: tuple, state: _Replay,
                    report: Report) -> None:
    code, _, trap, ion, qubit = record
    _check_overfill(index, code, trap, state, report)
    if not _ions_in_trap(index, code, trap, (ion,), state, report):
        return
    bound = state.qubit_of_ion.get(ion)
    if bound != qubit:
        report.add(diag(
            "QV005", f"op {index} measures qubit {qubit} on ion "
                     f"{ion} but the tracked binding is {bound}",
            location=_op_location(index),
            hint="measurement must read the ion currently holding the "
                 "qubit's state"))


def _replay_split(index: int, record: tuple, state: _Replay,
                  report: Report) -> None:
    _, _, trap, ion, chain_size, side = record
    chain = state.chains.get(trap)
    if chain is None or state.trap_of.get(ion) != trap:
        report.add(diag(
            "QV002", f"op {index} splits ion {ion} from {trap} "
                     f"but the ion is not there",
            location=_op_location(index),
            hint="an ion can only be split out of the trap that holds it"))
        return
    if chain_size != len(chain):
        report.add(diag(
            "QV004", f"op {index} annotates chain_size {chain_size} "
                     f"but {trap} holds {len(chain)} ions",
            location=_op_location(index),
            hint="the heating model divides motional energy by this size"))
    end_ion = chain[0] if side == "head" else chain[-1]
    if end_ion != ion:
        report.add(diag(
            "QV004", f"op {index} splits ion {ion} from the "
                     f"{side} of {trap} but ion {end_ion} sits there",
            location=_op_location(index),
            hint="splits act on chain ends; reorder the departing state "
                 "to the end first"))
        chain.remove(ion)
    elif side == "head":
        chain.pop(0)
    else:
        chain.pop()
    state.trap_of[ion] = None
    state.position[ion] = trap
    if state.overfilled.get(trap) and state.capacities is not None:
        capacity = state.capacities.get(trap)
        if capacity is not None and len(chain) <= capacity:
            state.overfilled[trap] = False


def _replay_move(index: int, record: tuple, state: _Replay,
                 report: Report) -> None:
    _, _, ion, segment, length, from_node, to_node = record
    if state.trap_of.get(ion) is not None or ion not in state.position:
        report.add(diag(
            "QV002", f"op {index} moves ion {ion} which is not in "
                     f"transit", location=_op_location(index),
            hint="split the ion off its chain before moving it"))
    else:
        here = state.position[ion]
        if from_node and here != from_node:
            report.add(diag(
                "QV002", f"op {index} moves ion {ion} from "
                         f"{from_node} but the ion is at {here}",
                location=_op_location(index),
                hint="shuttle routes must be continuous hop to hop"))
    if state.topology is not None:
        _check_move_topology(index, segment, length, from_node, to_node,
                             state.topology, report)
    state.position[ion] = to_node


def _check_move_topology(index: int, name: str, length: int, from_node: str,
                         to_node: str, topology, report: Report) -> None:
    try:
        segment = topology.segment_between(from_node, to_node)
    except KeyError:
        report.add(diag(
            "QV007", f"op {index} moves along {name!r} but no "
                     f"segment joins {from_node!r} and {to_node!r}",
            location=_op_location(index),
            hint="the route must follow the topology graph"))
        return
    if segment.name != name:
        report.add(diag(
            "QV007", f"op {index} names segment {name!r} but "
                     f"{from_node}-{to_node} is {segment.name}",
            location=_op_location(index),
            hint="the named segment must be the one joining the endpoints"))
    if segment.length != length:
        report.add(diag(
            "QV007", f"op {index} annotates length {length} but "
                     f"segment {segment.name} has length {segment.length}",
            location=_op_location(index),
            hint="move duration scales with the true segment length"))


def _replay_junction(index: int, record: tuple, state: _Replay,
                     report: Report) -> None:
    _, _, ion, name, degree = record
    if state.trap_of.get(ion) is not None or ion not in state.position:
        report.add(diag(
            "QV002", f"op {index} crosses a junction with ion {ion} "
                     f"which is not in transit",
            location=_op_location(index),
            hint="only a split-off ion can cross a junction"))
        return
    here = state.position[ion]
    if here != name:
        report.add(diag(
            "QV007", f"op {index} crosses {name!r} but ion "
                     f"{ion} is at {here!r}",
            location=_op_location(index),
            hint="a crossing must happen at the junction the route "
                 "reached"))
    if state.topology is not None:
        try:
            junction = state.topology.junction(name)
        except KeyError:
            report.add(diag(
                "QV007", f"op {index} references unknown junction "
                         f"{name!r}",
                location=_op_location(index),
                hint="the device topology has no such junction"))
            return
        if junction.degree != degree:
            report.add(diag(
                "QV007", f"op {index} annotates degree "
                         f"{degree} but {name} has "
                         f"degree {junction.degree}",
                location=_op_location(index),
                hint="crossing time depends on the true junction degree"))


def _replay_merge(index: int, record: tuple, state: _Replay,
                  report: Report) -> None:
    _, _, trap, ion, side = record
    if state.trap_of.get(ion) is not None or ion not in state.position:
        report.add(diag(
            "QV002", f"op {index} merges ion {ion} which is not in "
                     f"transit", location=_op_location(index),
            hint="merge targets must have been split off and moved here"))
        return
    here = state.position.pop(ion)
    if here != trap:
        report.add(diag(
            "QV002", f"op {index} merges ion {ion} into {trap} "
                     f"but the route ended at {here}",
            location=_op_location(index),
            hint="the last move must arrive at the merging trap"))
    if state.topology is not None and here == trap:
        _check_port_side(index, trap, side, state.topology, report)
    chain = state.chains.setdefault(trap, [])
    if side == "head":
        chain.insert(0, ion)
    else:
        chain.append(ion)
    state.trap_of[ion] = trap
    if state.capacities is not None:
        capacity = state.capacities.get(trap)
        if capacity is not None and len(chain) > capacity:
            if len(chain) > capacity + 1 or state.overfilled.get(trap):
                report.add(diag(
                    "QV001", f"op {index} merges into {trap} at "
                             f"{len(chain)} ions (capacity {capacity}); "
                             f"only one transient overfill ion is legal",
                    location=_op_location(index),
                    hint="a pass-through chain may hold capacity+1 ions "
                         "only until the relieving split"))
            else:
                state.overfilled[trap] = True


def _check_port_side(index: int, trap: str, side: str, topology,
                     report: Report) -> None:
    # The route's previous node is recoverable from the merge's position
    # history only through the move stream, so the check reconstructs it
    # from the topology: a merge is legal from any neighbour, but the side
    # must match the port geometry of the arriving segment.  Without the
    # previous node we can only check that *some* neighbour maps to this
    # side; the move-continuity check (QV002) pins the actual route.  An
    # unknown trap is reported as QV007 by the replay itself.
    if not topology.is_trap(trap):
        return
    sides = {topology.port_side(trap, n) for n in topology.neighbors(trap)}
    if side not in sides:
        report.add(diag(
            "QV007", f"op {index} merges at the {side} of {trap} "
                     f"but no incident segment attaches there",
            location=_op_location(index),
            hint="merge sides follow the topology's port geometry"))


def _replay_ion_swap(index: int, record: tuple, state: _Replay,
                     report: Report) -> None:
    code, _, trap, ions, chain_size = record
    if not _ions_in_trap(index, code, trap, ions, state, report):
        return
    chain = state.chains[trap]
    if chain_size != len(chain):
        report.add(diag(
            "QV004", f"op {index} annotates chain_size {chain_size} "
                     f"but {trap} holds {len(chain)} ions",
            location=_op_location(index),
            hint="IS-hop heating scales with the true chain size"))
    index_a = chain.index(ions[0])
    index_b = chain.index(ions[1])
    if abs(index_a - index_b) != 1:
        report.add(diag(
            "QV004", f"op {index} swaps ions {ions[0]} and "
                     f"{ions[1]} which are not adjacent",
            location=_op_location(index),
            hint="one IS hop exchanges neighbouring ions only"))
        return
    chain[index_a], chain[index_b] = chain[index_b], chain[index_a]


#: The replay handler of each kind code.
_REPLAY = {GATE_1Q: _replay_gate, GATE_2Q: _replay_gate,
           SWAP_GATE: _replay_gate, MEASURE: _replay_measure,
           SPLIT: _replay_split, MERGE: _replay_merge, MOVE: _replay_move,
           JUNCTION: _replay_junction, ION_SWAP: _replay_ion_swap}


def _check_final_state(state: _Replay, report: Report) -> None:
    for ion, node in sorted(state.position.items()):
        if state.trap_of.get(ion) is None:
            report.add(diag(
                "QV002", f"ion {ion} is left in transit at {node} when the "
                         f"program ends",
                location="end of program",
                hint="every split-off ion must merge into a trap before "
                     "the program completes"))
    for trap, over in sorted(state.overfilled.items()):
        if over:
            report.add(diag(
                "QV001", f"trap {trap} is still overfilled at program end",
                location="end of program",
                hint="the pass-through split that relieves the overfill "
                     "never happened"))


# --------------------------------------------------------------------------- #
# Dependency coverage (consistency with the simulator's lowering)
# --------------------------------------------------------------------------- #
def _check_dependency_coverage(program: QCCDProgram, report: Report) -> None:
    """Consecutive ops on one ion must be ordered dep-wise or resource-wise.

    Reads the merged predecessors of the program's lowering
    (:attr:`repro.sim.lower.LoweredProgram.preds`), the relation the
    simulator walks: op ``i`` waits on the previous op in program order
    using its resource and on its dependencies on other resources.  Two ops
    claiming one resource are ordered by that resource chain, so they need
    no search.  Otherwise, if the previous op touching one of ``i``'s ions
    is not reachable over the merged predecessors, the simulator would
    happily overlap the two ops -- a compiler bug the timeline cannot
    surface.
    """

    lowered = lower(program)
    preds = lowered.preds
    resources = lowered.resources
    last_for_ion: Dict[int, int] = {}
    for index, record in enumerate(program.records):
        ions = record_ions(record)
        for ion in ions:
            prev = last_for_ion.get(ion)
            if prev is None or resources[prev] == resources[index]:
                continue
            mine = preds[index]
            direct = prev == mine if mine.__class__ is int else prev in mine
            if not direct and not _reachable(preds, index, prev):
                report.add(diag(
                    "QV006", f"op {index} touches ion {ion} but has no "
                             f"happens-before path to op {prev}, the "
                             f"previous op on that ion",
                    location=_op_location(index),
                    hint=f"add a dependency on op {prev} (the builder's "
                         f"last-op-per-ion rule) or a shared resource "
                         f"chain"))
        for ion in ions:
            last_for_ion[ion] = index


def _reachable(preds: Sequence[Predecessors], start: int,
               target: int) -> bool:
    """Whether ``target`` is reachable from ``start`` over merged preds."""

    def each(node: int) -> Tuple[int, ...]:
        node_preds = preds[node]
        return (node_preds,) if node_preds.__class__ is int else node_preds

    stack = [p for p in each(start) if p >= target]
    seen = set(stack)
    visited = 0
    while stack:
        node = stack.pop()
        if node == target:
            return True
        visited += 1
        if visited > _REACH_LIMIT:
            return True  # give the program the benefit of the doubt
        for pred in each(node):
            if pred >= target and pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return False
