"""Top-level compilation pass: circuit + device -> QCCDProgram.

The pass follows Section VI of the paper:

1. lower the circuit to the trapped-ion native gate set;
2. map program qubits onto traps with the selected heuristic;
3. walk the dependency DAG in earliest-ready-gate-first order;
4. for each two-qubit gate whose operands live in different traps, plan the
   communication (which qubit moves, evictions if the target trap is full) and
   emit the shuttle primitives, inserting chain-reordering operations where
   the departing state is not at the correct chain end;
5. emit the gate itself, annotated with the chain length and ion separation
   the simulator needs to evaluate the performance and fidelity models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analyze.runtime import checks_enabled, verify_or_raise
from repro.compiler.builder import ProgramBuilder
from repro.compiler.mapping import MAPPING_STRATEGIES
from repro.compiler.placement_state import PlacementState
from repro.compiler.routing import Router
from repro.compiler.scheduler import GateScheduler
from repro.compiler.shuttle import emit_shuttle
from repro.hardware.device import QCCDDevice
from repro.ir.circuit import Circuit
from repro.ir.gate import Gate, GateKind
from repro.isa.program import OpSequence, QCCDProgram
from repro.obs.trace import span


@dataclass(frozen=True)
class CompilerOptions:
    """Knobs of the compilation pass.

    Attributes
    ----------
    mapping:
        Initial mapping strategy: ``"greedy"`` (the paper's heuristic),
        ``"round_robin"`` or ``"interaction_aware"``.
    routing:
        Shuttle direction policy: ``"affinity"`` (default; move the operand
        whose interactions pull it toward the destination), ``"space"`` or
        ``"fixed"`` (see :mod:`repro.compiler.routing`).
    lower_to_native:
        Whether to rewrite SWAP gates into three MS-class gates before
        compiling (the paper's IR is already in the native set).
    validate:
        Run the placement-state consistency checks after compilation.
    """

    mapping: str = "greedy"
    routing: str = "affinity"
    lower_to_native: bool = True
    validate: bool = True

    def mapping_fn(self):
        """Resolve the mapping strategy name to its implementation."""

        try:
            return MAPPING_STRATEGIES[self.mapping]
        except KeyError:
            valid = ", ".join(sorted(MAPPING_STRATEGIES))
            raise ValueError(f"unknown mapping strategy {self.mapping!r}; expected one of {valid}")


class _NextUseTracker:
    """Answers "when is this qubit needed next?" for the eviction policy."""

    def __init__(self, circuit: Circuit,
                 uses: Optional[Dict[int, List[int]]] = None) -> None:
        if uses is None:
            uses = {}
            for index, gate in enumerate(circuit.gates):
                if gate.kind is GateKind.TWO_QUBIT:
                    for qubit in gate.qubits:
                        uses.setdefault(qubit, []).append(index)
        self._uses: Dict[int, List[int]] = uses
        self._pointers: Dict[int, int] = {qubit: 0 for qubit in self._uses}
        self._emitted: set = set()

    def mark_emitted(self, gate_index: int) -> None:
        """Record that a gate has been compiled."""

        self._emitted.add(gate_index)

    def next_use(self, qubit: int) -> Optional[int]:
        """Index of the next *uncompiled* two-qubit gate using ``qubit``."""

        uses = self._uses.get(qubit)
        if not uses:
            return None
        pointer = self._pointers[qubit]
        while pointer < len(uses) and uses[pointer] in self._emitted:
            pointer += 1
        self._pointers[qubit] = pointer
        return uses[pointer] if pointer < len(uses) else None


def compile_circuit(circuit: Circuit, device: QCCDDevice,
                    options: Optional[CompilerOptions] = None) -> QCCDProgram:
    """Compile ``circuit`` for ``device`` and return the executable program."""

    options = options or CompilerOptions()
    with span("compile", circuit=circuit.name, device=device.name,
              mapping=options.mapping, routing=options.routing) as trace:
        program = _compile_circuit(circuit, device, options)
        trace.set(ops=len(program), shuttles=program.num_shuttles)
        return program


def _compile_circuit(circuit: Circuit, device: QCCDDevice,
                     options: CompilerOptions) -> QCCDProgram:
    if options.lower_to_native:
        with span("compile.lower"):
            circuit = circuit.lowered()
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit uses {circuit.num_qubits} qubits but the device only loads "
            f"{device.num_qubits} ions"
        )

    with span("compile.map", strategy=options.mapping):
        state: PlacementState = options.mapping_fn()(circuit, device)
    placement = state.snapshot_placement()
    builder = ProgramBuilder()

    # One preprocessing pass derives everything the loop needs per two-qubit
    # gate: operand table (scheduler locality), interaction histogram (router
    # affinity) and per-qubit use lists (eviction policy), with a single kind
    # classification per gate.
    two_qubit_operands: Dict[int, tuple] = {}
    interaction_weights: Dict[tuple, int] = {}
    uses: Dict[int, List[int]] = {}
    for index, gate in enumerate(circuit):
        if gate.kind is not GateKind.TWO_QUBIT:
            continue
        qubit_a, qubit_b = gate.qubits
        two_qubit_operands[index] = gate.qubits
        key = (qubit_a, qubit_b) if qubit_a < qubit_b else (qubit_b, qubit_a)
        interaction_weights[key] = interaction_weights.get(key, 0) + 1
        uses.setdefault(qubit_a, []).append(index)
        uses.setdefault(qubit_b, []).append(index)

    next_use = _NextUseTracker(circuit, uses=uses)
    router = Router(state, device, next_use=next_use.next_use,
                    interaction_weights=interaction_weights,
                    policy=options.routing)
    trap_of_qubit = state.trap_of_qubit

    def is_local(gate_index: int) -> bool:
        operands = two_qubit_operands.get(gate_index)
        if operands is None:
            return True
        return trap_of_qubit(operands[0]) == trap_of_qubit(operands[1])

    scheduler = GateScheduler(circuit, is_local=is_local,
                              two_qubit_operands=two_qubit_operands)
    # One span covers the interleaved schedule/route/reorder loop: gates are
    # scheduled earliest-ready-first, routed (shuttle planning + chain
    # reordering) and emitted in the same pass.
    with span("compile.route", policy=options.routing,
              gates=len(two_qubit_operands)):
        while not scheduler.done():
            index = scheduler.next_gate()
            moved_qubits = _emit_gate(circuit[index], builder, state, device, router)
            if moved_qubits:
                scheduler.note_qubits_moved(moved_qubits)
            next_use.mark_emitted(index)
            scheduler.mark_done(index)

    if options.validate:
        with span("compile.validate"):
            state.validate()

    program = QCCDProgram(
        operations=OpSequence(tuple(builder.records)),
        placement=placement,
        circuit_name=circuit.name,
        device_name=device.name,
        metadata={
            "num_program_qubits": circuit.num_qubits,
            "num_circuit_two_qubit_gates": circuit.num_two_qubit_gates,
            "mapping": options.mapping,
            "gate": device.gate.value,
            "reorder": device.reorder.value,
        },
    )
    if options.validate:
        program.validate()
    if checks_enabled():
        verify_or_raise(program, device)
    return program


# --------------------------------------------------------------------------- #
def _emit_gate(gate: Gate, builder: ProgramBuilder, state: PlacementState,
               device: QCCDDevice, router: Router) -> List[int]:
    """Emit one IR gate (plus any communication it needs).

    Returns the program qubits whose trap changed while emitting the gate, so
    the compile loop can invalidate the scheduler's and router's caches.
    """

    kind = gate.kind
    if kind is GateKind.BARRIER:
        return []
    if kind is GateKind.SINGLE_QUBIT:
        _emit_single_qubit(gate, builder, state)
        return []
    if kind is GateKind.MEASUREMENT:
        _emit_measurement(gate, builder, state)
        return []
    return _emit_two_qubit(gate, builder, state, device, router)


def _emit_single_qubit(gate: Gate, builder: ProgramBuilder, state: PlacementState) -> None:
    qubit = gate.qubits[0]
    trap = state.trap_of_qubit(qubit)
    ion = state.ion_of_qubit(qubit)
    builder.gate(trap=trap, ions=(ion,), qubits=(qubit,), name=gate.name,
                 chain_length=len(state.chain(trap)))


def _emit_measurement(gate: Gate, builder: ProgramBuilder, state: PlacementState) -> None:
    qubit = gate.qubits[0]
    trap = state.trap_of_qubit(qubit)
    ion = state.ion_of_qubit(qubit)
    builder.measure(trap=trap, ion=ion, qubit=qubit)


def _emit_two_qubit(gate: Gate, builder: ProgramBuilder, state: PlacementState,
                    device: QCCDDevice, router: Router) -> List[int]:
    qubit_a, qubit_b = gate.qubits
    plan = router.plan_two_qubit_gate(qubit_a, qubit_b)
    moved: List[int] = []
    if plan is not None:
        for request in plan.all_shuttles:
            source = state.trap_of_qubit(request.qubit)
            emit_shuttle(builder, state, device, request.qubit, request.destination)
            router.note_qubit_moved(request.qubit, source, request.destination)
            moved.append(request.qubit)

    trap = state.trap_of_qubit(qubit_a)
    other = state.trap_of_qubit(qubit_b)
    if trap != other:
        raise RuntimeError(
            f"router failed to co-locate qubits {qubit_a} and {qubit_b} "
            f"({trap} vs {other})"
        )
    chain = state.chain(trap)
    ion_a = state.ion_of_qubit(qubit_a)
    ion_b = state.ion_of_qubit(qubit_b)
    builder.gate(
        trap=trap,
        ions=(ion_a, ion_b),
        qubits=(qubit_a, qubit_b),
        name=gate.name,
        chain_length=len(chain),
        ion_distance=chain.distance_between(ion_a, ion_b),
    )
    return moved
