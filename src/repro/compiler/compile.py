"""Top-level compilation pass: circuit + device -> QCCDProgram.

The pass follows Section VI of the paper:

1. lower the circuit to the trapped-ion native gate set -- this and every
   other device-independent table (dependency DAG, two-qubit operands,
   interaction histogram, per-qubit use lists, first-use order) comes from
   the circuit's cached :class:`~repro.ir.dag.CircuitFrontEnd`, built once
   however many devices the circuit is compiled for;
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
from typing import List, Optional

from repro.analyze.runtime import checks_enabled, verify_or_raise
from repro.compiler.builder import ProgramBuilder
from repro.compiler.mapping import MAPPING_STRATEGIES
from repro.compiler.placement_state import PlacementState
from repro.compiler.routing import Router
from repro.compiler.scheduler import GateScheduler
from repro.compiler.shuttle import emit_shuttle
from repro.hardware.device import QCCDDevice
from repro.ir.circuit import Circuit
from repro.ir.dag import MEASUREMENT, SINGLE_QUBIT, TWO_QUBIT
from repro.ir.gate import Gate
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

    def __init__(self, circuit: Circuit) -> None:
        front = circuit.front_end()
        self._uses = front.uses
        self._pointers = [0] * circuit.num_qubits
        self._emitted = bytearray(len(front.gates))

    def mark_emitted(self, gate_index: int) -> None:
        """Record that a two-qubit gate has been compiled."""

        self._emitted[gate_index] = 1

    def next_use(self, qubit: int) -> Optional[int]:
        """Index of the next *uncompiled* two-qubit gate using ``qubit``."""

        uses = self._uses[qubit]
        pointer = self._pointers[qubit]
        while pointer < len(uses) and self._emitted[uses[pointer]]:
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
    with span("compile.lower"):
        front = circuit.front_end(options.lower_to_native)
    circuit = front.circuit
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit uses {circuit.num_qubits} qubits but the device only loads "
            f"{device.num_qubits} ions"
        )

    with span("compile.map", strategy=options.mapping):
        state: PlacementState = options.mapping_fn()(circuit, device)
    placement = state.snapshot_placement()
    builder = ProgramBuilder()

    next_use = _NextUseTracker(circuit)
    router = Router(state, device, next_use=next_use.next_use,
                    interaction_weights=front.interaction_weights,
                    policy=options.routing)
    trap_of_qubit = state.trap_of_qubit
    operands = front.operands

    def is_local(gate_index: int) -> bool:
        qubit_a, qubit_b = operands[gate_index]
        return trap_of_qubit(qubit_a) == trap_of_qubit(qubit_b)

    scheduler = GateScheduler(circuit, is_local=is_local)
    gates, kinds = front.gates, front.kinds
    # One span covers the interleaved schedule/route/reorder loop: gates are
    # scheduled earliest-ready-first, routed (shuttle planning + chain
    # reordering) and emitted in the same pass.
    with span("compile.route", policy=options.routing,
              gates=front.num_two_qubit_gates):
        for _ in range(len(gates)):
            index = scheduler.next_gate()
            kind = kinds[index]
            if kind == TWO_QUBIT:
                moved_qubits = _emit_two_qubit(gates[index], builder, state,
                                               device, router)
                if moved_qubits:
                    scheduler.note_qubits_moved(moved_qubits)
                next_use.mark_emitted(index)
            elif kind == SINGLE_QUBIT:
                _emit_single_qubit(gates[index], builder, state)
            elif kind == MEASUREMENT:
                _emit_measurement(gates[index], builder, state)
            scheduler.mark_done(index)

    program = QCCDProgram(
        operations=OpSequence(tuple(builder.records)),
        placement=placement,
        circuit_name=circuit.name,
        device_name=device.name,
        metadata={
            "num_program_qubits": circuit.num_qubits,
            "num_circuit_two_qubit_gates": front.num_two_qubit_gates,
            "mapping": options.mapping,
            "gate": device.gate.value,
            "reorder": device.reorder.value,
        },
    )
    if options.validate:
        with span("compile.validate"):
            state.validate()
            program.validate()
    if checks_enabled():
        verify_or_raise(program, device)
    return program


# --------------------------------------------------------------------------- #
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
