"""Top-level compilation pass: circuit + device -> QCCDProgram.

The pass follows Section VI of the paper:

1. lower the circuit to the trapped-ion native gate set -- this and every
   other device-independent table (dependency DAG, two-qubit operands,
   interaction histogram, per-qubit use lists, first-use order) comes from
   the circuit's cached :class:`~repro.ir.dag.CircuitFrontEnd`, built once
   however many devices the circuit is compiled for;
2. map program qubits onto traps with the selected heuristic;
3. walk the dependency DAG in earliest-ready-gate-first order (one generator);
4. emit single-qubit gates, and two-qubit gates whose operands already share
   a trap (most of them), through the builder's positional emitters,
   reading qubit -> ion -> trap from the placement state's live tables.  Only
   a two-qubit gate across traps reaches the router, which plans which qubit
   moves (and evictions if the target trap is full); its shuttles are emitted
   with chain reordering where the state is not at the right chain end;
5. emit the gate itself, annotated with the chain length and ion separation
   the simulator needs to evaluate the performance and fidelity models; its
   record references the circuit gate's ``qubits`` tuple rather than a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.checks import checks_enabled
from repro.compiler.builder import ProgramBuilder
from repro.compiler.mapping import MAPPING_STRATEGIES
from repro.compiler.placement_state import PlacementState
from repro.compiler.routing import Router
from repro.compiler.scheduler import GateScheduler
from repro.compiler.shuttle import emit_shuttle
from repro.hardware.device import QCCDDevice
from repro.ir.circuit import Circuit
from repro.ir.dag import MEASUREMENT, SINGLE_QUBIT, TWO_QUBIT
from repro.isa.operations import gate_record, measure_record
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
    ion_of_qubit, trap_of_ion, chains = state.tables()
    operands = front.operands

    def is_local(gate_index: int) -> bool:
        qubit_a, qubit_b = operands[gate_index]
        return trap_of_ion[ion_of_qubit[qubit_a]] == trap_of_ion[ion_of_qubit[qubit_b]]

    scheduler = GateScheduler(circuit, is_local=is_local)
    router = Router(state, device, next_use=scheduler.next_use,
                    neighbours=front.neighbours, policy=options.routing)
    gates, kinds = front.gates, front.kinds
    one_ion, two_ions = builder.one_ion, builder.two_ions
    # One (ion,) tuple per ion, for the single-qubit gate records to share.
    single = {ion: (ion,) for ion in trap_of_ion}
    # One span covers the interleaved schedule/route/emit loop.  Only a
    # cross-trap gate reaches the router; its shuttles (GS swaps, evictions)
    # may rebind the operands' ions, so they are read again after it.
    with span("compile.route", policy=options.routing,
              gates=front.num_two_qubit_gates):
        for index in scheduler.order():
            gate = gates[index]
            kind = kinds[index]
            if kind == SINGLE_QUBIT:
                qubits = gate.qubits
                ion = ion_of_qubit[qubits[0]]
                trap = trap_of_ion[ion]
                one_ion(ion, trap, gate_record, trap, single[ion], qubits,
                        gate.name, len(chains[trap]), 0)
            elif kind == TWO_QUBIT:
                qubits = gate.qubits
                ion_a, ion_b = ion_of_qubit[qubits[0]], ion_of_qubit[qubits[1]]
                trap = trap_of_ion[ion_a]
                if trap != trap_of_ion[ion_b]:
                    scheduler.note_qubits_moved(
                        _co_locate(qubits, builder, state, device, router))
                    ion_a, ion_b = ion_of_qubit[qubits[0]], ion_of_qubit[qubits[1]]
                    trap = trap_of_ion[ion_a]
                chain = chains[trap]
                two_ions(ion_a, ion_b, trap, gate_record, trap, (ion_a, ion_b),
                         qubits, gate.name, len(chain),
                         abs(chain.index(ion_a) - chain.index(ion_b)) - 1)
            elif kind == MEASUREMENT:
                qubit = gate.qubits[0]
                ion = ion_of_qubit[qubit]
                trap = trap_of_ion[ion]
                one_ion(ion, trap, measure_record, trap, ion, qubit)

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
        from repro.analyze.runtime import verify_or_raise

        verify_or_raise(program, device)
    return program


# --------------------------------------------------------------------------- #
def _co_locate(qubits: Tuple[int, int], builder: ProgramBuilder,
               state: PlacementState, device: QCCDDevice,
               router: Router) -> List[int]:
    """Emit the router's shuttles bringing a cross-trap gate's operands into
    one trap; returns the qubits moved."""

    qubit_a, qubit_b = qubits
    moved: List[int] = []
    for request in router.plan_two_qubit_gate(qubit_a, qubit_b).all_shuttles:
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
    return moved
