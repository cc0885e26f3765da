"""Unit and integration tests for the top-level compilation pass."""

import gc
import pickle

import pytest

from repro.compiler import compile_circuit
from repro.compiler.compile import CompilerOptions
from repro.hardware import build_device
from repro.io.fingerprint import program_fingerprint
from repro.ir.circuit import Circuit
from repro.isa.operations import GateOp, MeasureOp, OpKind


class TestBasicCompilation:
    def test_local_circuit_needs_no_communication(self, bell_circuit):
        device = build_device("L2", trap_capacity=6, num_qubits=2)
        program = compile_circuit(bell_circuit, device)
        assert program.num_communication_ops == 0
        assert program.num_two_qubit_gates == 1
        assert program.count(OpKind.GATE_1Q) == 1

    def test_cross_trap_gate_inserts_shuttle(self):
        device = build_device("L2", trap_capacity=4, num_qubits=4)
        circuit = Circuit(4, name="cross")
        # First-use order places {0,1} in T0 and {2,3} in T1, so the last gate
        # spans two traps and must trigger a shuttle.
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        circuit.add("cx", 0, 3)
        program = compile_circuit(circuit, device)
        assert program.num_shuttles >= 1
        assert program.count(OpKind.MERGE) >= 1
        assert program.num_two_qubit_gates == 3

    def test_two_qubit_gate_annotations_are_consistent(self, compiled_qft8):
        program, device = compiled_qft8
        capacities = device.trap_capacities()
        for op in program.operations:
            if isinstance(op, GateOp) and op.is_two_qubit:
                assert 2 <= op.chain_length <= capacities[op.trap] + 1
                assert 0 <= op.ion_distance <= op.chain_length - 2

    def test_dependencies_reference_earlier_ops(self, compiled_qft8):
        program, _ = compiled_qft8
        for op in program.operations:
            assert all(dep < op.op_id for dep in op.dependencies)

    def test_placement_covers_all_qubits(self, compiled_qft8):
        program, _ = compiled_qft8
        assert sorted(program.placement.qubit_to_ion) == list(range(8))

    def test_all_circuit_gates_emitted(self, qft8, compiled_qft8):
        program, _ = compiled_qft8
        assert program.count(OpKind.GATE_2Q) == qft8.num_two_qubit_gates
        assert program.count(OpKind.GATE_1Q) == qft8.num_single_qubit_gates

    def test_measurements_compiled(self):
        device = build_device("L2", trap_capacity=6, num_qubits=4)
        circuit = Circuit(4).add("cx", 0, 1).add("measure", 0).add("measure", 1)
        program = compile_circuit(circuit, device)
        assert program.count(OpKind.MEASURE) == 2
        assert all(isinstance(op, MeasureOp) for op in program.operations
                   if op.kind is OpKind.MEASURE)

    def test_swap_lowering(self):
        device = build_device("L2", trap_capacity=6, num_qubits=2)
        circuit = Circuit(2).add("swap", 0, 1)
        program = compile_circuit(circuit, device)
        assert program.num_two_qubit_gates == 3

    def test_barrier_is_dropped(self):
        device = build_device("L2", trap_capacity=6, num_qubits=2)
        circuit = Circuit(2)
        circuit.add("h", 0)
        circuit.append(type(circuit[0])("barrier", (0, 1)))
        program = compile_circuit(circuit, device)
        assert len(program) == 1

    def test_circuit_too_large_rejected(self):
        device = build_device("L2", trap_capacity=4, num_qubits=4)
        with pytest.raises(ValueError):
            compile_circuit(Circuit(10), device)


class TestFrontEndMemo:
    """The per-circuit front-end cache never changes what a compile emits."""

    def test_append_after_compile_recompiles_like_a_fresh_copy(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        circuit = qft8.copy()
        compile_circuit(circuit, device)
        stale = circuit.front_end(lower_to_native=True)
        circuit.add("swap", 0, 7)
        assert circuit.front_end(lower_to_native=True) is not stale
        program = compile_circuit(circuit, device)
        fresh = compile_circuit(circuit.copy(), device)
        assert program.records == fresh.records
        assert program_fingerprint(program) == program_fingerprint(fresh)
        assert program.metadata == fresh.metadata

    def test_lowered_and_unlowered_never_share_a_front_end(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        lowered = circuit.front_end(lower_to_native=True)
        raw = circuit.front_end(lower_to_native=False)
        assert lowered is not raw
        assert raw.circuit is circuit and lowered.circuit is not circuit
        assert circuit.front_end(lower_to_native=True) is lowered
        assert circuit.front_end() is raw

        device = build_device("L2", trap_capacity=6, num_qubits=2)
        circuit = Circuit(2).add("cx", 0, 1).add("swap", 0, 1)
        unlowered = compile_circuit(circuit, device,
                                    CompilerOptions(lower_to_native=False))
        program = compile_circuit(circuit, device)
        assert unlowered.num_two_qubit_gates == 2
        assert program.num_two_qubit_gates == 4
        assert program.records == compile_circuit(circuit.copy(), device).records

    def test_unpickled_circuit_carries_no_front_end(self, qft8):
        front = qft8.front_end(lower_to_native=True)
        clone = pickle.loads(pickle.dumps(qft8))
        assert "_front_ends" not in vars(clone)
        assert clone.gates == qft8.gates
        assert clone.front_end(lower_to_native=True) is not front

    def test_cached_sequences_are_untracked_after_a_collection(self, qft8):
        """The collector stops walking the per-gate tables.

        A pass untracks a tuple only once the tuples inside it are untracked,
        and the nesting is two deep (table -> per-gate tuple), so two full
        collections settle every table.
        """

        front = qft8.front_end(lower_to_native=True)
        tables = {name: getattr(front, name) for name in (
            "kinds", "predecessors", "successors", "in_degrees", "operands",
            "uses", "first_use_order")}
        for _ in range(2):
            gc.collect()
        assert [name for name, table in tables.items()
                if gc.is_tracked(table)] == []


class TestReorderMethods:
    def test_gs_produces_swap_gates_only(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8, reorder="GS")
        program = compile_circuit(qft8, device)
        assert program.count(OpKind.ION_SWAP) == 0

    def test_is_produces_ion_swaps_only(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8, reorder="IS")
        program = compile_circuit(qft8, device)
        assert program.count(OpKind.SWAP_GATE) == 0

    def test_reorder_method_does_not_change_app_gates(self, qft8):
        gs_device = build_device("L3", trap_capacity=6, num_qubits=8, reorder="GS")
        is_device = build_device("L3", trap_capacity=6, num_qubits=8, reorder="IS")
        gs_program = compile_circuit(qft8, gs_device)
        is_program = compile_circuit(qft8, is_device)
        assert gs_program.count(OpKind.GATE_2Q) == is_program.count(OpKind.GATE_2Q)


class TestOptions:
    def test_unknown_mapping_rejected(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        with pytest.raises(ValueError):
            compile_circuit(qft8, device, CompilerOptions(mapping="magic"))

    def test_alternative_mappings_compile(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        for mapping in ("greedy", "round_robin", "interaction_aware"):
            program = compile_circuit(qft8, device, CompilerOptions(mapping=mapping))
            assert program.count(OpKind.GATE_2Q) == qft8.num_two_qubit_gates

    def test_routing_policies_compile(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        for routing in ("affinity", "space", "fixed"):
            program = compile_circuit(qft8, device, CompilerOptions(routing=routing))
            # Whatever the policy, every application gate is emitted and the
            # non-local ones triggered at least some communication.
            assert program.count(OpKind.GATE_2Q) == qft8.num_two_qubit_gates
            assert program.num_shuttles > 0

    def test_unknown_routing_rejected(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        with pytest.raises(ValueError):
            compile_circuit(qft8, device, CompilerOptions(routing="teleport"))

    def test_metadata_recorded(self, compiled_qft8):
        program, device = compiled_qft8
        assert program.metadata["gate"] == device.gate.value
        assert program.metadata["num_program_qubits"] == 8


class TestTopologies:
    @pytest.mark.parametrize("topology", ["L2", "L4", "G2x2", "G2x3", "R4"])
    def test_compiles_on_every_topology(self, topology, qaoa8):
        device = build_device(topology, trap_capacity=6, num_qubits=8)
        program = compile_circuit(qaoa8, device)
        assert program.count(OpKind.GATE_2Q) == qaoa8.num_two_qubit_gates

    def test_grid_uses_junctions_linear_does_not(self, qft8):
        linear = build_device("L3", trap_capacity=6, num_qubits=8)
        grid = build_device("G2x2", trap_capacity=6, num_qubits=8)
        linear_program = compile_circuit(qft8, linear)
        grid_program = compile_circuit(qft8, grid)
        assert linear_program.count(OpKind.JUNCTION) == 0
        assert grid_program.count(OpKind.JUNCTION) > 0
