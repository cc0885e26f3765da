"""Unit tests for the QCCD ISA: operations, op records and the compiled
program container."""

import dataclasses
import gc

import pytest

from repro.apps import scaled_suite
from repro.compiler import compile_circuit
from repro.dse import DesignSpace, DSERunner
from repro.hardware import build_device
from repro.io import program_from_dict, program_to_dict
from repro.io.fingerprint import program_fingerprint
from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MergeOp,
    MeasureOp,
    MoveOp,
    OpKind,
    Operation,
    SplitOp,
    SwapGateOp,
    op_record,
)
from repro.isa.program import InitialPlacement, QCCDProgram
from repro.obs.trace import current_tracer
from repro.sim import simulate
from repro.sim.batch import batch_plan
from repro.sim.lower import lower
from repro.toolflow import ArchitectureConfig, sweep_microarchitecture


class TestOpKind:
    def test_communication_classification(self):
        assert OpKind.SPLIT.is_communication
        assert OpKind.MOVE.is_communication
        assert OpKind.SWAP_GATE.is_communication
        assert OpKind.ION_SWAP.is_communication
        assert not OpKind.GATE_2Q.is_communication
        assert not OpKind.MEASURE.is_communication


class TestOperationValidation:
    def test_gate_op_fields(self):
        op = GateOp(op_id=0, trap="T0", ions=(1, 2), qubits=(1, 2), name="cx",
                    chain_length=4, ion_distance=1)
        assert op.is_two_qubit
        assert op.kind is OpKind.GATE_2Q
        assert op.resources == ("T0",)

    def test_single_qubit_gate_kind(self):
        op = GateOp(op_id=0, trap="T0", ions=(1,), qubits=(1,), name="h", chain_length=1)
        assert op.kind is OpKind.GATE_1Q

    def test_gate_op_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            GateOp(op_id=0, trap="T0", ions=(1, 2), qubits=(1, 2), name="cx",
                   chain_length=3, ion_distance=5)

    def test_gate_op_requires_trap(self):
        with pytest.raises(ValueError):
            GateOp(op_id=0, ions=(1,), qubits=(1,), name="h", chain_length=1)

    def test_gate_op_arity_mismatch(self):
        with pytest.raises(ValueError):
            GateOp(op_id=0, trap="T0", ions=(1, 2), qubits=(1,), name="cx", chain_length=2)

    def test_dependencies_must_be_earlier(self):
        with pytest.raises(ValueError):
            SplitOp(op_id=3, dependencies=(5,), trap="T0", ion=0, chain_size=2)

    def test_swap_gate_constants(self):
        assert SwapGateOp.MS_GATES_PER_SWAP == 3
        op = SwapGateOp(op_id=0, trap="T0", ions=(0, 1), qubits=(0, 1),
                        chain_length=5, ion_distance=3)
        assert op.kind is OpKind.SWAP_GATE

    def test_swap_gate_distinct_ions(self):
        with pytest.raises(ValueError):
            SwapGateOp(op_id=0, trap="T0", ions=(1, 1), qubits=(0, 1), chain_length=3)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            SplitOp(op_id=0, trap="T0", ion=0, chain_size=0)
        with pytest.raises(ValueError):
            SplitOp(op_id=0, trap="T0", ion=0, chain_size=2, side="middle")

    def test_move_validation(self):
        op = MoveOp(op_id=0, ion=0, segment="S1", length=2, from_node="T0", to_node="J0")
        assert op.resources == ("S1",)
        with pytest.raises(ValueError):
            MoveOp(op_id=0, ion=0, segment="S1", length=0)

    def test_junction_validation(self):
        op = JunctionCrossOp(op_id=0, ion=0, junction="J0", junction_degree=4)
        assert op.resources == ("J0",)
        with pytest.raises(ValueError):
            JunctionCrossOp(op_id=0, ion=0, junction="", junction_degree=3)

    def test_merge_and_measure(self):
        assert MergeOp(op_id=0, trap="T1", ion=2, side="head").kind is OpKind.MERGE
        assert MeasureOp(op_id=0, trap="T1", ion=2, qubit=2).kind is OpKind.MEASURE

    def test_ion_swap_validation(self):
        op = IonSwapOp(op_id=0, trap="T0", ions=(0, 1), chain_size=4)
        assert op.kind is OpKind.ION_SWAP
        with pytest.raises(ValueError):
            IonSwapOp(op_id=0, trap="T0", ions=(0, 0), chain_size=4)


class TestInitialPlacement:
    def test_consistent_placement(self):
        placement = InitialPlacement(
            qubit_to_ion={0: 0, 1: 1},
            ion_to_trap={0: "T0", 1: "T1"},
            trap_chains={"T0": (0,), "T1": (1,)},
        )
        assert placement.trap_of_qubit(1) == "T1"
        assert placement.occupancy() == {"T0": 1, "T1": 1}

    def test_ion_in_two_chains_rejected(self):
        with pytest.raises(ValueError):
            InitialPlacement(qubit_to_ion={}, ion_to_trap={},
                             trap_chains={"T0": (0,), "T1": (0,)})

    def test_ion_trap_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InitialPlacement(qubit_to_ion={0: 0}, ion_to_trap={0: "T1"},
                             trap_chains={"T0": (0,), "T1": ()})

    def test_qubit_on_unplaced_ion_rejected(self):
        with pytest.raises(ValueError):
            InitialPlacement(qubit_to_ion={0: 7}, ion_to_trap={},
                             trap_chains={"T0": ()})


class TestQCCDProgram:
    @pytest.fixture
    def program(self):
        placement = InitialPlacement(
            qubit_to_ion={0: 0, 1: 1},
            ion_to_trap={0: "T0", 1: "T0"},
            trap_chains={"T0": (0, 1), "T1": ()},
        )
        ops = [
            GateOp(op_id=0, trap="T0", ions=(0,), qubits=(0,), name="h", chain_length=2),
            GateOp(op_id=1, dependencies=(0,), trap="T0", ions=(0, 1), qubits=(0, 1),
                   name="cx", chain_length=2),
            SplitOp(op_id=2, dependencies=(1,), trap="T0", ion=1, chain_size=2),
            MoveOp(op_id=3, dependencies=(2,), ion=1, segment="S0",
                   from_node="T0", to_node="T1"),
            MergeOp(op_id=4, dependencies=(3,), trap="T1", ion=1),
        ]
        return QCCDProgram(operations=ops, placement=placement, circuit_name="demo")

    def test_counts(self, program):
        assert len(program) == 5
        assert program.num_two_qubit_gates == 1
        assert program.num_shuttles == 1
        assert program.num_communication_ops == 3

    def test_communication_summary(self, program):
        summary = program.communication_summary()
        assert summary["splits"] == 1
        assert summary["moves"] == 1
        assert summary["merges"] == 1
        assert summary["swap_gates"] == 0

    def test_validate_passes(self, program):
        program.validate()

    def test_validate_rejects_unknown_ion(self, program):
        program = QCCDProgram(
            operations=[*program.operations, MergeOp(op_id=5, trap="T1", ion=99)],
            placement=program.placement)
        with pytest.raises(ValueError):
            program.validate()

    def test_dense_ids_enforced(self, program):
        with pytest.raises(ValueError):
            QCCDProgram(operations=[program.operations[1]], placement=program.placement)

    def test_iteration_and_indexing(self, program):
        assert program[0].kind is OpKind.GATE_1Q
        assert [op.op_id for op in program] == [0, 1, 2, 3, 4]


# --------------------------------------------------------------------------- #
# Op records
# --------------------------------------------------------------------------- #
_LOWERING_ARRAYS = ("codes", "resources", "resource_names", "preds", "slots",
                    "slot_keys", "fid_items", "heat_items", "busy_ops")


def _lowering_arrays(program):
    lowered = lower(program)
    return {name: getattr(lowered, name) for name in _LOWERING_ARRAYS}


class TestOpRecords:
    def test_operations_are_built_once_from_the_records(self, compiled_qft8):
        program, _ = compiled_qft8
        first = list(program.operations)
        assert all(a is b for a, b in zip(first, program.operations))
        assert len(first) == len(program.records)
        assert tuple(op_record(op) for op in first) == program.records

    @pytest.mark.parametrize("topology", ["L4", "G2x2"])
    @pytest.mark.parametrize("reorder", ["GS", "IS"])
    def test_construction_routes_agree(self, topology, reorder):
        """Builder, a list of op objects and a JSON round trip give one
        program."""

        for name, circuit in scaled_suite(16).items():
            device = build_device(topology, trap_capacity=6, gate="FM",
                                  reorder=reorder, num_qubits=circuit.num_qubits)
            built = compile_circuit(circuit, device)
            from_ops = QCCDProgram(operations=list(built.operations),
                                   placement=built.placement,
                                   circuit_name=built.circuit_name,
                                   device_name=built.device_name)
            loaded = program_from_dict(program_to_dict(built))
            for other in (from_ops, loaded):
                label = f"{name}/{topology}/{reorder}"
                assert other.records == built.records, label
                assert program_fingerprint(other) == \
                    program_fingerprint(built), label
                assert _lowering_arrays(other) == _lowering_arrays(built), label

    def test_replace_shares_the_records(self, compiled_qft8):
        program, _ = compiled_qft8
        copy = dataclasses.replace(program)
        assert copy.records is program.records
        assert copy.operations == program.operations

    def test_per_op_sequences_are_untracked_after_a_collection(
            self, compiled_qft8):
        """The collector stops walking a program's per-op data.

        A pass untracks a tuple only if the tuples inside it are untracked
        already, and it does not visit objects in creation order; the
        deepest nesting here is three (record tuple -> record ->
        dependencies), so three full collections settle every tuple.  A
        list is never untracked.
        """

        program, device = compiled_qft8
        simulate(program, device)
        lowered = lower(program)
        plan = batch_plan(program)
        trap_names = tuple(trap.name for trap in device.topology.traps)
        durations = lowered.durations(device.gate, device.model)
        timeline = plan.timeline_for(durations, trap_names)
        trajectory = plan.trajectory_for(program, device.model.heating,
                                         trap_names)
        sequences = {
            "records": program.records,
            **{name: getattr(lowered, name) for name in
               ("codes", "resources", "preds", "slots", "fid_items",
                "heat_items")},
            **{f"busy_ops[{name!r}]": ids
               for name, ids in lowered.busy_ops.items()},
            "durations": durations,
            "finish": timeline.finish,
            "gate_energies": trajectory.gate_energies,
        }
        for _ in range(3):
            gc.collect()
        assert [name for name, sequence in sequences.items()
                if gc.is_tracked(sequence)] == []

    def test_compile_and_simulate_build_no_operation_objects(
            self, monkeypatch, small_suite):
        def refuse(op):
            raise AssertionError(f"built a {op.__class__.__name__}")

        monkeypatch.setattr(Operation, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="built a GateOp"):
            GateOp(op_id=0, trap="T0", ions=(0,), qubits=(0,), name="h",
                   chain_length=1)
        assert current_tracer() is None

        records = sweep_microarchitecture(
            small_suite, capacities=(6, 8), gates=("AM1", "FM"),
            reorders=("GS", "IS"),
            base=ArchitectureConfig(topology="L3", trap_capacity=6))
        assert len(records) == len(small_suite) * 2 * 2 * 2
        runner = DSERunner(DesignSpace(apps=("QFT",), qubits=(8,),
                                       topologies=("G2x2",), capacities=(6,)))
        evaluated = runner.evaluate(list(runner.space.points()))
        assert len(evaluated) == 1 and evaluated[0].num_shuttles > 0
