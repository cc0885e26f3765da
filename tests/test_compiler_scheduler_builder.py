"""Unit tests for the gate scheduler and the program builder."""

import pytest

from repro.compiler.builder import ProgramBuilder
from repro.compiler.scheduler import GateScheduler
from repro.ir.circuit import Circuit


class TestGateScheduler:
    def test_schedule_covers_every_gate(self, qft8):
        scheduler = GateScheduler(qft8)
        order = scheduler.schedule()
        assert sorted(order) == list(range(len(qft8)))

    def test_schedule_respects_dependencies(self, qft8):
        order = GateScheduler(qft8).schedule()
        position = {gate: i for i, gate in enumerate(order)}
        dag = GateScheduler(qft8).dag
        for gate in range(len(qft8)):
            for predecessor in dag.predecessors(gate):
                assert position[predecessor] < position[gate]

    def test_prefers_local_gates(self):
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)  # remote under our fake locality
        circuit.add("cx", 2, 3)  # local
        scheduler = GateScheduler(circuit, is_local=lambda index: index == 1)
        assert scheduler.next_gate() == 1

    def test_falls_back_to_program_order(self):
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        scheduler = GateScheduler(circuit, is_local=lambda index: False)
        assert scheduler.next_gate() == 0

    def test_mark_done_unlocks_successors(self):
        circuit = Circuit(2)
        circuit.add("h", 0)
        circuit.add("cx", 0, 1)
        scheduler = GateScheduler(circuit)
        assert scheduler.ready_gates() == [0]
        scheduler.mark_done(scheduler.next_gate())
        assert scheduler.ready_gates() == [1]

    def test_double_mark_done_rejected(self):
        circuit = Circuit(1).add("h", 0)
        scheduler = GateScheduler(circuit)
        index = scheduler.next_gate()
        scheduler.mark_done(index)
        with pytest.raises(ValueError):
            scheduler.mark_done(index)

    def test_next_gate_on_empty_raises(self):
        scheduler = GateScheduler(Circuit(1))
        with pytest.raises(RuntimeError):
            scheduler.next_gate()

    def test_done_and_bool(self):
        circuit = Circuit(1).add("h", 0)
        scheduler = GateScheduler(circuit)
        assert bool(scheduler)
        assert not scheduler.done()
        scheduler.mark_done(scheduler.next_gate())
        assert scheduler.done()
        assert not bool(scheduler)


class TestProgramBuilder:
    def test_op_ids_are_dense(self):
        builder = ProgramBuilder()
        builder.gate(trap="T0", ions=(0,), qubits=(0,), name="h", chain_length=3)
        builder.split(trap="T0", ion=0, chain_size=3, side="tail")
        builder.move(ion=0, segment="S0", length=1, from_node="T0", to_node="T1")
        assert [op.op_id for op in builder.operations] == [0, 1, 2]
        assert builder.next_id == 3

    def test_ion_dependencies_chain(self):
        builder = ProgramBuilder()
        builder.split(trap="T0", ion=5, chain_size=3, side="tail")
        builder.move(ion=5, segment="S0", length=1, from_node="T0", to_node="T1")
        builder.merge(trap="T1", ion=5, side="head")
        assert builder.operations[1].dependencies == (0,)
        assert builder.operations[2].dependencies == (1,)

    def test_trap_dependencies_serialise_trap_ops(self):
        builder = ProgramBuilder()
        builder.gate(trap="T0", ions=(0,), qubits=(0,), name="h", chain_length=2)
        builder.gate(trap="T0", ions=(1,), qubits=(1,), name="h", chain_length=2)
        # Different ions, same trap: second gate depends on the first.
        assert builder.operations[1].dependencies == (0,)

    def test_independent_traps_have_no_dependency(self):
        builder = ProgramBuilder()
        builder.gate(trap="T0", ions=(0,), qubits=(0,), name="h", chain_length=2)
        builder.gate(trap="T1", ions=(1,), qubits=(1,), name="h", chain_length=2)
        assert builder.operations[1].dependencies == ()

    def test_moves_do_not_serialise_across_ions(self):
        builder = ProgramBuilder()
        builder.move(ion=0, segment="S0", length=1, from_node="T0", to_node="T1")
        builder.move(ion=1, segment="S1", length=1, from_node="T2", to_node="T3")
        assert builder.operations[1].dependencies == ()

    def test_two_qubit_gate_merges_dependencies(self):
        builder = ProgramBuilder()
        builder.gate(trap="T0", ions=(0,), qubits=(0,), name="h", chain_length=2)
        builder.gate(trap="T1", ions=(1,), qubits=(1,), name="h", chain_length=2)
        builder.merge(trap="T0", ion=1, side="tail")
        builder.gate(trap="T0", ions=(0, 1), qubits=(0, 1), name="cx",
                     chain_length=2, ion_distance=0)
        assert set(builder.operations[-1].dependencies) == {0, 2}

    def test_swap_gate_and_ion_swap_emission(self):
        builder = ProgramBuilder()
        builder.swap_gate(trap="T0", ions=(0, 1), qubits=(0, 1), chain_length=4,
                          ion_distance=2)
        builder.ion_swap(trap="T0", ions=(1, 2), chain_size=4)
        builder.measure(trap="T0", ion=2, qubit=2)
        builder.cross_junction(ion=3, junction="J0", degree=3)
        kinds = [op.kind.value for op in builder.operations]
        assert kinds == ["swap_gate", "ion_swap", "measure", "junction"]
