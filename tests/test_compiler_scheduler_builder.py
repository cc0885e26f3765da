"""Unit tests for the gate scheduler and the program builder."""

import itertools

import pytest

from repro.compiler.builder import ProgramBuilder, _sorted_ids, _sorted_ids3
from repro.compiler.scheduler import GateScheduler
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.isa.operations import (
    gate_record,
    ion_swap_record,
    junction_record,
    measure_record,
    merge_record,
    move_record,
    split_record,
    swap_gate_record,
)


class TestGateScheduler:
    def test_schedule_covers_every_gate(self, qft8):
        scheduler = GateScheduler(qft8)
        order = scheduler.schedule()
        assert sorted(order) == list(range(len(qft8)))

    def test_schedule_respects_dependencies(self, qft8):
        order = GateScheduler(qft8).schedule()
        position = {gate: i for i, gate in enumerate(order)}
        dag = DependencyDAG(qft8)
        for gate in range(len(qft8)):
            for predecessor in dag.predecessors(gate):
                assert position[predecessor] < position[gate]

    def test_prefers_local_gates(self):
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)  # remote under our fake locality
        circuit.add("cx", 2, 3)  # local
        scheduler = GateScheduler(circuit, is_local=lambda index: index == 1)
        assert next(scheduler.order()) == 1

    def test_falls_back_to_program_order(self):
        circuit = Circuit(4)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 2, 3)
        scheduler = GateScheduler(circuit, is_local=lambda index: False)
        assert next(scheduler.order()) == 0

    def test_resume_unlocks_successors(self):
        circuit = Circuit(2)
        circuit.add("h", 0)
        circuit.add("cx", 0, 1)
        circuit.add("h", 1)
        scheduler = GateScheduler(circuit)
        order = scheduler.order()
        assert next(order) == 0
        assert scheduler.ready_gates() == []
        # Resuming marks gate 0 done, which makes gate 1 ready.
        assert next(order) == 1
        assert scheduler.ready_gates() == []
        assert next(order) == 2

    def test_each_gate_is_handed_out_once(self):
        circuit = Circuit(1).add("h", 0)
        scheduler = GateScheduler(circuit)
        assert list(scheduler.order()) == [0]
        # A second walk of a finished scheduler hands out nothing.
        assert list(scheduler.order()) == []

    def test_order_on_empty_circuit_stops(self):
        scheduler = GateScheduler(Circuit(1))
        with pytest.raises(StopIteration):
            next(scheduler.order())

    def test_done_and_bool(self):
        circuit = Circuit(1).add("h", 0)
        scheduler = GateScheduler(circuit)
        assert bool(scheduler)
        assert not scheduler.done()
        order = scheduler.order()
        assert next(order) == 0
        assert not scheduler.done()
        assert list(order) == []
        assert scheduler.done()
        assert not bool(scheduler)

    def test_next_use_skips_handed_out_gates(self):
        circuit = Circuit(3)
        circuit.add("cx", 0, 1)
        circuit.add("cx", 1, 2)
        circuit.add("cx", 0, 2)
        scheduler = GateScheduler(circuit)
        assert [scheduler.next_use(qubit) for qubit in range(3)] == [0, 0, 1]
        order = scheduler.order()
        assert next(order) == 0
        assert [scheduler.next_use(qubit) for qubit in range(3)] == [2, 1, 1]
        assert list(order) == [1, 2]
        assert [scheduler.next_use(qubit) for qubit in range(3)] == [None] * 3


class TestSchedulerOrderProperty:
    """``GateScheduler.order()`` against an in-test reference on random
    circuits.

    The reference re-derives the ready set from scratch every step: the
    smallest-index local ready gate, else the smallest-index ready gate,
    where every gate that is not two-qubit is local.  Locality comes from a
    random trap per qubit; after each handed-out gate some qubits change
    traps and are reported, as the compile loop reports shuttled qubits
    between the generator's yields.
    """

    def test_order_matches_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (hypothesis.given, hypothesis.settings,
                               hypothesis.strategies)

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            num_qubits = data.draw(st.integers(min_value=2, max_value=6))
            qubit = st.integers(min_value=0, max_value=num_qubits - 1)
            circuit = Circuit(num_qubits)
            for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
                name = data.draw(st.sampled_from(("h", "cx", "measure",
                                                  "barrier")))
                if name == "cx":
                    circuit.add(name, *data.draw(st.lists(
                        qubit, min_size=2, max_size=2, unique=True)))
                elif name == "barrier":
                    circuit.add(name, *data.draw(st.lists(
                        qubit, min_size=1, max_size=num_qubits, unique=True)))
                else:
                    circuit.add(name, data.draw(qubit))

            operands = [gate.qubits if gate.is_two_qubit else None
                        for gate in circuit]
            predecessors, last_use = [], {}
            for index, gate in enumerate(circuit):
                predecessors.append({last_use[q] for q in gate.qubits
                                     if q in last_use})
                last_use.update(dict.fromkeys(gate.qubits, index))
            trap = [data.draw(st.integers(0, 2)) for _ in range(num_qubits)]

            def local(index):
                return operands[index] is None or \
                    trap[operands[index][0]] == trap[operands[index][1]]

            def is_local(index):
                assert operands[index] is not None, \
                    "the scheduler asked about a gate that is not two-qubit"
                return local(index)

            scheduler = GateScheduler(circuit, is_local=is_local)
            order = scheduler.order()
            emitted = set()
            for _ in range(len(circuit)):
                ready = [index for index in range(len(circuit))
                         if index not in emitted
                         and predecessors[index] <= emitted]
                expected = min([index for index in ready if local(index)]
                               or ready)
                assert next(order) == expected
                # While the gate is handed out, the rest of the ready set
                # waits in the scheduler.
                assert scheduler.ready_gates() == \
                    [index for index in ready if index != expected]
                moved = data.draw(st.lists(qubit, max_size=3, unique=True))
                for moved_qubit in moved:
                    trap[moved_qubit] = data.draw(st.integers(0, 2))
                scheduler.note_qubits_moved(moved)
                emitted.add(expected)
            assert list(order) == []
            assert scheduler.done() and not scheduler

        check()


class TestProgramBuilder:
    """The builder's emitters, driven as the compiler drives them: a record
    function and its fields."""

    def test_op_ids_are_dense(self):
        builder = ProgramBuilder()
        builder.one_ion(0, "T0", gate_record, "T0", (0,), (0,), "h", 3, 0)
        builder.one_ion(0, "T0", split_record, "T0", 0, 3, "tail")
        builder.one_ion(0, None, move_record, 0, "S0", 1, "T0", "T1")
        assert [op.op_id for op in builder.operations] == [0, 1, 2]
        assert builder.next_id == 3

    def test_ion_dependencies_chain(self):
        builder = ProgramBuilder()
        builder.one_ion(5, "T0", split_record, "T0", 5, 3, "tail")
        builder.one_ion(5, None, move_record, 5, "S0", 1, "T0", "T1")
        builder.one_ion(5, "T1", merge_record, "T1", 5, "head")
        assert builder.operations[1].dependencies == (0,)
        assert builder.operations[2].dependencies == (1,)

    def test_trap_dependencies_serialise_trap_ops(self):
        builder = ProgramBuilder()
        builder.one_ion(0, "T0", gate_record, "T0", (0,), (0,), "h", 2, 0)
        builder.one_ion(1, "T0", gate_record, "T0", (1,), (1,), "h", 2, 0)
        # Different ions, same trap: second gate depends on the first.
        assert builder.operations[1].dependencies == (0,)

    def test_independent_traps_have_no_dependency(self):
        builder = ProgramBuilder()
        builder.one_ion(0, "T0", gate_record, "T0", (0,), (0,), "h", 2, 0)
        builder.one_ion(1, "T1", gate_record, "T1", (1,), (1,), "h", 2, 0)
        assert builder.operations[1].dependencies == ()

    def test_moves_do_not_serialise_across_ions(self):
        builder = ProgramBuilder()
        builder.one_ion(0, None, move_record, 0, "S0", 1, "T0", "T1")
        builder.one_ion(1, None, move_record, 1, "S1", 1, "T2", "T3")
        assert builder.operations[1].dependencies == ()

    def test_two_qubit_gate_merges_dependencies(self):
        builder = ProgramBuilder()
        builder.one_ion(0, "T0", gate_record, "T0", (0,), (0,), "h", 2, 0)
        builder.one_ion(1, "T1", gate_record, "T1", (1,), (1,), "h", 2, 0)
        builder.one_ion(1, "T0", merge_record, "T0", 1, "tail")
        builder.two_ions(0, 1, "T0", gate_record, "T0", (0, 1), (0, 1), "cx",
                         2, 0)
        assert set(builder.operations[-1].dependencies) == {0, 2}

    def test_dependency_merge_is_sorted_and_distinct(self):
        """The compare-based merge equals sorting the set of last op ids."""

        ids = (None, 0, 1, 2)
        for a, b in itertools.product(ids, repeat=2):
            assert _sorted_ids(a, b) == tuple(sorted({a, b} - {None}))
        for a, b, c in itertools.product(ids, repeat=3):
            assert _sorted_ids3(a, b, c) == tuple(sorted({a, b, c} - {None}))

    def test_swap_gate_and_ion_swap_emission(self):
        builder = ProgramBuilder()
        builder.two_ions(0, 1, "T0", swap_gate_record, "T0", (0, 1), (0, 1),
                         4, 2)
        builder.two_ions(1, 2, "T0", ion_swap_record, "T0", (1, 2), 4)
        builder.one_ion(2, "T0", measure_record, "T0", 2, 2)
        builder.one_ion(3, None, junction_record, 3, "J0", 3)
        kinds = [op.kind.value for op in builder.operations]
        assert kinds == ["swap_gate", "ion_swap", "measure", "junction"]
