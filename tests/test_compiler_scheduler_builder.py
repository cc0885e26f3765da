"""Unit tests for the gate scheduler and the program builder."""

import itertools

import pytest

from repro.compiler.builder import ProgramBuilder, _sorted_ids, _sorted_ids3
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


class TestSchedulerOrderProperty:
    """``GateScheduler`` against an in-test reference on random circuits.

    The reference re-derives the ready set from scratch every step: the
    smallest-index local ready gate, else the smallest-index ready gate,
    where every gate that is not two-qubit is local.  Locality comes from a
    random trap per qubit; after each handed-out gate some qubits change
    traps and are reported, as the compile loop reports shuttled qubits.
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
            emitted = set()
            for _ in range(len(circuit)):
                ready = [index for index in range(len(circuit))
                         if index not in emitted
                         and predecessors[index] <= emitted]
                assert scheduler.ready_gates() == ready
                expected = min([index for index in ready if local(index)]
                               or ready)
                assert scheduler.next_gate() == expected
                moved = data.draw(st.lists(qubit, max_size=3, unique=True))
                for moved_qubit in moved:
                    trap[moved_qubit] = data.draw(st.integers(0, 2))
                scheduler.note_qubits_moved(moved)
                emitted.add(expected)
                scheduler.mark_done(expected)
            assert scheduler.done() and not scheduler

        check()


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

    def test_dependency_merge_is_sorted_and_distinct(self):
        """The compare-based merge equals sorting the set of last op ids."""

        ids = (None, 0, 1, 2)
        for a, b in itertools.product(ids, repeat=2):
            assert _sorted_ids(a, b) == tuple(sorted({a, b} - {None}))
        for a, b, c in itertools.product(ids, repeat=3):
            assert _sorted_ids3(a, b, c) == tuple(sorted({a, b, c} - {None}))

    def test_swap_gate_and_ion_swap_emission(self):
        builder = ProgramBuilder()
        builder.swap_gate(trap="T0", ions=(0, 1), qubits=(0, 1), chain_length=4,
                          ion_distance=2)
        builder.ion_swap(trap="T0", ions=(1, 2), chain_size=4)
        builder.measure(trap="T0", ion=2, qubit=2)
        builder.cross_junction(ion=3, junction="J0", degree=3)
        kinds = [op.kind.value for op in builder.operations]
        assert kinds == ["swap_gate", "ion_swap", "measure", "junction"]
