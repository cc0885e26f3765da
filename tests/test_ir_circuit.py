"""Unit tests for the Circuit IR container."""

import pytest

from repro.ir.circuit import Circuit
from repro.ir.gate import Gate


class TestConstruction:
    def test_empty_circuit(self):
        circuit = Circuit(3)
        assert circuit.num_qubits == 3
        assert circuit.num_gates == 0

    def test_invalid_qubit_count(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_append_and_len(self):
        circuit = Circuit(2)
        circuit.append(Gate("h", (0,)))
        circuit.append(Gate("cx", (0, 1)))
        assert len(circuit) == 2

    def test_add_builder(self):
        circuit = Circuit(2).add("h", 0).add("cx", 0, 1)
        assert circuit.num_two_qubit_gates == 1

    def test_add_with_params(self):
        circuit = Circuit(1).add("rz", 0, params=(0.25,))
        assert circuit[0].params == (0.25,)

    def test_out_of_range_qubit_rejected(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.add("h", 2)

    def test_extend(self):
        circuit = Circuit(2)
        circuit.extend([Gate("h", (0,)), Gate("h", (1,))])
        assert circuit.num_single_qubit_gates == 2

    def test_copy_is_independent(self):
        circuit = Circuit(2).add("h", 0)
        clone = circuit.copy()
        clone.add("h", 1)
        assert len(circuit) == 1
        assert len(clone) == 2


class TestStatistics:
    @pytest.fixture
    def circuit(self):
        c = Circuit(4, name="stats")
        c.add("h", 0)
        c.add("cx", 0, 1)
        c.add("cx", 0, 1)
        c.add("cz", 2, 3)
        c.add("measure", 0)
        return c

    def test_counts(self, circuit):
        assert circuit.num_gates == 5
        assert circuit.num_two_qubit_gates == 3
        assert circuit.num_single_qubit_gates == 1

    def test_two_qubit_pairs(self, circuit):
        """The front-end's operand table lists each entangling gate's pair."""

        assert [pair for pair in circuit.front_end().operands if pair] == \
            [(0, 1), (0, 1), (2, 3)]

    def test_interaction_counts_undirected(self):
        """The interaction histogram the router and mapper read counts a
        pair once whatever its operand order."""

        c = Circuit(3)
        c.add("cx", 0, 1)
        c.add("cx", 1, 0)
        assert c.front_end().neighbours == (((1, 2),), ((0, 2),), ())


class TestTransformations:
    def test_lowered_rewrites_swap(self):
        c = Circuit(2).add("swap", 0, 1)
        lowered = c.lowered()
        assert lowered.num_two_qubit_gates == 3
        assert all(g.name == "cx" for g in lowered.gates)

    def test_lowered_keeps_other_gates(self):
        c = Circuit(2).add("h", 0).add("cz", 0, 1)
        lowered = c.lowered()
        assert [g.name for g in lowered.gates] == ["h", "cz"]

    def test_iteration_and_indexing(self):
        c = Circuit(2).add("h", 0).add("h", 1)
        assert [g.qubits[0] for g in c] == [0, 1]
        assert c[1].qubits == (1,)
