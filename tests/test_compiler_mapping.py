"""Unit tests for the initial mapping heuristics."""

import pytest

from repro.compiler.mapping import first_use_order, greedy_mapping
from repro.hardware import build_device
from repro.ir.circuit import Circuit


@pytest.fixture
def device():
    return build_device("L3", trap_capacity=5, num_qubits=9, buffer_ions=2)


class TestFirstUseOrder:
    def test_order_follows_gate_sequence(self):
        circuit = Circuit(4)
        circuit.add("cx", 2, 3)
        circuit.add("cx", 0, 1)
        assert first_use_order(circuit) == [2, 3, 0, 1]

    def test_unused_qubits_appended(self):
        circuit = Circuit(4)
        circuit.add("h", 2)
        assert first_use_order(circuit) == [2, 0, 1, 3]

    def test_no_duplicates(self, qft8):
        order = first_use_order(qft8)
        assert sorted(order) == list(range(8))


class TestGreedyMapping:
    def test_fills_traps_in_order(self, device):
        circuit = Circuit(9)
        for qubit in range(8):
            circuit.add("cx", qubit, qubit + 1)
        state = greedy_mapping(circuit, device)
        # capacity 5 with buffer 2 -> 3 qubits per trap
        assert state.occupancy() == {"T0": 3, "T1": 3, "T2": 3}
        assert state.trap_of_qubit(0) == "T0"
        assert state.trap_of_qubit(8) == "T2"

    def test_respects_buffer(self, device):
        circuit = Circuit(9)
        state = greedy_mapping(circuit, device)
        for trap in device.topology.traps:
            assert state.free_space(trap.name) >= device.buffer_ions

    def test_rejects_oversized_circuit(self, device):
        with pytest.raises(ValueError):
            greedy_mapping(Circuit(10), device)

    def test_colocates_interacting_neighbours(self, device):
        """Nearest-neighbour circuits should need little communication."""

        circuit = Circuit(9)
        for qubit in range(8):
            circuit.add("cx", qubit, qubit + 1)
        state = greedy_mapping(circuit, device)
        cross = sum(1 for a in range(8)
                    if state.trap_of_qubit(a) != state.trap_of_qubit(a + 1))
        assert cross == 2  # only the two trap-boundary edges


class TestOtherStrategies:
    def test_all_strategies_place_every_qubit(self, device, qft8):
        state = greedy_mapping(qft8, device)
        for qubit in range(qft8.num_qubits):
            assert state.trap_of_qubit(qubit) is not None
        state.validate()
