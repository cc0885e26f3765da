"""Unit tests for the application circuit generators (Table II suite)."""

import pytest

from repro.apps import (
    bernstein_vazirani_circuit,
    cuccaro_adder_circuit,
    qaoa_circuit,
    qft_circuit,
    squareroot_circuit,
    supremacy_circuit,
)
from repro.ir.gate import GateKind


def pairs(circuit):
    """The ``(q0, q1)`` operands of each entangling gate, in order."""

    return [gate.qubits for gate in circuit if gate.is_two_qubit]


class TestQFT:
    def test_two_qubit_gate_count_formula(self):
        # n*(n-1) two-qubit gates: each of the n*(n-1)/2 controlled phases
        # decomposes into two CX gates.
        for n in (4, 8, 16):
            assert qft_circuit(n).num_two_qubit_gates == n * (n - 1)

    def test_paper_instance(self):
        circuit = qft_circuit(64)
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 4032

    def test_all_pairs_interact(self):
        circuit = qft_circuit(6)
        expected = {(a, b) for a in range(6) for b in range(a + 1, 6)}
        assert {tuple(sorted(pair)) for pair in pairs(circuit)} == expected

    def test_with_swaps_adds_gates(self):
        assert qft_circuit(8, with_swaps=True).num_two_qubit_gates > \
            qft_circuit(8).num_two_qubit_gates

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            qft_circuit(1)


class TestBV:
    def test_paper_instance(self):
        circuit = bernstein_vazirani_circuit(64)
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 63

    def test_secret_controls_gate_count(self):
        circuit = bernstein_vazirani_circuit(8, secret=[1, 0, 1, 0, 1, 0, 1])
        assert circuit.num_two_qubit_gates == 4

    def test_all_gates_target_ancilla(self):
        circuit = bernstein_vazirani_circuit(8)
        ancilla = 7
        assert all(pair[1] == ancilla for pair in pairs(circuit))

    def test_secret_length_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani_circuit(8, secret=[1, 1])

    def test_secret_bits_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani_circuit(4, secret=[1, 2, 0])


class TestAdder:
    def test_paper_scale_instance(self):
        circuit = cuccaro_adder_circuit(64)
        assert circuit.num_qubits == 64
        # 16n + 1 with n = 31
        assert circuit.num_two_qubit_gates == 16 * 31 + 1

    def test_small_instance_count(self):
        assert cuccaro_adder_circuit(8).num_two_qubit_gates == 16 * 3 + 1

    def test_short_range_pattern(self):
        distances = [abs(a - b) for a, b in pairs(cuccaro_adder_circuit(16))]
        assert sum(distances) / len(distances) < 3.0

    def test_even_qubits_required(self):
        with pytest.raises(ValueError):
            cuccaro_adder_circuit(9)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            cuccaro_adder_circuit(4)


class TestQAOA:
    def test_paper_instance(self):
        circuit = qaoa_circuit(64, layers=20)
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 63 * 20 == 1260

    def test_nearest_neighbour_only(self):
        circuit = qaoa_circuit(10, layers=2)
        assert all(abs(a - b) == 1 for a, b in pairs(circuit))

    def test_layer_scaling(self):
        assert qaoa_circuit(8, layers=4).num_two_qubit_gates == 7 * 4

    def test_custom_angles(self):
        circuit = qaoa_circuit(4, layers=2, gammas=[0.1, 0.2], betas=[0.3, 0.4])
        assert circuit.num_two_qubit_gates == 6

    def test_angle_length_validation(self):
        with pytest.raises(ValueError):
            qaoa_circuit(4, layers=2, gammas=[0.1], betas=[0.3, 0.4])


class TestSupremacy:
    def test_paper_instance(self):
        circuit = supremacy_circuit(64, cycles=20)
        assert circuit.num_qubits == 64
        assert circuit.num_two_qubit_gates == 560

    def test_grid_nearest_neighbour_pattern(self):
        circuit = supremacy_circuit(16, cycles=4)  # 4x4 grid
        for a, b in pairs(circuit):
            assert abs(a - b) in (1, 4)

    def test_deterministic_for_fixed_seed(self):
        a = supremacy_circuit(9, cycles=4, seed=7)
        b = supremacy_circuit(9, cycles=4, seed=7)
        assert [g.name for g in a.gates] == [g.name for g in b.gates]

    def test_seed_changes_single_qubit_layers(self):
        a = supremacy_circuit(9, cycles=4, seed=1)
        b = supremacy_circuit(9, cycles=4, seed=2)
        assert [g.name for g in a.gates] != [g.name for g in b.gates]
        # but the entangling structure is identical
        assert pairs(a) == pairs(b)

    def test_every_qubit_touched(self):
        circuit = supremacy_circuit(12, cycles=4)
        assert sorted({q for gate in circuit for q in gate.qubits}) == \
            list(range(12))


class TestSquareRoot:
    def test_paper_instance_size(self):
        circuit = squareroot_circuit(40)
        assert circuit.num_qubits == 78
        # around a thousand CX gates (paper reports 1028 for its instance)
        assert 800 <= circuit.num_two_qubit_gates <= 1200

    def test_short_and_long_range_mix(self):
        circuit = squareroot_circuit(10)
        distances = {abs(a - b) for a, b in pairs(circuit)}
        assert min(distances) <= 2
        assert max(distances) >= 8

    def test_only_native_gates(self):
        circuit = squareroot_circuit(6)
        for gate in circuit.gates:
            assert gate.kind in (GateKind.SINGLE_QUBIT, GateKind.TWO_QUBIT)

    def test_iterations_scale_gate_count(self):
        one = squareroot_circuit(6, iterations=1).num_two_qubit_gates
        two = squareroot_circuit(6, iterations=2).num_two_qubit_gates
        assert two == 2 * one

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            squareroot_circuit(2)
