"""Unit tests for the Gate IR node."""

import pytest

from repro.ir.gate import (
    Gate,
    GateKind,
    SINGLE_QUBIT_NAMES,
    TWO_QUBIT_NAMES,
    classify,
)


class TestClassify:
    def test_single_qubit_names(self):
        for name in ("h", "x", "rz", "t", "sdg"):
            assert classify(name) is GateKind.SINGLE_QUBIT

    def test_two_qubit_names(self):
        for name in ("cx", "cz", "ms", "rzz", "swap"):
            assert classify(name) is GateKind.TWO_QUBIT

    def test_measurement(self):
        assert classify("measure") is GateKind.MEASUREMENT

    def test_case_insensitive(self):
        assert classify("CX") is GateKind.TWO_QUBIT
        assert classify("H") is GateKind.SINGLE_QUBIT

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            classify("frobnicate")

    def test_name_sets_disjoint(self):
        assert not (SINGLE_QUBIT_NAMES & TWO_QUBIT_NAMES)


class TestGateConstruction:
    def test_single_qubit_gate(self):
        gate = Gate("h", (3,))
        assert gate.is_single_qubit
        assert not gate.is_two_qubit
        assert gate.kind is GateKind.SINGLE_QUBIT

    def test_two_qubit_gate(self):
        gate = Gate("cx", (0, 1))
        assert gate.is_two_qubit
        assert gate.qubits == (0, 1)

    def test_measurement_gate(self):
        gate = Gate("measure", (2,))
        assert gate.is_measurement

    def test_params_stored(self):
        gate = Gate("rz", (0,), (0.5,))
        assert gate.params == (0.5,)

    def test_wrong_arity_single(self):
        with pytest.raises(ValueError):
            Gate("h", (0, 1))

    def test_wrong_arity_two_qubit(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            Gate("h", (-1,))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Gate("nonsense", (0,))

    def test_barrier_requires_qubits(self):
        with pytest.raises(ValueError):
            Gate("barrier", ())

    def test_gate_is_hashable_and_frozen(self):
        gate = Gate("cx", (0, 1))
        assert hash(gate) == hash(Gate("cx", (0, 1)))
        with pytest.raises(AttributeError):
            gate.name = "cz"

    def test_sequences_are_stored_as_tuples(self):
        """A list argument becomes a tuple: the gate stays hashable, and a
        compiled record that shares ``qubits`` holds no list."""

        gate = Gate("cx", [0, 1])
        assert gate.qubits.__class__ is tuple
        assert gate == Gate("cx", (0, 1))
        assert hash(gate) == hash(Gate("cx", (0, 1)))
        rotation = Gate("rz", [2], [0.5])
        assert rotation.params.__class__ is tuple
        assert hash(rotation) == hash(Gate("rz", (2,), (0.5,)))


class TestGateProperties:
    def test_str_contains_name(self):
        assert "cx" in str(Gate("cx", (0, 1)))
