"""Unit tests for the OpenQASM 2.0 subset reader/writer."""

import math

import pytest

from repro.ir import qasm
from repro.ir.circuit import Circuit


SAMPLE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
cz q[1], q[2];
measure q[0] -> c[0];
"""


class TestLoads:
    def test_basic_parse(self):
        circuit = qasm.loads(SAMPLE)
        assert circuit.num_qubits == 3
        assert circuit.num_two_qubit_gates == 2
        assert sum(gate.is_measurement for gate in circuit) == 1

    def test_parameter_evaluation(self):
        circuit = qasm.loads(SAMPLE)
        rz = [g for g in circuit.gates if g.name == "rz"][0]
        assert rz.params[0] == pytest.approx(math.pi / 4)

    def test_comments_ignored(self):
        text = "OPENQASM 2.0;\nqreg q[1];\n// a comment\nh q[0]; // trailing\n"
        assert qasm.loads(text).num_gates == 1

    def test_barrier_skipped(self):
        text = "OPENQASM 2.0;\nqreg q[2];\nbarrier q[0],q[1];\nh q[0];\n"
        assert qasm.loads(text).num_gates == 1

    def test_missing_qreg_raises(self):
        with pytest.raises(qasm.QasmError):
            qasm.loads("OPENQASM 2.0;\nh q[0];\n")

    def test_two_qregs_rejected(self):
        with pytest.raises(qasm.QasmError):
            qasm.loads("OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(qasm.QasmError):
            qasm.loads("OPENQASM 2.0;\nqreg q[2];\nthis is not qasm\n")

    def test_malicious_parameter_rejected(self):
        with pytest.raises(qasm.QasmError):
            qasm.loads('OPENQASM 2.0;\nqreg q[1];\nrz(__import__("os")) q[0];\n')

    def test_negative_parameter(self):
        circuit = qasm.loads("OPENQASM 2.0;\nqreg q[1];\nrz(-pi/2) q[0];\n")
        assert circuit[0].params[0] == pytest.approx(-math.pi / 2)


class TestDumps:
    def test_round_trip(self):
        original = Circuit(3, name="rt")
        original.add("h", 0)
        original.add("cx", 0, 1)
        original.add("rz", 2, params=(0.5,))
        original.add("measure", 1)
        text = qasm.dumps(original)
        parsed = qasm.loads(text)
        assert parsed.num_qubits == 3
        assert [g.name for g in parsed.gates] == [g.name for g in original.gates]
        assert parsed[2].params[0] == pytest.approx(0.5)

    def test_header_present(self):
        text = qasm.dumps(Circuit(1).add("h", 0))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[1];" in text

    def test_measure_syntax(self):
        text = qasm.dumps(Circuit(2).add("measure", 1))
        assert "measure q[1] -> c[1];" in text


class TestFiles:
    def test_dump_and_load(self, tmp_path):
        circuit = Circuit(2, name="file").add("h", 0).add("cx", 0, 1)
        path = tmp_path / "circuit.qasm"
        qasm.dump(circuit, path)
        loaded = qasm.load(path)
        assert loaded.num_two_qubit_gates == 1

    def test_qft_round_trip(self, qft8):
        text = qasm.dumps(qft8)
        parsed = qasm.loads(text, name="qft8")
        assert parsed.num_two_qubit_gates == qft8.num_two_qubit_gates
        assert parsed.num_qubits == qft8.num_qubits
