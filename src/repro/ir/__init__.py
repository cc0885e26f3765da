"""Quantum circuit intermediate representation (IR).

The IR mirrors what the paper's compiler consumes (Section V.A): a fully
unrolled sequence of single-qubit gates, two-qubit gates and measurement
operations with data (qubit) dependencies and no control flow.

Public surface:

* :class:`~repro.ir.gate.Gate` -- a single operation on one or two qubits.
* :class:`~repro.ir.circuit.Circuit` -- an ordered gate list plus helpers for
  counting, slicing and lowering to the trapped-ion native gate set.
* :class:`~repro.ir.dag.DependencyDAG` -- per-qubit data-dependency graph used
  by the earliest-ready-gate-first scheduler, a view over the circuit's cached
  :class:`~repro.ir.dag.CircuitFrontEnd` (``Circuit.front_end()``).
* :mod:`~repro.ir.qasm` -- a small OpenQASM 2.0 subset reader/writer so the
  toolflow can interface with external front ends (Qiskit, Cirq, ScaffCC).
"""

from repro.ir.gate import Gate, GateKind
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.ir import qasm

__all__ = ["Gate", "GateKind", "Circuit", "DependencyDAG", "qasm"]
