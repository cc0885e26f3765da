"""Shared gate decompositions used by the benchmark generators.

All applications are emitted in the trapped-ion native set (single-qubit
rotations plus MS-class two-qubit gates), so multi-qubit primitives such as
Toffoli and controlled-phase are decomposed here.  The decompositions are the
textbook ones; only the two-qubit gate counts matter for the architectural
study (each CX/CZ/RZZ is one MS gate on hardware).
"""

from __future__ import annotations

import math

from repro.ir.circuit import Circuit


def controlled_phase(circuit: Circuit, theta: float, control: int, target: int) -> None:
    """CPHASE(theta) decomposed into two CX gates and three RZ rotations."""

    circuit.add("rz", control, params=(theta / 2.0,))
    circuit.add("cx", control, target)
    circuit.add("rz", target, params=(-theta / 2.0,))
    circuit.add("cx", control, target)
    circuit.add("rz", target, params=(theta / 2.0,))


def zz_interaction(circuit: Circuit, theta: float, qubit_a: int, qubit_b: int) -> None:
    """exp(-i theta ZZ/2) emitted as a native RZZ gate (one MS gate)."""

    circuit.add("rzz", qubit_a, qubit_b, params=(theta,))


def toffoli(circuit: Circuit, control_a: int, control_b: int, target: int) -> None:
    """Toffoli (CCX) via the standard 6-CX, 7-T decomposition."""

    circuit.add("h", target)
    circuit.add("cx", control_b, target)
    circuit.add("tdg", target)
    circuit.add("cx", control_a, target)
    circuit.add("t", target)
    circuit.add("cx", control_b, target)
    circuit.add("tdg", target)
    circuit.add("cx", control_a, target)
    circuit.add("t", control_b)
    circuit.add("t", target)
    circuit.add("h", target)
    circuit.add("cx", control_a, control_b)
    circuit.add("t", control_a)
    circuit.add("tdg", control_b)
    circuit.add("cx", control_a, control_b)


def multi_controlled_z(circuit: Circuit, controls, ancillas, target: int) -> None:
    """Multi-controlled Z using a clean-ancilla Toffoli ladder.

    ``controls`` are the control qubits, ``ancillas`` a list of at least
    ``len(controls) - 2`` clean work qubits, and ``target`` the qubit whose
    phase is flipped when every control is 1.  The ladder is uncomputed so the
    ancillas are returned clean.
    """

    controls = list(controls)
    ancillas = list(ancillas)
    if len(controls) < 2:
        raise ValueError("multi_controlled_z needs at least two controls")
    needed = len(controls) - 2
    if len(ancillas) < needed:
        raise ValueError(f"need {needed} ancillas, got {len(ancillas)}")

    if len(controls) == 2:
        # CCZ: conjugate a Toffoli by Hadamards on the target.
        circuit.add("h", target)
        toffoli(circuit, controls[0], controls[1], target)
        circuit.add("h", target)
        return

    ladder = []
    toffoli(circuit, controls[0], controls[1], ancillas[0])
    ladder.append((controls[0], controls[1], ancillas[0]))
    for index in range(2, len(controls) - 1):
        toffoli(circuit, controls[index], ancillas[index - 2], ancillas[index - 1])
        ladder.append((controls[index], ancillas[index - 2], ancillas[index - 1]))

    # The conjunction of all but the last control is now in the top ancilla;
    # a CCZ with the last control applies the phase.
    top = ancillas[len(controls) - 3]
    circuit.add("h", target)
    toffoli(circuit, controls[-1], top, target)
    circuit.add("h", target)

    for control_a, control_b, anc in reversed(ladder):
        toffoli(circuit, control_a, control_b, anc)


def hadamard_all(circuit: Circuit, qubits) -> None:
    """Apply a Hadamard to every qubit in ``qubits``."""

    for qubit in qubits:
        circuit.add("h", qubit)


PI = math.pi
