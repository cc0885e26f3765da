"""QAOA benchmark (hardware-efficient ansatz).

The paper uses the hardware-efficient QAOA ansatz of Moll et al. [84]:
alternating layers of single-qubit rotations and nearest-neighbour entangling
gates along a line.  With 64 qubits and 20 entangling layers the circuit has
63 * 20 = 1260 two-qubit gates, matching Table II exactly, and a purely
nearest-neighbour communication pattern.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps._decompositions import zz_interaction
from repro.ir.circuit import Circuit


def qaoa_circuit(num_qubits: int = 64, layers: int = 20, *,
                 gammas: Optional[Sequence[float]] = None,
                 betas: Optional[Sequence[float]] = None) -> Circuit:
    """Build the hardware-efficient QAOA benchmark.

    Parameters
    ----------
    num_qubits:
        Number of qubits (64 in the paper).
    layers:
        Number of entangling layers (20 gives Table II's 1260 gates).
    gammas / betas:
        Optional per-layer variational angles; defaults are a fixed linear
        ramp so the circuit is deterministic.
    """

    if num_qubits < 2:
        raise ValueError("QAOA needs at least 2 qubits")
    if layers < 1:
        raise ValueError("QAOA needs at least one layer")
    if gammas is None:
        gammas = [0.1 * (index + 1) for index in range(layers)]
    if betas is None:
        betas = [0.05 * (index + 1) for index in range(layers)]
    if len(gammas) != layers or len(betas) != layers:
        raise ValueError("gammas and betas must have one entry per layer")

    circuit = Circuit(num_qubits, name=f"qaoa{num_qubits}x{layers}")
    for qubit in range(num_qubits):
        circuit.add("h", qubit)

    for layer in range(layers):
        gamma, beta = gammas[layer], betas[layer]
        # Cost layer: nearest-neighbour ZZ interactions along the line.
        for qubit in range(num_qubits - 1):
            zz_interaction(circuit, 2.0 * gamma, qubit, qubit + 1)
        # Mixer layer: single-qubit X rotations.
        for qubit in range(num_qubits):
            circuit.add("rx", qubit, params=(2.0 * beta,))
    return circuit


