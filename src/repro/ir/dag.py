"""Data-dependency DAG over a circuit's gate list, and the circuit front-end.

Quantum IR has only data dependencies: two gates conflict exactly when they
share a qubit.  The scheduler (Section VI) needs, for every gate, the set of
gates that must complete first, to walk the program in "earliest ready
gate first" order (:class:`~repro.compiler.scheduler.GateScheduler`).  This
module provides the edges.

Everything here depends on the circuit alone, never on a device, so it is
computed once per circuit and reused for every device the circuit is
compiled for (Figures 7 and 8 compile each application for 12 devices).
:class:`CircuitFrontEnd` holds that work: gate kinds, the dependency edges,
the two-qubit operand table, the interaction histogram as a per-qubit
adjacency, per-qubit use lists and the first-use order, every per-gate
sequence a tuple or ``bytes`` so the cyclic collector stops walking it.
:meth:`Circuit.front_end <repro.ir.circuit.Circuit.front_end>` builds and
caches it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.ir.gate import GateKind

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from repro.ir.circuit import Circuit
    from repro.ir.gate import Gate

#: Gate kind codes of :attr:`CircuitFrontEnd.kinds` (one byte per gate).
SINGLE_QUBIT = 0
TWO_QUBIT = 1
MEASUREMENT = 2
BARRIER = 3

_KIND_CODES = {
    GateKind.SINGLE_QUBIT: SINGLE_QUBIT,
    GateKind.TWO_QUBIT: TWO_QUBIT,
    GateKind.MEASUREMENT: MEASUREMENT,
    GateKind.BARRIER: BARRIER,
}


class CircuitFrontEnd:
    """The device-independent half of compilation, computed once per circuit.

    Treat it as immutable: it is shared by every compilation of the circuit.
    Gate indices are positions in :attr:`gates`.

    Attributes
    ----------
    circuit:
        The circuit the tables describe (the lowered copy for a front-end
        built with ``lower_to_native``).
    gates:
        The gate sequence.
    kinds:
        One kind code per gate (:data:`SINGLE_QUBIT`, :data:`TWO_QUBIT`,
        :data:`MEASUREMENT`, :data:`BARRIER`).
    predecessors / successors:
        Per gate, the gates that last touched each of its qubits (in operand
        order) / the gates that next touch one of its qubits.  An edge
        appears once per shared qubit.
    in_degrees:
        ``len(predecessors[i])`` per gate.
    operands:
        Per gate, its ``(qubit_a, qubit_b)`` if it is a two-qubit gate, else
        ``None``.
    neighbours:
        Per program qubit, its ``(neighbour, count)`` pairs: the undirected
        interaction histogram over the two-qubit gates, in first-occurrence
        order, as an adjacency (:func:`interaction_adjacency`; the router's
        affinity reads it).
    uses:
        Per program qubit, the indices of the two-qubit gates using it.
    first_use_order:
        Program qubits by the position of their first gate, then the unused
        ones in index order (the greedy mapping's order).
    num_two_qubit_gates:
        Number of two-qubit gates.
    """

    __slots__ = ("circuit", "gates", "kinds", "predecessors", "successors",
                 "in_degrees", "operands", "neighbours", "uses",
                 "first_use_order", "num_two_qubit_gates")

    def __init__(self, circuit: "Circuit") -> None:
        gates = circuit.gates
        num_gates = len(gates)
        num_qubits = circuit.num_qubits
        kinds = bytearray(num_gates)
        predecessors: List[Tuple[int, ...]] = []
        successors: List[List[int]] = [[] for _ in range(num_gates)]
        operands: List[Optional[Tuple[int, int]]] = [None] * num_gates
        weights: Dict[Tuple[int, int], int] = {}
        uses: List[List[int]] = [[] for _ in range(num_qubits)]
        last_use = [-1] * num_qubits
        first_use: List[int] = []
        # The one last-use walk: each gate depends on the last gate to touch
        # each of its qubits.
        for index, gate in enumerate(gates):
            qubits = gate.qubits
            preds = []
            for qubit in qubits:
                prev = last_use[qubit]
                if prev < 0:
                    first_use.append(qubit)
                else:
                    preds.append(prev)
                    successors[prev].append(index)
                last_use[qubit] = index
            predecessors.append(tuple(preds))
            kind = _KIND_CODES[gate.kind]
            kinds[index] = kind
            if kind == TWO_QUBIT:
                qubit_a, qubit_b = qubits
                operands[index] = qubits
                key = (qubit_a, qubit_b) if qubit_a < qubit_b else (qubit_b, qubit_a)
                weights[key] = weights.get(key, 0) + 1
                uses[qubit_a].append(index)
                uses[qubit_b].append(index)

        self.circuit = circuit
        self.gates: Tuple["Gate", ...] = gates
        self.kinds = bytes(kinds)
        self.predecessors: Tuple[Tuple[int, ...], ...] = tuple(predecessors)
        self.successors: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, successors))
        self.in_degrees: Tuple[int, ...] = tuple(map(len, predecessors))
        self.operands: Tuple[Optional[Tuple[int, int]], ...] = tuple(operands)
        self.neighbours = interaction_adjacency(weights, num_qubits)
        self.uses: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, uses))
        self.first_use_order: Tuple[int, ...] = tuple(first_use) + tuple(
            qubit for qubit in range(num_qubits) if last_use[qubit] < 0)
        self.num_two_qubit_gates = sum(weights.values())


def interaction_adjacency(weights: Mapping[Tuple[int, int], int],
                          num_qubits: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per qubit below ``num_qubits``, its ``(neighbour, count)`` pairs of
    the histogram ``weights``, in the histogram's order."""

    neighbours: List[List[Tuple[int, int]]] = [[] for _ in range(num_qubits)]
    for (qubit_a, qubit_b), weight in weights.items():
        neighbours[qubit_a].append((qubit_b, weight))
        neighbours[qubit_b].append((qubit_a, weight))
    return tuple(map(tuple, neighbours))
