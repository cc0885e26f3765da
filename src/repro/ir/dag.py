"""Data-dependency DAG over a circuit's gate list, and the circuit front-end.

Quantum IR has only data dependencies: two gates conflict exactly when they
share a qubit.  The scheduler (Section VI) needs, for every gate, the set of
gates that must complete first, and a way to walk the program in
"earliest ready gate first" order.  This module provides both.

Everything here depends on the circuit alone, never on a device, so it is
computed once per circuit and reused for every device the circuit is
compiled for (Figures 7 and 8 compile each application for 12 devices).
:class:`CircuitFrontEnd` holds that work: gate kinds, the dependency edges,
the two-qubit operand table, the interaction histogram as a per-qubit
adjacency, per-qubit use lists and the first-use order, every per-gate
sequence a tuple or ``bytes`` so the cyclic collector stops walking it.
:meth:`Circuit.front_end <repro.ir.circuit.Circuit.front_end>` builds and
caches it; :class:`DependencyDAG` is a read-only view over its edge tuples.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

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
        affinity and the interaction-aware mapping read it).
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


class DependencyDAG:
    """Gate-level dependency graph for a :class:`~repro.ir.circuit.Circuit`.

    Nodes are gate indices (positions in the circuit's gate list).  An edge
    ``i -> j`` means gate ``j`` uses a qubit last touched by gate ``i`` and
    therefore cannot start before ``i`` finishes.  The edges are the
    circuit's cached :class:`CircuitFrontEnd` tables; the view copies
    nothing.
    """

    def __init__(self, circuit: "Circuit") -> None:
        self.circuit = circuit
        front = circuit.front_end()
        self._predecessors = front.predecessors
        self._successors = front.successors
        self._in_degrees = front.in_degrees
        self._num_gates = len(front.gates)

    # ------------------------------------------------------------------ #
    @property
    def num_gates(self) -> int:
        """Number of nodes (gates) in the DAG."""

        return self._num_gates

    def predecessors(self, index: int) -> Tuple[int, ...]:
        """Gate indices that must finish before gate ``index`` may start."""

        return self._predecessors[index]

    def successors(self, index: int) -> Tuple[int, ...]:
        """Gate indices that directly depend on gate ``index``."""

        return self._successors[index]

    def roots(self) -> List[int]:
        """Gates with no predecessors (ready at time zero)."""

        return [i for i in range(self._num_gates) if not self._in_degrees[i]]

    def in_degrees(self) -> List[int]:
        """In-degree per gate index; useful for ready-list scheduling."""

        return list(self._in_degrees)

    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """A topological order of gate indices (Kahn's algorithm).

        Ties are broken by picking the smallest ready index, which makes the
        result identical to the original gate list (dependencies always point
        backwards in program order) -- a useful invariant checked by tests.
        """

        in_degree = self.in_degrees()
        ready = [i for i in range(self._num_gates) if in_degree[i] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in self._successors[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != self._num_gates:
            raise RuntimeError("dependency graph has a cycle; IR is malformed")
        return order

    def ready_frontier(self, completed: Set[int]) -> List[int]:
        """Gates whose predecessors are all in ``completed`` and that are not
        themselves completed.  This is the "ready list" of the earliest-ready-
        gate-first heuristic."""

        frontier = []
        for index in range(self._num_gates):
            if index in completed:
                continue
            if all(p in completed for p in self._predecessors[index]):
                frontier.append(index)
        return frontier

    def layers(self) -> List[List[int]]:
        """Partition gates into ASAP layers (all gates in a layer are
        mutually independent)."""

        level: Dict[int, int] = {}
        for index in self.topological_order():
            preds = self._predecessors[index]
            level[index] = 1 + max((level[p] for p in preds), default=-1)
        grouped: Dict[int, List[int]] = defaultdict(list)
        for index, lev in level.items():
            grouped[lev].append(index)
        return [sorted(grouped[lev]) for lev in sorted(grouped)]

    def critical_path_length(self, weights: Sequence[float] = None) -> float:
        """Length of the longest dependency chain.

        ``weights`` optionally gives a duration per gate index; the default
        counts every gate as 1.
        """

        if weights is None:
            weights = [1.0] * self._num_gates
        finish: Dict[int, float] = {}
        for index in self.topological_order():
            start = max((finish[p] for p in self._predecessors[index]), default=0.0)
            finish[index] = start + weights[index]
        return max(finish.values(), default=0.0)

    def iter_program_order(self) -> Iterator[int]:
        """Iterate gate indices in original program order."""

        return iter(range(self._num_gates))
