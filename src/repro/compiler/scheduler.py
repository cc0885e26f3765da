"""Gate scheduling order: earliest ready gate first (paper Section VI).

The scheduler walks the circuit's dependency DAG and repeatedly picks a gate
whose predecessors have all been emitted.  Among ready gates it prefers

1. gates that are *local* (both operands already co-located in one trap) --
   they cost no communication and executing them first cannot increase the
   shuttle count of the remaining gates;
2. earlier program order (the "earliest ready gate").

The preference function is injected so the compile loop can describe locality
against its live placement state without the scheduler importing it.  Only
two-qubit gates are ever asked about: every other ready gate is local.

Implementation: ready gates live in a *two-tier heap* -- one min-heap of
locally-executable gates and one of gates that would need communication.
``next_gate`` pops the smallest local gate, falling back to the smallest
remote gate, in O(log W) for ready-list width W.  Locality of a ready gate
only changes when one of its operands moves between traps, so the compile
loop reports shuttled qubits via :meth:`note_qubits_moved` and only the
affected gates are re-classified (lazy invalidation: the entry in the stale
tier is skipped when it surfaces).  Per-gate state is one ``bytearray``
indexed by gate (waiting, ready in either tier, handed out, done), and the
remaining in-degrees are a list seeded from the circuit's cached
:class:`~repro.ir.dag.CircuitFrontEnd`.  The gates touching one qubit form a
dependency chain, so at most one of them is ready at a time: the
invalidation index is a plain per-qubit list of that gate.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG

#: Per-gate states of :class:`GateScheduler`.
_WAITING, _LOCAL, _REMOTE, _HANDED_OUT, _DONE = range(5)


class GateScheduler:
    """Iterator over gate indices in earliest-ready-gate-first order."""

    def __init__(self, circuit: Circuit,
                 is_local: Optional[Callable[[int], bool]] = None) -> None:
        self.circuit = circuit
        self.dag = DependencyDAG(circuit)
        front = circuit.front_end()
        self._is_local = is_local or (lambda index: True)
        self._successors = front.successors
        #: Operand qubits of every two-qubit gate, ``None`` for the rest
        #: (locality can only change for two-qubit gates).
        self._operands = front.operands
        self._remaining_preds = list(front.in_degrees)
        self._state = bytearray(len(front.gates))
        self._num_ready = 0
        self._num_emitted = 0
        #: The ready two-qubit gate using each qubit, or -1.
        self._ready_on_qubit: List[int] = [-1] * circuit.num_qubits
        self._local_heap: List[int] = []
        self._remote_heap: List[int] = []
        for index, degree in enumerate(self._remaining_preds):
            if degree == 0:
                self._push_ready(index)

    # ------------------------------------------------------------------ #
    def _push_ready(self, index: int) -> None:
        """Classify a newly-ready gate and push it into the right tier."""

        self._num_ready += 1
        operands = self._operands[index]
        if operands is not None:
            qubit_a, qubit_b = operands
            self._ready_on_qubit[qubit_a] = index
            self._ready_on_qubit[qubit_b] = index
            if not self._is_local(index):
                self._state[index] = _REMOTE
                heapq.heappush(self._remote_heap, index)
                return
        self._state[index] = _LOCAL
        heapq.heappush(self._local_heap, index)

    def note_qubits_moved(self, qubits) -> None:
        """Re-classify ready gates whose operand ``qubits`` changed traps.

        The compile loop calls this after emitting the shuttles of a gate;
        only gates touching a moved qubit can flip between the local and
        remote tiers.  Entries left behind in the old tier become stale and
        are skipped when popped.
        """

        state = self._state
        for qubit in qubits:
            index = self._ready_on_qubit[qubit]
            if index < 0:
                continue
            tier = _LOCAL if self._is_local(index) else _REMOTE
            if tier == state[index]:
                continue
            state[index] = tier
            heapq.heappush(self._local_heap if tier == _LOCAL
                           else self._remote_heap, index)

    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return self._num_ready > 0

    @property
    def num_emitted(self) -> int:
        """Gates already handed out."""

        return self._num_emitted

    def done(self) -> bool:
        """Whether every gate has been scheduled."""

        return self._num_emitted == len(self._state)

    def ready_gates(self) -> List[int]:
        """Currently ready gate indices, in program order."""

        return [index for index, state in enumerate(self._state)
                if state == _LOCAL or state == _REMOTE]

    def next_gate(self) -> int:
        """Pop the next gate to compile.

        The smallest-index local ready gate wins; if no ready gate is local,
        the smallest-index ready gate overall (which then sits at the top of
        the remote tier).
        """

        if not self._num_ready:
            raise RuntimeError("no ready gates; scheduling is complete or stuck")
        state = self._state
        heap = self._local_heap
        while heap and state[heap[0]] != _LOCAL:
            heapq.heappop(heap)
        if not heap:
            heap = self._remote_heap
            while state[heap[0]] != _REMOTE:
                heapq.heappop(heap)
        chosen = heapq.heappop(heap)
        state[chosen] = _HANDED_OUT
        self._num_ready -= 1
        operands = self._operands[chosen]
        if operands is not None:
            qubit_a, qubit_b = operands
            self._ready_on_qubit[qubit_a] = -1
            self._ready_on_qubit[qubit_b] = -1
        return chosen

    def mark_done(self, index: int) -> None:
        """Record that ``index`` has been emitted; unlock its successors."""

        if self._state[index] == _DONE:
            raise ValueError(f"gate {index} already marked done")
        self._state[index] = _DONE
        self._num_emitted += 1
        remaining = self._remaining_preds
        for successor in self._successors[index]:
            remaining[successor] -= 1
            if not remaining[successor]:
                self._push_ready(successor)

    def schedule(self) -> List[int]:
        """Convenience: the full schedule as a list of gate indices."""

        order = []
        while not self.done():
            index = self.next_gate()
            order.append(index)
            self.mark_done(index)
        return order
