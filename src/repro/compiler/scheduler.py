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

Implementation: :meth:`GateScheduler.order` is one generator.  Ready gates
live in a *two-tier heap* -- one min-heap of locally-executable gates and one
of gates that would need communication.  The generator pops the smallest
local gate, falling back to the smallest remote gate, in O(log W) for
ready-list width W, and yields it; resumed, it marks that gate done and
pushes the successors that became ready, so each gate costs one resume
rather than separate pop and done calls.  Locality of a ready gate only
changes when one of its operands moves between traps, so the compile loop
reports shuttled qubits via :meth:`~GateScheduler.note_qubits_moved` between
yields and only the affected gates are re-classified (lazy invalidation: the
entry in the stale tier is skipped when it surfaces).  Per-gate state is one
``bytearray`` indexed by gate (waiting, ready in either tier, handed out,
done), and the remaining in-degrees are a list seeded from the circuit's
cached :class:`~repro.ir.dag.CircuitFrontEnd`.  The gates touching one qubit
form a dependency chain, so at most one of them is ready at a time: the
invalidation index is a plain per-qubit list of that gate.  The same states
answer the router's "when is this qubit needed next?"
(:meth:`~GateScheduler.next_use`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator, List, Optional

from repro.ir.circuit import Circuit

#: Per-gate states of :class:`GateScheduler`.
_WAITING, _LOCAL, _REMOTE, _HANDED_OUT, _DONE = range(5)


class GateScheduler:
    """Earliest-ready-gate-first order over a circuit's gates, one walk."""

    def __init__(self, circuit: Circuit,
                 is_local: Optional[Callable[[int], bool]] = None) -> None:
        self.circuit = circuit
        front = circuit.front_end()
        self._is_local = is_local or (lambda index: True)
        self._successors = front.successors
        #: Operand qubits of every two-qubit gate, ``None`` for the rest
        #: (locality can only change for two-qubit gates).
        self._operands = front.operands
        self._uses = front.uses
        self._use_pointers = [0] * circuit.num_qubits
        # The roots count the start of the walk as their one predecessor, so
        # the walk pushes every gate through the same loop.
        self._remaining_preds = [degree or 1 for degree in front.in_degrees]
        self._roots = [gate for gate, degree in enumerate(front.in_degrees) if not degree]
        self._state = bytearray(len(front.gates))
        #: The ready two-qubit gate using each qubit, or -1.
        self._ready_on_qubit: List[int] = [-1] * circuit.num_qubits
        self._local_heap: List[int] = []
        self._remote_heap: List[int] = []

    # ------------------------------------------------------------------ #
    def order(self) -> Iterator[int]:
        """Yield every gate index once, in scheduling order.

        The smallest-index local ready gate comes next; if no ready gate is
        local, the smallest-index ready gate overall (which then sits at the
        top of the remote tier).  Resuming the generator marks the gate it
        last yielded done, so the caller compiles that gate, and reports its
        shuttled qubits, before asking for the next.  A scheduler walks its
        circuit once.
        """

        state = self._state
        successors, operands = self._successors, self._operands
        remaining, is_local = self._remaining_preds, self._is_local
        ready_on_qubit = self._ready_on_qubit
        local_heap, remote_heap = self._local_heap, self._remote_heap
        released = self._roots
        while True:
            for index in released:
                remaining[index] -= 1
                if remaining[index]:
                    continue
                pair = operands[index]
                if pair is not None:
                    qubit_a, qubit_b = pair
                    ready_on_qubit[qubit_a] = ready_on_qubit[qubit_b] = index
                    if not is_local(index):
                        state[index] = _REMOTE
                        heappush(remote_heap, index)
                        continue
                state[index] = _LOCAL
                heappush(local_heap, index)
            while local_heap and state[local_heap[0]] != _LOCAL:
                heappop(local_heap)
            if local_heap:
                chosen = heappop(local_heap)
            else:
                while remote_heap and state[remote_heap[0]] != _REMOTE:
                    heappop(remote_heap)
                if not remote_heap:
                    return
                chosen = heappop(remote_heap)
            state[chosen] = _HANDED_OUT
            pair = operands[chosen]
            if pair is not None:
                ready_on_qubit[pair[0]] = ready_on_qubit[pair[1]] = -1
            yield chosen
            state[chosen] = _DONE
            released = successors[chosen]

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
            heappush(self._local_heap if tier == _LOCAL
                     else self._remote_heap, index)

    def next_use(self, qubit: int) -> Optional[int]:
        """The first two-qubit gate using ``qubit`` that has not been handed
        out, or ``None`` (the router's eviction order)."""

        uses = self._uses[qubit]
        pointer = self._use_pointers[qubit]
        state = self._state
        while pointer < len(uses) and state[uses[pointer]] >= _HANDED_OUT:
            pointer += 1
        self._use_pointers[qubit] = pointer
        return uses[pointer] if pointer < len(uses) else None

    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return not self.done()

    def done(self) -> bool:
        """Whether every gate has been scheduled and marked done."""

        return self._state.count(_DONE) == len(self._state)

    def schedule(self) -> List[int]:
        """Convenience: the full schedule as a list of gate indices."""

        return list(self.order())
