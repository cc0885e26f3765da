"""Circuit: an ordered list of gates over ``num_qubits`` program qubits.

Circuits in this toolflow are always fully unrolled (Section VI of the paper):
no loops, no classical control.  The class therefore stays deliberately
simple -- an immutable-ish gate list with builder helpers, the gate counts
of Table II, a lowering pass to the trapped-ion native set, and the cached
compile front-end (:class:`~repro.ir.dag.CircuitFrontEnd`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ir.dag import CircuitFrontEnd
from repro.ir.gate import Gate


class Circuit:
    """A gate-level quantum program.

    Parameters
    ----------
    num_qubits:
        Number of program qubits.  Gates may only reference indices in
        ``[0, num_qubits)``.
    gates:
        Optional initial gate sequence.
    name:
        Optional human-readable name (used in reports and tables).
    """

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None,
                 name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        for gate in gates or ():
            self.append(gate)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def append(self, gate: Gate) -> "Circuit":
        """Append ``gate`` after validating its qubit indices."""

        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate} references qubit >= num_qubits ({self.num_qubits})"
            )
        self._gates.append(gate)
        return self

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "Circuit":
        """Convenience builder: ``circuit.add("cx", 0, 1)``."""

        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append every gate in ``gates``."""

        for gate in gates:
            self.append(gate)
        return self

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so sharing is safe)."""

        return Circuit(self.num_qubits, self._gates, name or self.name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""

        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    @property
    def num_gates(self) -> int:
        """Total gate count, including measurements."""

        return len(self._gates)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of entangling gates (the metric reported in Table II)."""

        return sum(1 for g in self._gates if g.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit gates."""

        return sum(1 for g in self._gates if g.is_single_qubit)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def lowered(self) -> "Circuit":
        """Lower to the trapped-ion native set: {1q rotations, MS-class 2q}.

        The paper treats every two-qubit gate as one Molmer-Sorensen
        interaction plus single-qubit corrections (Section VII.A, [76]).  We
        therefore rewrite SWAP as three MS-class gates and leave every other
        recognised two-qubit name in place (they are all one MS each).
        """

        gates: List[Gate] = []
        for gate in self._gates:
            if gate.is_two_qubit and gate.name.lower() == "swap":
                a, b = gate.qubits
                gates.append(Gate("cx", (a, b)))
                gates.append(Gate("cx", (b, a)))
                gates.append(Gate("cx", (a, b)))
            else:
                gates.append(gate)
        result = Circuit(self.num_qubits, name=self.name)
        # Every gate is either taken from this (already validated) circuit or
        # references the same qubits, so skip the per-append range checks.
        result._gates = gates
        return result

    # ------------------------------------------------------------------ #
    # Compile front-end
    # ------------------------------------------------------------------ #
    def front_end(self, lower_to_native: bool = False) -> CircuitFrontEnd:
        """The device-independent compile tables of this circuit, or of its
        :meth:`lowered` form, built on first use and cached on the instance.

        The cache is keyed on the gate count (like
        :func:`~repro.io.fingerprint.circuit_fingerprint`), so an
        :meth:`append` invalidates it.  A lowered front-end describes a
        lowered copy built once for it (``front_end(True).circuit``), whose
        own ``front_end()`` is the same object.
        """

        memo = self.__dict__.setdefault("_front_ends", {})
        cached = memo.get(lower_to_native)
        if cached is not None and cached[0] == len(self._gates):
            return cached[1]
        if lower_to_native:
            front = self.lowered().front_end()
        else:
            front = CircuitFrontEnd(self)
        memo[lower_to_native] = (len(self._gates), front)
        return front

    def __getstate__(self) -> dict:
        # The front-end memo is derived data: a pickled circuit (a sweep
        # chunk shipped to a worker process) travels without it.
        state = self.__dict__.copy()
        state.pop("_front_ends", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
                f"gates={self.num_gates}, twoq={self.num_two_qubit_gates})")
