"""Gate: the atomic unit of the circuit IR.

A gate records its name, the qubits it acts on and optional real parameters
(rotation angles).  The simulator only distinguishes three *kinds* of gates
(single-qubit, two-qubit, measurement), but keeping the original names allows
round-tripping through OpenQASM and makes debugging output readable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple


class GateKind(enum.Enum):
    """Coarse classification used by the compiler and simulator."""

    SINGLE_QUBIT = "single_qubit"
    TWO_QUBIT = "two_qubit"
    MEASUREMENT = "measurement"
    BARRIER = "barrier"


#: Gate names recognised as single-qubit operations.
SINGLE_QUBIT_NAMES = frozenset(
    {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3", "id", "sx"}
)

#: Gate names recognised as two-qubit operations.  All of these lower to one
#: Molmer-Sorensen (MS) interaction plus single-qubit rotations on trapped-ion
#: hardware, so the simulator treats them identically.
TWO_QUBIT_NAMES = frozenset({"cx", "cnot", "cz", "ms", "xx", "rxx", "rzz", "swap", "cp", "cu1", "crz"})

#: Names recognised as measurement.
MEASUREMENT_NAMES = frozenset({"measure", "m"})


@lru_cache(maxsize=None)
def classify(name: str) -> GateKind:
    """Return the :class:`GateKind` for a gate ``name``.

    Raises ``ValueError`` for unknown names so that typos surface early
    instead of silently producing a zero-duration operation.  The result is
    memoised: circuits use a handful of distinct names but the compiler asks
    for classifications millions of times across a sweep.
    """

    lowered = name.lower()
    if lowered in SINGLE_QUBIT_NAMES:
        return GateKind.SINGLE_QUBIT
    if lowered in TWO_QUBIT_NAMES:
        return GateKind.TWO_QUBIT
    if lowered in MEASUREMENT_NAMES:
        return GateKind.MEASUREMENT
    if lowered == "barrier":
        return GateKind.BARRIER
    raise ValueError(f"unknown gate name: {name!r}")


@dataclass(frozen=True)
class Gate:
    """A single gate in the circuit IR.

    Parameters
    ----------
    name:
        Gate name, e.g. ``"h"``, ``"cx"``, ``"rz"``, ``"measure"``.
    qubits:
        Program-qubit indices the gate acts on.  One index for
        single-qubit gates and measurements, two for entangling gates.
    params:
        Optional real parameters (rotation angles, in radians).

    Both are stored as tuples, whatever sequence is passed, so a gate is
    hashable and compiled op records can share its ``qubits``.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.qubits.__class__ is not tuple:
            object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.params.__class__ is not tuple:
            object.__setattr__(self, "params", tuple(self.params))
        kind = classify(self.name)
        expected = 2 if kind is GateKind.TWO_QUBIT else 1
        if kind is GateKind.BARRIER:
            if not self.qubits:
                raise ValueError("barrier must name at least one qubit")
        elif len(self.qubits) != expected:
            raise ValueError(
                f"gate {self.name!r} expects {expected} qubit(s), got {len(self.qubits)}"
            )
        if kind is GateKind.TWO_QUBIT and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"two-qubit gate {self.name!r} needs distinct qubits")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")

    @property
    def kind(self) -> GateKind:
        """The coarse classification of this gate."""

        return classify(self.name)

    @property
    def is_two_qubit(self) -> bool:
        """``True`` when the gate entangles two qubits."""

        return self.kind is GateKind.TWO_QUBIT

    @property
    def is_single_qubit(self) -> bool:
        """``True`` for single-qubit rotations/Cliffords."""

        return self.kind is GateKind.SINGLE_QUBIT

    @property
    def is_measurement(self) -> bool:
        """``True`` for measurement operations."""

        return self.kind is GateKind.MEASUREMENT

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            pars = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({pars}) q[{args}]"
        return f"{self.name} q[{args}]"
