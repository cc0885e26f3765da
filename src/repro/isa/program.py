"""QCCDProgram: the compiled executable.

A program is the output of :func:`repro.compiler.compile_circuit`: an ordered
operation stream with explicit dependencies, plus the initial placement of
program qubits onto physical ions and traps.  The order is a valid execution
order (every dependency points backwards); the simulator may overlap
operations that have no dependency and no resource conflict.

The stream is stored as op records (one plain tuple per op, see
:mod:`repro.isa.operations`) behind an :class:`OpSequence`.  The lowering,
the structural checks and the kind counters (``len``, :meth:`count`,
:meth:`op_counts`, :attr:`num_shuttles`, ...) read the records;
``program.operations`` builds :class:`~repro.isa.operations.Operation`
objects on its first read and returns the same objects afterwards.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Optional, Tuple

from repro.isa.operations import (
    CODES,
    IS_COMM,
    KINDS,
    OpKind,
    Operation,
    op_from_record,
    op_record,
)


@dataclass(frozen=True)
class InitialPlacement:
    """Where everything starts.

    Attributes
    ----------
    qubit_to_ion:
        Program qubit index -> physical ion id.
    ion_to_trap:
        Physical ion id -> trap name holding it at time zero.
    trap_chains:
        Trap name -> tuple of ion ids in chain order (head to tail).
    """

    qubit_to_ion: Dict[int, int]
    ion_to_trap: Dict[int, str]
    trap_chains: Dict[str, Tuple[int, ...]]

    def __post_init__(self) -> None:
        ions_in_chains = [ion for chain in self.trap_chains.values() for ion in chain]
        if len(ions_in_chains) != len(set(ions_in_chains)):
            raise ValueError("an ion appears in more than one trap chain")
        chain_set = set(ions_in_chains)
        for ion, trap in self.ion_to_trap.items():
            if ion not in chain_set:
                raise ValueError(f"ion {ion} has a trap but no chain position")
            if ion not in self.trap_chains.get(trap, ()):
                raise ValueError(f"ion {ion} not in the chain of its trap {trap}")
        for qubit, ion in self.qubit_to_ion.items():
            if ion not in self.ion_to_trap:
                raise ValueError(f"qubit {qubit} mapped to unplaced ion {ion}")

    def trap_of_qubit(self, qubit: int) -> str:
        """Trap initially holding ``qubit``."""

        return self.ion_to_trap[self.qubit_to_ion[qubit]]

    def occupancy(self) -> Dict[str, int]:
        """Initial number of ions per trap."""

        return {trap: len(chain) for trap, chain in self.trap_chains.items()}


class OpSequence(Sequence):
    """A program's operations: a read-only sequence over its op records.

    ``len`` and the kind histogram read the records.  Indexing or iterating
    builds the :class:`~repro.isa.operations.Operation` objects once, on the
    first such read, and every later read returns the same objects.
    """

    __slots__ = ("records", "_ops", "_kind_counts")

    def __init__(self, records: Tuple[tuple, ...]) -> None:
        self.records = records
        self._ops: Optional[Tuple[Operation, ...]] = None
        self._kind_counts: Optional[Counter] = None

    def _materialised(self) -> Tuple[Operation, ...]:
        ops = self._ops
        if ops is None:
            ops = self._ops = tuple(op_from_record(index, record)
                                    for index, record in enumerate(self.records))
        return ops

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self._materialised()[index]

    def __iter__(self):
        return iter(self._materialised())

    def __eq__(self, other) -> bool:
        if isinstance(other, OpSequence):
            return self.records == other.records
        return NotImplemented

    def kind_counts(self) -> Counter:
        """Ops per kind code in first-seen order, counted on first call.

        The returned counter is shared; do not modify it.
        """

        counts = self._kind_counts
        if counts is None:
            counts = self._kind_counts = Counter(map(itemgetter(0), self.records))
        return counts


@dataclass
class QCCDProgram:
    """A compiled QCCD executable.

    ``operations`` is either an :class:`OpSequence` (the compiler's route,
    also what :func:`dataclasses.replace` passes on) or a list of
    :class:`~repro.isa.operations.Operation` objects, whose ids must be dense
    and which are converted to records once.  The program always holds an
    :class:`OpSequence`.
    """

    operations: Sequence[Operation]
    placement: InitialPlacement
    circuit_name: str = "circuit"
    device_name: str = "device"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        operations = self.operations
        if isinstance(operations, OpSequence):
            return
        for index, op in enumerate(operations):
            if op.op_id != index:
                raise ValueError(
                    f"operation at position {index} has op_id {op.op_id}; ids must be dense"
                )
        self.operations = OpSequence(tuple(op_record(op) for op in operations))

    @property
    def records(self) -> Tuple[tuple, ...]:
        """The op records, one per operation in program order."""

        return self.operations.records

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __getitem__(self, index: int) -> Operation:
        return self.operations[index]

    def op_counts(self) -> Dict[OpKind, int]:
        """Histogram of operation kinds, in first-seen order."""

        return {KINDS[code]: count
                for code, count in self.operations.kind_counts().items()}

    def count(self, kind: OpKind) -> int:
        """Number of operations of a given kind."""

        return self.operations.kind_counts()[CODES[kind]]

    @property
    def num_two_qubit_gates(self) -> int:
        """Application-level entangling gates (excludes reordering swaps)."""

        return self.count(OpKind.GATE_2Q)

    @property
    def num_shuttles(self) -> int:
        """Number of trap-to-trap ion shuttles (counted as splits that leave a
        trap toward another trap, i.e. every SplitOp)."""

        return self.count(OpKind.SPLIT)

    @property
    def num_communication_ops(self) -> int:
        """Number of operations that exist purely for communication."""

        return sum(count for code, count
                   in self.operations.kind_counts().items() if IS_COMM[code])

    def communication_summary(self) -> Dict[str, int]:
        """Compact summary used by reports and the regression tests."""

        counts = self.op_counts()
        return {
            "splits": counts.get(OpKind.SPLIT, 0),
            "moves": counts.get(OpKind.MOVE, 0),
            "merges": counts.get(OpKind.MERGE, 0),
            "junction_crossings": counts.get(OpKind.JUNCTION, 0),
            "swap_gates": counts.get(OpKind.SWAP_GATE, 0),
            "ion_swaps": counts.get(OpKind.ION_SWAP, 0),
        }

    def validate(self) -> None:
        """Structural sanity checks used by tests and by the simulator.

        Thin wrapper over :func:`repro.analyze.verifier.quick_validate` --
        the cheap structural subset of the static verifier (placement
        consistency, referenced-ion existence, dependency ranges) that every
        compile pays for.  The full symbolic replay lives behind
        :func:`repro.analyze.verify_program` / ``repro check``; this method
        stays the one entry point so there is a single source of truth for
        program legality.
        """

        from repro.analyze.verifier import quick_validate

        quick_validate(self).raise_if_errors(ValueError)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"QCCDProgram({self.circuit_name!r} on {self.device_name!r}, "
                f"{len(self.operations)} ops)")
