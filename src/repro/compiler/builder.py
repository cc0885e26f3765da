"""ProgramBuilder: appends op records and tracks dependencies.

Every emit method checks its op's fields through the kind's record function
(:mod:`repro.isa.operations`) and appends the op record; no
:class:`~repro.isa.operations.Operation` object is built.

Dependencies emitted per operation are

* the last operation touching each involved ion (data/transport order), and
* the last operation touching each involved trap (chain-structure and serial
  gate execution order within a trap; the paper notes gates in a single trap
  execute serially).

Shuttle moves through segments and junctions involve no trap, so independent
shuttles remain free to overlap; the simulator adds segment/junction
exclusivity on top of these dependencies.

An op touches at most two ions and one trap, so its dependencies are at most
three op ids; they are deduplicated and sorted by comparing them directly
(:func:`_sorted_ids`), without building a set per op.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.operations import (
    Operation,
    gate_record,
    ion_swap_record,
    junction_record,
    measure_record,
    merge_record,
    move_record,
    op_from_record,
    split_record,
    swap_gate_record,
)


def _sorted_ids(a: Optional[int], b: Optional[int]) -> Tuple[int, ...]:
    """The distinct op ids among ``a`` and ``b`` (``None``: absent), sorted."""

    if a is None:
        return () if b is None else (b,)
    if b is None or b == a:
        return (a,)
    return (a, b) if a < b else (b, a)


def _sorted_ids3(a: Optional[int], b: Optional[int],
                 c: Optional[int]) -> Tuple[int, ...]:
    """The distinct op ids among ``a``, ``b`` and ``c``, sorted."""

    if c is None or c == a or c == b:
        return _sorted_ids(a, b)
    if a is None or a == b:
        return _sorted_ids(b, c)
    if b is None:
        return _sorted_ids(a, c)
    if a > b:
        a, b = b, a
    if c < a:
        return (c, a, b)
    return (a, c, b) if c < b else (a, b, c)


class ProgramBuilder:
    """Accumulates op records with automatic dependency bookkeeping.

    Besides the records, the builder keeps the last op per ion and per trap
    and one ``(ion,)`` tuple per ion (:meth:`single`).  The records outlive
    it (a program cache or a caller may hold a compiled program for long),
    so they hold no operand tuple that another object holds already: a
    single-qubit gate's ``ions`` is that kept tuple, and the compiler
    passes a gate's ``qubits`` as the circuit gate's own tuple.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._last_for_ion: Dict[int, int] = {}
        self._last_for_trap: Dict[str, int] = {}
        self._singles: Dict[int, Tuple[int]] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    @property
    def operations(self) -> List[Operation]:
        """The emitted ops as :class:`~repro.isa.operations.Operation`
        objects, built anew on every read (for inspection)."""

        return [op_from_record(index, record)
                for index, record in enumerate(self.records)]

    def _dependencies(self, ions: Tuple[int, ...],
                      trap: Optional[str]) -> Tuple[int, ...]:
        last_for_ion = self._last_for_ion
        trap_dep = None if trap is None else self._last_for_trap.get(trap)
        if len(ions) == 1:
            return _sorted_ids(last_for_ion.get(ions[0]), trap_dep)
        ion_a, ion_b = ions
        return _sorted_ids3(last_for_ion.get(ion_a), last_for_ion.get(ion_b),
                            trap_dep)

    def _append(self, record: tuple, ions: Tuple[int, ...],
                trap: Optional[str]) -> None:
        op_id = len(self.records)
        self.records.append(record)
        for ion in ions:
            self._last_for_ion[ion] = op_id
        if trap is not None:
            self._last_for_trap[trap] = op_id

    @property
    def next_id(self) -> int:
        """The op_id the next emitted operation will receive."""

        return len(self.records)

    def single(self, ion: int) -> Tuple[int]:
        """The one ``(ion,)`` tuple of ``ion``, for the records to share."""

        ions = self._singles.get(ion)
        if ions is None:
            ions = self._singles[ion] = (ion,)
        return ions

    # ------------------------------------------------------------------ #
    # Emission helpers, one per primitive
    # ------------------------------------------------------------------ #
    def gate(self, *, trap: str, ions: Tuple[int, ...], qubits: Tuple[int, ...],
             name: str, chain_length: int, ion_distance: int = 0) -> None:
        """Emit a single- or two-qubit gate inside ``trap``."""

        self._append(gate_record(self._dependencies(ions, trap), trap, ions,
                                 qubits, name, chain_length, ion_distance),
                     ions, trap)

    def swap_gate(self, *, trap: str, ions: Tuple[int, int],
                  qubits: Tuple[Optional[int], Optional[int]],
                  chain_length: int, ion_distance: int) -> None:
        """Emit a gate-based SWAP (GS reordering)."""

        self._append(swap_gate_record(self._dependencies(ions, trap), trap,
                                      ions, qubits, chain_length, ion_distance),
                     ions, trap)

    def measure(self, *, trap: str, ion: int, qubit: int) -> None:
        """Emit a measurement."""

        ions = (ion,)
        self._append(measure_record(self._dependencies(ions, trap), trap, ion,
                                    qubit),
                     ions, trap)

    def split(self, *, trap: str, ion: int, chain_size: int, side: str) -> None:
        """Emit a split of ``ion`` off ``trap``'s chain."""

        ions = (ion,)
        self._append(split_record(self._dependencies(ions, trap), trap, ion,
                                  chain_size, side),
                     ions, trap)

    def move(self, *, ion: int, segment: str, length: int,
             from_node: str, to_node: str) -> None:
        """Emit a move through one segment."""

        ions = (ion,)
        self._append(move_record(self._dependencies(ions, None), ion, segment,
                                 length, from_node, to_node),
                     ions, None)

    def cross_junction(self, *, ion: int, junction: str, degree: int) -> None:
        """Emit a junction crossing."""

        ions = (ion,)
        self._append(junction_record(self._dependencies(ions, None), ion,
                                     junction, degree),
                     ions, None)

    def merge(self, *, trap: str, ion: int, side: str) -> None:
        """Emit a merge of a travelling ion into ``trap``."""

        ions = (ion,)
        self._append(merge_record(self._dependencies(ions, trap), trap, ion,
                                  side),
                     ions, trap)

    def ion_swap(self, *, trap: str, ions: Tuple[int, int], chain_size: int) -> None:
        """Emit a physical swap of two adjacent ions (one IS hop)."""

        self._append(ion_swap_record(self._dependencies(ions, trap), trap, ions,
                                     chain_size),
                     ions, trap)
