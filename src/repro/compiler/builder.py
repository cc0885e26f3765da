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
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

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


class ProgramBuilder:
    """Accumulates op records with automatic dependency bookkeeping."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._last_for_ion: Dict[int, int] = {}
        self._last_for_trap: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    @property
    def operations(self) -> List[Operation]:
        """The emitted ops as :class:`~repro.isa.operations.Operation`
        objects, built anew on every read (for inspection)."""

        return [op_from_record(index, record)
                for index, record in enumerate(self.records)]

    def _dependencies(self, ions: Iterable[int],
                      trap: Optional[str]) -> Tuple[int, ...]:
        last_for_ion = self._last_for_ion
        deps = {
            last_for_ion[ion] for ion in ions if ion in last_for_ion
        }
        if trap is not None and trap in self._last_for_trap:
            deps.add(self._last_for_trap[trap])
        if len(deps) > 1:
            return tuple(sorted(deps))
        return tuple(deps)

    def _append(self, record: tuple, ions: Iterable[int],
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
