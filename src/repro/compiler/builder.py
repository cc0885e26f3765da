"""ProgramBuilder: appends op records and tracks dependencies.

Every emit method checks its op's fields through the kind's record function
(:mod:`repro.isa.records`) and appends the op record; no
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

The rules live in the two positional emitters, ``one_ion`` and ``two_ions``,
which take a record function and its fields (``one_ion(ion, trap,
split_record, trap, ion, chain_size, side)``); the compiler and the shuttle
and reordering passes call them directly.  An op its record function refuses
leaves the builder unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.isa.operations import Operation


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

    Besides the records, the builder keeps the last op per ion and per trap.
    The records outlive it (a program cache or a caller may hold a compiled
    program for long), so they hold no operand tuple that another object
    holds already: the compiler passes a single-qubit gate's ``ions`` as its
    one ``(ion,)`` tuple per ion, and a gate's ``qubits`` as the circuit
    gate's own tuple.
    """

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

        from repro.isa.operations import op_from_record

        return [op_from_record(index, record)
                for index, record in enumerate(self.records)]

    # ------------------------------------------------------------------ #
    # Positional emitters: the dependency rules
    # ------------------------------------------------------------------ #
    def one_ion(self, ion: int, trap: Optional[str],
                make: Callable[..., tuple], *fields) -> None:
        """Emit ``make(dependencies, *fields)``, an op on ``ion`` inside
        ``trap`` (``None``: an ion in transit, which touches no trap)."""

        records = self.records
        op_id = len(records)
        trap_dep = None if trap is None else self._last_for_trap.get(trap)
        records.append(make(_sorted_ids(self._last_for_ion.get(ion), trap_dep),
                            *fields))
        self._last_for_ion[ion] = op_id
        if trap is not None:
            self._last_for_trap[trap] = op_id

    def two_ions(self, ion_a: int, ion_b: int, trap: str,
                 make: Callable[..., tuple], *fields) -> None:
        """Emit ``make(dependencies, *fields)``, an op on ``ion_a`` and
        ``ion_b`` inside ``trap``."""

        records = self.records
        op_id = len(records)
        last_for_ion = self._last_for_ion
        records.append(make(
            _sorted_ids3(last_for_ion.get(ion_a), last_for_ion.get(ion_b),
                         self._last_for_trap.get(trap)),
            *fields))
        last_for_ion[ion_a] = last_for_ion[ion_b] = op_id
        self._last_for_trap[trap] = op_id
