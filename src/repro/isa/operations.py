"""Primitive QCCD operations as objects: the user and test view of op records.

Every toolflow reader walks a program's op records (:mod:`repro.isa.records`);
nothing on the compile, simulate or ``--check`` path imports this module.
``program.operations`` builds these objects from the records on first read
(:func:`op_from_record`), and a program given a list of them, or loaded
from JSON, converts them to records (:func:`op_record`).

========================  =====================================================
:class:`GateOp`           a single-qubit gate, two-qubit MS gate inside a trap
:class:`SwapGateOp`       a gate-based SWAP (3 MS gates) used for GS reordering
:class:`MeasureOp`        qubit measurement
:class:`SplitOp`          split one ion off a trap's chain
:class:`MoveOp`           move a split ion through one segment
:class:`JunctionCrossOp`  cross (and possibly turn at) a junction
:class:`MergeOp`          merge a travelling ion into a trap's chain
:class:`IonSwapOp`        physically exchange two adjacent ions (IS reordering)
========================  =====================================================

The class declarations are where a record's field names are written:
:data:`RECORD_FIELDS` reads them off, for the fingerprint and the JSON export.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Tuple

from repro.isa.records import (
    MS_GATES_PER_SWAP,
    OpKind,
    gate_record,
    ion_swap_record,
    junction_record,
    measure_record,
    merge_record,
    move_record,
    split_record,
    swap_gate_record,
)


@dataclass(frozen=True, slots=True)
class Operation:
    """Base class for every primitive operation.

    Construction checks the op id and dependency range here and the kind's
    field rules through its record function.
    """

    op_id: int
    dependencies: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        op_id = self.op_id
        if op_id < 0:
            raise ValueError("op_id must be non-negative")
        for dep in self.dependencies:
            if dep >= op_id:
                raise ValueError("dependencies must reference earlier operations")
        op_record(self)

    #: The operation's :class:`OpKind` (a property on :class:`GateOp`).
    kind: ClassVar[OpKind]

    @property
    def resources(self) -> Tuple[str, ...]:
        """Exclusive hardware resources the op occupies while executing:
        its trap, or (overridden) the segment or junction it crosses."""

        return (self.trap,)


@dataclass(frozen=True, slots=True)
class GateOp(Operation):
    """A laser gate executed inside one trap.

    Attributes
    ----------
    trap:
        Name of the trap executing the gate.
    ions:
        Physical ion ids involved (1 or 2).
    qubits:
        Program qubits whose state the gate acts on (mirrors ``ions``).
    name:
        Original gate name from the IR (``"cx"``, ``"rz"``, ...).
    chain_length:
        Number of ions in the trap's chain when the gate executes (annotated
        by the compiler; drives FM gate time and the ``A(N)`` error term).
    ion_distance:
        Number of ions strictly between the two gate ions (two-qubit gates
        only; drives AM/PM gate times).
    """

    trap: str = ""
    ions: Tuple[int, ...] = ()
    qubits: Tuple[int, ...] = ()
    name: str = ""
    chain_length: int = 0
    ion_distance: int = 0

    @property
    def is_two_qubit(self) -> bool:
        """Whether this is an entangling (MS) gate."""

        return len(self.ions) == 2

    @property
    def kind(self) -> OpKind:
        return OpKind.GATE_2Q if self.is_two_qubit else OpKind.GATE_1Q


@dataclass(frozen=True, slots=True)
class SwapGateOp(Operation):
    """A gate-based SWAP (three MS gates) used for GS chain reordering.

    The swap exchanges the *quantum states* of two ions in the same trap; the
    physical chain order is unchanged, but the program-qubit-to-ion binding
    recorded by the compiler flips.
    """

    trap: str = ""
    ions: Tuple[int, int] = (0, 0)
    qubits: Tuple[Optional[int], Optional[int]] = (None, None)
    chain_length: int = 0
    ion_distance: int = 0

    #: Number of MS gates one SWAP decomposes into.
    MS_GATES_PER_SWAP = MS_GATES_PER_SWAP
    kind = OpKind.SWAP_GATE


@dataclass(frozen=True, slots=True)
class MeasureOp(Operation):
    """Measurement (state detection) of one ion."""

    trap: str = ""
    ion: int = 0
    qubit: int = 0
    kind = OpKind.MEASURE


@dataclass(frozen=True, slots=True)
class SplitOp(Operation):
    """Split one ion off a trap's chain so it can be shuttled away.

    ``chain_size`` is the number of ions in the chain *before* the split; the
    heating model divides the chain's motional energy proportionally.
    """

    trap: str = ""
    ion: int = 0
    chain_size: int = 0
    side: str = "tail"
    kind = OpKind.SPLIT


@dataclass(frozen=True, slots=True)
class MoveOp(Operation):
    """Move a travelling ion through one segment."""

    ion: int = 0
    segment: str = ""
    length: int = 1
    from_node: str = ""
    to_node: str = ""
    kind = OpKind.MOVE

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.segment,)


@dataclass(frozen=True, slots=True)
class JunctionCrossOp(Operation):
    """Cross a junction (including any turn)."""

    ion: int = 0
    junction: str = ""
    junction_degree: int = 3
    kind = OpKind.JUNCTION

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.junction,)


@dataclass(frozen=True, slots=True)
class MergeOp(Operation):
    """Merge a travelling ion into a trap's chain at one end."""

    trap: str = ""
    ion: int = 0
    side: str = "tail"
    kind = OpKind.MERGE


@dataclass(frozen=True, slots=True)
class IonSwapOp(Operation):
    """Physically exchange two adjacent ions (one hop of IS reordering).

    Each hop is a split (isolating the pair), a 180-degree rotation and a
    merge (Section IV.C, [63]); ``chain_size`` is the chain size before the
    hop and drives the heating bookkeeping.
    """

    trap: str = ""
    ions: Tuple[int, int] = (0, 0)
    chain_size: int = 0
    kind = OpKind.ION_SWAP


#: ``OP_CLASSES[code]`` is the :class:`Operation` class of a kind code.
OP_CLASSES: Tuple[type, ...] = (
    GateOp, GateOp, SwapGateOp, MeasureOp,
    SplitOp, MergeOp, MoveOp, JunctionCrossOp, IonSwapOp,
)

_RECORD_FUNCTIONS = {
    GateOp: gate_record, SwapGateOp: swap_gate_record,
    MeasureOp: measure_record, SplitOp: split_record, MoveOp: move_record,
    JunctionCrossOp: junction_record, MergeOp: merge_record,
    IonSwapOp: ion_swap_record,
}

#: ``RECORD_FIELDS[cls]``: the names of the record fields after the kind
#: code of a class's ops -- ``dependencies``, then the class's own fields.
RECORD_FIELDS = {cls: tuple(item.name for item in fields(cls))[1:]
                 for cls in _RECORD_FUNCTIONS}


def op_record(op: Operation) -> tuple:
    """The op record of ``op``, after its kind's field rules."""

    cls = op.__class__
    return _RECORD_FUNCTIONS[cls](
        *[getattr(op, name) for name in RECORD_FIELDS[cls]])


def op_from_record(op_id: int, record: tuple) -> Operation:
    """The :class:`Operation` at position ``op_id`` of a record stream."""

    return OP_CLASSES[record[0]](op_id, *record[1:])
