"""Primitive QCCD operations and the op records a compiled program stores.

Every operation carries:

* ``op_id`` -- its index in the compiled program;
* ``dependencies`` -- op ids that must complete before it may start (data
  dependencies on ions plus the per-trap chain-structure order the compiler
  assumed);
* enough *annotations* from compile time (chain length, ion separation, chain
  size before a split) for the simulator to evaluate the performance and noise
  models without re-deriving chain contents.

Operation classes:

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

**Op records.**  A compiled program does not store these objects.  It stores
one plain tuple per operation, its *op record*::

    (kind code, dependencies, *fields)

with the fields in the declaration order of the op's class and the op id
implied by the record's position.  The kind code is one of the integers
:data:`GATE_1Q` .. :data:`ION_SWAP` (``KINDS[code]`` is its
:class:`OpKind`), which the simulator's lowering also uses.  The compiler
emits records (:mod:`repro.compiler.builder`), the lowering and the
structural checks read them, and :class:`Operation` objects are built from
them (:func:`op_from_record`) only when ``program.operations`` is read.  A
tuple costs no validated ``__init__`` per op, and once CPython's cyclic
collector has found everything in a tuple untracked (ints, strings and
such tuples) it stops tracking the tuple, so full collections stop walking
a program's ops.

Each kind's field rules live in one *record function* (:func:`gate_record`
.. :func:`ion_swap_record`) that checks the fields and returns the record.
The builder calls it for every op it emits; an :class:`Operation` calls it
(through :func:`op_record`) when it is constructed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple


class OpKind(enum.Enum):
    """Classification used for counting and for the compute/communication
    time breakdown (Figure 6b)."""

    GATE_1Q = "gate_1q"
    GATE_2Q = "gate_2q"
    SWAP_GATE = "swap_gate"
    MEASURE = "measure"
    SPLIT = "split"
    MOVE = "move"
    JUNCTION = "junction"
    MERGE = "merge"
    ION_SWAP = "ion_swap"

    @property
    def is_communication(self) -> bool:
        """Whether the op exists only to move quantum state between traps.

        Gate-based swaps and physical ion swaps are communication overhead:
        they are inserted by the compiler for chain reordering, not requested
        by the application.
        """

        return self in (OpKind.SPLIT, OpKind.MOVE, OpKind.JUNCTION, OpKind.MERGE,
                        OpKind.ION_SWAP, OpKind.SWAP_GATE)


#: Integer kind codes, the first field of every op record (cheaper than
#: enum identity in the hot loops).
GATE_1Q, GATE_2Q, SWAP_GATE, MEASURE, SPLIT, MERGE, MOVE, JUNCTION, ION_SWAP = range(9)

#: ``KINDS[code]`` is the :class:`OpKind` of a kind code.
KINDS: Tuple[OpKind, ...] = (
    OpKind.GATE_1Q, OpKind.GATE_2Q, OpKind.SWAP_GATE, OpKind.MEASURE,
    OpKind.SPLIT, OpKind.MERGE, OpKind.MOVE, OpKind.JUNCTION, OpKind.ION_SWAP,
)

#: ``CODES[kind]`` is the kind code of an :class:`OpKind`.
CODES: Dict[OpKind, int] = {kind: code for code, kind in enumerate(KINDS)}

#: ``IS_COMM[code]``: whether the kind is communication overhead
#: (:attr:`OpKind.is_communication`).
IS_COMM: Tuple[bool, ...] = tuple(kind.is_communication for kind in KINDS)


# --------------------------------------------------------------------------- #
# Record functions: each kind's field rules, once
# --------------------------------------------------------------------------- #
def gate_record(dependencies: Tuple[int, ...], trap: str, ions: Tuple[int, ...],
                qubits: Tuple[int, ...], name: str, chain_length: int,
                ion_distance: int) -> tuple:
    """The record of a :class:`GateOp` (kind code from its arity)."""

    if not trap:
        raise ValueError("GateOp needs a trap")
    arity = len(ions)
    if arity != 1 and arity != 2:
        raise ValueError("GateOp acts on one or two ions")
    if arity != len(qubits):
        raise ValueError("ions and qubits must have the same arity")
    if chain_length < arity:
        raise ValueError("chain_length smaller than the number of gate ions")
    if arity == 1:
        return (GATE_1Q, dependencies, trap, ions, qubits, name, chain_length,
                ion_distance)
    if ion_distance > chain_length - 2:
        raise ValueError("ion_distance impossible for the annotated chain length")
    return (GATE_2Q, dependencies, trap, ions, qubits, name, chain_length,
            ion_distance)


def swap_gate_record(dependencies: Tuple[int, ...], trap: str,
                     ions: Tuple[int, int],
                     qubits: Tuple[Optional[int], Optional[int]],
                     chain_length: int, ion_distance: int) -> tuple:
    """The record of a :class:`SwapGateOp`."""

    if not trap:
        raise ValueError("SwapGateOp needs a trap")
    if ions[0] == ions[1]:
        raise ValueError("SwapGateOp needs two distinct ions")
    if chain_length < 2:
        raise ValueError("chain_length must be at least 2")
    if ion_distance > chain_length - 2:
        raise ValueError("ion_distance impossible for the annotated chain length")
    return (SWAP_GATE, dependencies, trap, ions, qubits, chain_length,
            ion_distance)


def measure_record(dependencies: Tuple[int, ...], trap: str, ion: int,
                   qubit: int) -> tuple:
    """The record of a :class:`MeasureOp`."""

    if not trap:
        raise ValueError("MeasureOp needs a trap")
    return (MEASURE, dependencies, trap, ion, qubit)


def split_record(dependencies: Tuple[int, ...], trap: str, ion: int,
                 chain_size: int, side: str) -> tuple:
    """The record of a :class:`SplitOp`."""

    if not trap:
        raise ValueError("SplitOp needs a trap")
    if chain_size < 1:
        raise ValueError("chain_size must be at least 1")
    if side != "head" and side != "tail":
        raise ValueError("side must be 'head' or 'tail'")
    return (SPLIT, dependencies, trap, ion, chain_size, side)


def move_record(dependencies: Tuple[int, ...], ion: int, segment: str,
                length: int, from_node: str, to_node: str) -> tuple:
    """The record of a :class:`MoveOp`."""

    if not segment:
        raise ValueError("MoveOp needs a segment")
    if length < 1:
        raise ValueError("length must be at least 1")
    return (MOVE, dependencies, ion, segment, length, from_node, to_node)


def junction_record(dependencies: Tuple[int, ...], ion: int, junction: str,
                    junction_degree: int) -> tuple:
    """The record of a :class:`JunctionCrossOp`."""

    if not junction:
        raise ValueError("JunctionCrossOp needs a junction")
    if junction_degree < 2:
        raise ValueError("junction_degree must be at least 2")
    return (JUNCTION, dependencies, ion, junction, junction_degree)


def merge_record(dependencies: Tuple[int, ...], trap: str, ion: int,
                 side: str) -> tuple:
    """The record of a :class:`MergeOp`."""

    if not trap:
        raise ValueError("MergeOp needs a trap")
    if side != "head" and side != "tail":
        raise ValueError("side must be 'head' or 'tail'")
    return (MERGE, dependencies, trap, ion, side)


def ion_swap_record(dependencies: Tuple[int, ...], trap: str,
                    ions: Tuple[int, int], chain_size: int) -> tuple:
    """The record of an :class:`IonSwapOp`."""

    if not trap:
        raise ValueError("IonSwapOp needs a trap")
    if ions[0] == ions[1]:
        raise ValueError("IonSwapOp needs two distinct ions")
    if chain_size < 2:
        raise ValueError("chain_size must be at least 2")
    return (ION_SWAP, dependencies, trap, ions, chain_size)


def record_ions(record: tuple) -> Tuple[int, ...]:
    """The ion ids an op record touches."""

    code = record[0]
    if code == MOVE or code == JUNCTION:
        return (record[2],)
    if code == MEASURE or code == SPLIT or code == MERGE:
        return (record[3],)
    return record[3]


# --------------------------------------------------------------------------- #
# Operation objects
# --------------------------------------------------------------------------- #
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

    @property
    def kind(self) -> OpKind:
        """The operation's :class:`OpKind`; overridden by subclasses."""

        raise NotImplementedError

    @property
    def resources(self) -> Tuple[str, ...]:
        """Exclusive hardware resources the op occupies while executing."""

        raise NotImplementedError


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

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


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
    MS_GATES_PER_SWAP = 3

    @property
    def kind(self) -> OpKind:
        return OpKind.SWAP_GATE

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


@dataclass(frozen=True, slots=True)
class MeasureOp(Operation):
    """Measurement (state detection) of one ion."""

    trap: str = ""
    ion: int = 0
    qubit: int = 0

    @property
    def kind(self) -> OpKind:
        return OpKind.MEASURE

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


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

    @property
    def kind(self) -> OpKind:
        return OpKind.SPLIT

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


@dataclass(frozen=True, slots=True)
class MoveOp(Operation):
    """Move a travelling ion through one segment."""

    ion: int = 0
    segment: str = ""
    length: int = 1
    from_node: str = ""
    to_node: str = ""

    @property
    def kind(self) -> OpKind:
        return OpKind.MOVE

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.segment,)


@dataclass(frozen=True, slots=True)
class JunctionCrossOp(Operation):
    """Cross a junction (including any turn)."""

    ion: int = 0
    junction: str = ""
    junction_degree: int = 3

    @property
    def kind(self) -> OpKind:
        return OpKind.JUNCTION

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.junction,)


@dataclass(frozen=True, slots=True)
class MergeOp(Operation):
    """Merge a travelling ion into a trap's chain at one end."""

    trap: str = ""
    ion: int = 0
    side: str = "tail"

    @property
    def kind(self) -> OpKind:
        return OpKind.MERGE

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


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

    @property
    def kind(self) -> OpKind:
        return OpKind.ION_SWAP

    @property
    def resources(self) -> Tuple[str, ...]:
        return (self.trap,)


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

#: Record field names per class: ``dependencies``, then the class's fields.
_RECORD_FIELDS = {cls: tuple(item.name for item in fields(cls))[1:]
                  for cls in _RECORD_FUNCTIONS}


def op_record(op: Operation) -> tuple:
    """The op record of ``op``, after its kind's field rules."""

    cls = op.__class__
    return _RECORD_FUNCTIONS[cls](
        *[getattr(op, name) for name in _RECORD_FIELDS[cls]])


def op_from_record(op_id: int, record: tuple) -> Operation:
    """The :class:`Operation` at position ``op_id`` of a record stream."""

    return OP_CLASSES[record[0]](op_id, *record[1:])
