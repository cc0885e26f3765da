"""Op records: the one representation of a compiled program's operations.

A compiled program stores one plain tuple per operation, its *op record*::

    (kind code, dependencies, *fields)

with the fields in the declaration order of the op's class in
:mod:`repro.isa.operations` and the op id implied by the record's
position.  ``dependencies`` are the op ids that must complete first (data
dependencies on ions plus the per-trap chain order the compiler assumed);
the fields carry the compile-time annotations (chain length, ion
separation, chain size before a split) the performance and noise models
read.  The kind code is one of :data:`GATE_1Q` .. :data:`ION_SWAP`
(``KINDS[code]`` is its :class:`OpKind`).  The compiler emits records; the
lowering, the verifier, the race detector, the fingerprint and the JSON
export read them, dispatching on the kind code.  A tuple costs no validated
``__init__`` per op, and once CPython's cyclic collector has found
everything in a tuple untracked it stops tracking the tuple, so full
collections stop walking a program's ops.

Each kind's field rules live in one *record function* (:func:`gate_record`
.. :func:`ion_swap_record`), which the builder calls for every op it emits
and an :class:`~repro.isa.operations.Operation` when it is constructed.
"""

from __future__ import annotations

import enum
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

#: Number of MS gates one gate-based SWAP decomposes into.
MS_GATES_PER_SWAP = 3


# --------------------------------------------------------------------------- #
# Record functions: each kind's field rules, once
# --------------------------------------------------------------------------- #
def gate_record(dependencies: Tuple[int, ...], trap: str, ions: Tuple[int, ...],
                qubits: Tuple[int, ...], name: str, chain_length: int,
                ion_distance: int) -> tuple:
    """The record of a gate (kind code from its arity)."""

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
    """The record of a gate-based SWAP."""

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
    """The record of a measurement."""

    if not trap:
        raise ValueError("MeasureOp needs a trap")
    return (MEASURE, dependencies, trap, ion, qubit)


def split_record(dependencies: Tuple[int, ...], trap: str, ion: int,
                 chain_size: int, side: str) -> tuple:
    """The record of a split."""

    if not trap:
        raise ValueError("SplitOp needs a trap")
    if chain_size < 1:
        raise ValueError("chain_size must be at least 1")
    if side != "head" and side != "tail":
        raise ValueError("side must be 'head' or 'tail'")
    return (SPLIT, dependencies, trap, ion, chain_size, side)


def move_record(dependencies: Tuple[int, ...], ion: int, segment: str,
                length: int, from_node: str, to_node: str) -> tuple:
    """The record of a segment move."""

    if not segment:
        raise ValueError("MoveOp needs a segment")
    if length < 1:
        raise ValueError("length must be at least 1")
    return (MOVE, dependencies, ion, segment, length, from_node, to_node)


def junction_record(dependencies: Tuple[int, ...], ion: int, junction: str,
                    junction_degree: int) -> tuple:
    """The record of a junction crossing."""

    if not junction:
        raise ValueError("JunctionCrossOp needs a junction")
    if junction_degree < 2:
        raise ValueError("junction_degree must be at least 2")
    return (JUNCTION, dependencies, ion, junction, junction_degree)


def merge_record(dependencies: Tuple[int, ...], trap: str, ion: int,
                 side: str) -> tuple:
    """The record of a merge."""

    if not trap:
        raise ValueError("MergeOp needs a trap")
    if side != "head" and side != "tail":
        raise ValueError("side must be 'head' or 'tail'")
    return (MERGE, dependencies, trap, ion, side)


def ion_swap_record(dependencies: Tuple[int, ...], trap: str,
                    ions: Tuple[int, int], chain_size: int) -> tuple:
    """The record of a physical ion swap."""

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
