"""One lowering pass: a compiled program as flat parallel arrays.

The simulator (:mod:`repro.sim.batch`), the race detector
(:mod:`repro.analyze.races`) and the program verifier
(:mod:`repro.analyze.verifier`) all read a compiled
:class:`~repro.isa.program.QCCDProgram` through the same
:class:`LoweredProgram`, built by a single pass over ``program.operations``
and cached on the program (:func:`lower`).  Per operation ``i`` it holds:

* ``codes[i]`` -- an integer kind code (index into :data:`KINDS`);
* ``resources[i]`` -- the interned id of the one exclusive resource (trap,
  segment or junction) the op claims; ``resource_names[rid]`` names it;
* ``preds[i]`` -- the **merged predecessors**: the op's dependencies plus,
  for its resource, the previous op in program order claiming it.  An op
  waits on exactly these, so a timeline walk is
  ``finish[i] = max(finish[p] for p in preds[i]) + duration[i]``.  Entries
  outside ``[0, i)`` are dropped (a valid program has none); a single
  predecessor is stored as a bare int, anything else as a sorted tuple;
* ``slots[i]`` -- the index of the op's duration key in ``slot_keys``: the
  kind code plus whatever geometry its duration depends on (ion distance
  and chain length for MS gates, segment length, junction degree).

The same pass builds the program-order schedules of the noise models and
the busy-time accounting:

* ``fid_items`` -- one entry per fidelity-bearing op: :data:`FID_1Q` or
  :data:`FID_MEASURE` for the constant-fidelity kinds, else an
  ``(op index, slot, MS repetitions)`` tuple for each two-qubit/SWAP gate;
* ``heat_items`` -- one entry per op that reads or moves motional energy:
  the bare trap name for a two-qubit/SWAP gate (a snapshot of its chain's
  energy), else a tuple tagged :data:`H_SPLIT` .. :data:`H_ION_SWAP`;
* ``busy_ops[name]`` -- ``(gate op ids, communication op ids)`` claiming
  the named resource, in program order (the per-trap busy-time
  accounting);
* ``op_counts`` (in first-seen kind order) and ``num_shuttles``.

:meth:`LoweredProgram.durations` prices the duration vector of one
``(gate implementation, physical model)`` pair from the slot keys.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MeasureOp,
    MergeOp,
    MoveOp,
    OpKind,
    SplitOp,
    SwapGateOp,
)
from repro.isa.program import QCCDProgram
from repro.models.gate_times import gate_time

#: Integer kind codes (cheaper than enum identity in the hot loops).
GATE_1Q, GATE_2Q, SWAP_GATE, MEASURE, SPLIT, MERGE, MOVE, JUNCTION, ION_SWAP = range(9)

#: ``KINDS[code]`` is the :class:`OpKind` of a kind code.
KINDS: Tuple[OpKind, ...] = (
    OpKind.GATE_1Q, OpKind.GATE_2Q, OpKind.SWAP_GATE, OpKind.MEASURE,
    OpKind.SPLIT, OpKind.MERGE, OpKind.MOVE, OpKind.JUNCTION, OpKind.ION_SWAP,
)

#: ``IS_COMM[code]``: whether the kind is communication overhead
#: (:attr:`OpKind.is_communication`).
IS_COMM: Tuple[bool, ...] = tuple(kind.is_communication for kind in KINDS)

#: Fidelity-schedule sentinels for ops whose fidelity is a model constant.
FID_1Q = -1
FID_MEASURE = -2

#: Heating-schedule tags of the energy-moving ops.
H_SPLIT, H_MERGE, H_MOVE, H_JUNCTION, H_ION_SWAP = range(5)

MS_PER_SWAP = SwapGateOp.MS_GATES_PER_SWAP

#: Duration slots shared by every op of a constant-duration kind; keys of the
#: geometry-dependent kinds are interned after these.
_SLOT_1Q, _SLOT_MEASURE, _SLOT_SPLIT, _SLOT_MERGE, _SLOT_ION_SWAP = range(5)
_CONSTANT_KEYS = ((GATE_1Q,), (MEASURE,), (SPLIT,), (MERGE,), (ION_SWAP,))

Predecessors = Union[int, Tuple[int, ...]]


def _merge(deps: Tuple[int, ...], prev: int, index: int) -> Predecessors:
    """Merged predecessors of op ``index`` (general case; see module doc)."""

    preds = {dep for dep in deps if 0 <= dep < index}
    if prev >= 0:
        preds.add(prev)
    if len(preds) == 1:
        return preds.pop()
    return tuple(sorted(preds))


class LoweredProgram:
    """Struct-of-arrays view of one compiled program (see the module doc)."""

    __slots__ = ("operations", "codes", "resources", "resource_names", "preds",
                 "slots", "slot_keys", "fid_items", "heat_items", "busy_ops",
                 "op_counts", "num_shuttles")

    def __init__(self, operations: Sequence) -> None:
        codes: List[int] = []
        resources: List[int] = []
        preds: List[Predecessors] = []
        slots: List[int] = []
        fid_items: List[object] = []
        heat_items: List[object] = []
        slot_of: Dict[Tuple, int] = {key: slot for slot, key
                                     in enumerate(_CONSTANT_KEYS)}
        rid_of: Dict[str, int] = {}
        last_user: List[int] = []
        busy_ops: Dict[str, Tuple[List[int], List[int]]] = {}
        fid_append = fid_items.append
        heat_append = heat_items.append
        is_comm = IS_COMM

        for index, op in enumerate(operations):
            cls = op.__class__
            if cls is GateOp:
                resource = op.trap
                if len(op.ions) == 2:
                    code = GATE_2Q
                    key = (GATE_2Q, op.ion_distance, op.chain_length)
                    slot = slot_of.get(key)
                    if slot is None:
                        slot = slot_of[key] = len(slot_of)
                    fid_append((index, slot, 1))
                    heat_append(resource)
                else:
                    code = GATE_1Q
                    slot = _SLOT_1Q
                    fid_append(FID_1Q)
            elif cls is MoveOp:
                resource = op.segment
                code = MOVE
                key = (MOVE, op.length)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                heat_append((H_MOVE, op.ion, op.length))
            elif cls is JunctionCrossOp:
                resource = op.junction
                code = JUNCTION
                key = (JUNCTION, op.junction_degree)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                heat_append((H_JUNCTION, op.ion))
            elif cls is SplitOp:
                resource = op.trap
                code = SPLIT
                slot = _SLOT_SPLIT
                heat_append((H_SPLIT, resource, op.ion, op.chain_size))
            elif cls is MergeOp:
                resource = op.trap
                code = MERGE
                slot = _SLOT_MERGE
                heat_append((H_MERGE, resource, op.ion))
            elif cls is SwapGateOp:
                resource = op.trap
                code = SWAP_GATE
                key = (SWAP_GATE, op.ion_distance, op.chain_length)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                fid_append((index, slot, MS_PER_SWAP))
                heat_append(resource)
            elif cls is IonSwapOp:
                resource = op.trap
                code = ION_SWAP
                slot = _SLOT_ION_SWAP
                heat_append((H_ION_SWAP, resource, op.chain_size))
            elif cls is MeasureOp:
                resource = op.trap
                code = MEASURE
                slot = _SLOT_MEASURE
                fid_append(FID_MEASURE)
            else:
                raise TypeError(f"unknown operation type: {cls.__name__}")

            rid = rid_of.get(resource)
            if rid is None:
                rid = rid_of[resource] = len(rid_of)
                last_user.append(-1)
                busy_ops[resource] = ([], [])
            busy_ops[resource][is_comm[code]].append(index)

            # Merged predecessors.  The resource predecessor is nearly always
            # one of the dependencies already (the builder's last-op-per-trap
            # rule); those cases skip building a set.
            prev = last_user[rid]
            last_user[rid] = index
            deps = op.dependencies
            count = len(deps)
            if count == 2:
                first, second = deps
                if (first == prev or second == prev) and \
                        0 <= first < second < index:
                    preds.append(deps)
                else:
                    preds.append(_merge(deps, prev, index))
            elif count == 1:
                first = deps[0]
                if first == prev >= 0:
                    preds.append(prev)
                elif not 0 <= first < index:
                    preds.append(_merge(deps, prev, index))
                elif prev < 0:
                    preds.append(first)
                elif first < prev:
                    preds.append((first, prev))
                else:
                    preds.append((prev, first))
            elif count == 0:
                preds.append(prev if prev >= 0 else ())
            else:
                preds.append(_merge(deps, prev, index))

            codes.append(code)
            resources.append(rid)
            slots.append(slot)

        self.operations = operations
        self.codes = codes
        self.resources = resources
        self.resource_names = tuple(rid_of)
        self.preds = preds
        self.slots = slots
        self.slot_keys = list(slot_of)
        self.fid_items = fid_items
        self.heat_items = heat_items
        self.busy_ops = busy_ops
        present = [code for code in range(len(KINDS)) if code in codes]
        present.sort(key=codes.index)
        self.op_counts: Dict[OpKind, int] = {
            KINDS[code]: codes.count(code) for code in present
        }
        self.num_shuttles = codes.count(SPLIT)

    def __len__(self) -> int:
        return len(self.codes)

    def durations(self, gate, model) -> List[float]:
        """Duration of every op under one gate implementation and model.

        Each distinct slot key is priced once; the vector is then a gather
        over ``slots``.
        """

        shuttle = model.shuttle
        single = model.single_qubit
        values: List[float] = []
        for key in self.slot_keys:
            code = key[0]
            if code == GATE_2Q:
                value = gate_time(gate, distance=key[1], chain_length=key[2])
            elif code == SWAP_GATE:
                value = MS_PER_SWAP * gate_time(gate, distance=key[1],
                                                chain_length=key[2])
            elif code == GATE_1Q:
                value = single.gate_time
            elif code == MEASURE:
                value = single.measurement_time
            elif code == SPLIT:
                value = shuttle.split
            elif code == MERGE:
                value = shuttle.merge
            elif code == MOVE:
                value = shuttle.move_segment * key[1]
            elif code == JUNCTION:
                value = shuttle.junction_time(key[1])
            else:  # ION_SWAP
                value = shuttle.split + shuttle.ion_rotation + shuttle.merge
            values.append(value)
        return [values[slot] for slot in self.slots]


def lower(program: QCCDProgram) -> LoweredProgram:
    """The program's lowering, built on first use and cached on it.

    The cache is keyed by the identity of the operation list, so a program
    is lowered once however many devices, variants and checks read it.
    """

    lowered = getattr(program, "_lowering", None)
    if lowered is None or lowered.operations is not program.operations:
        lowered = LoweredProgram(program.operations)
        program._lowering = lowered
    return lowered
