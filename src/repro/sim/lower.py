"""One lowering pass: a compiled program as flat parallel arrays.

The simulator (:mod:`repro.sim.batch`), the race detector
(:mod:`repro.analyze.races`) and the program verifier
(:mod:`repro.analyze.verifier`) all read a compiled
:class:`~repro.isa.program.QCCDProgram` through the same
:class:`LoweredProgram`, built by a single pass over the program's op
records (``program.records``, see :mod:`repro.isa.operations`) and cached on
the program (:func:`lower`).  No :class:`~repro.isa.operations.Operation`
object is built.  Per operation ``i`` it holds:

* ``codes[i]`` -- the integer kind code (index into
  :data:`~repro.isa.operations.KINDS`);
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
  accounting).

Every per-op sequence is a tuple of atomic values (ints, strings, floats
and tuples of those), as is each :meth:`LoweredProgram.durations` vector.
CPython's cyclic collector stops tracking such a tuple once a collection
finds everything in it untracked (a nested tuple may take one pass per
level), whereas it walks a list item by item on every full collection.

:meth:`LoweredProgram.durations` prices the duration vector of one
``(gate implementation, physical model)`` pair from the slot keys.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Tuple, Union

from repro.isa.operations import (
    GATE_1Q,
    GATE_2Q,
    ION_SWAP,
    IS_COMM,
    JUNCTION,
    MEASURE,
    MERGE,
    MOVE,
    SPLIT,
    SWAP_GATE,
    SwapGateOp,
)
from repro.isa.program import QCCDProgram
from repro.models.gate_times import gate_time

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

    __slots__ = ("records", "codes", "resources", "resource_names", "preds",
                 "slots", "slot_keys", "fid_items", "heat_items", "busy_ops")

    def __init__(self, records: Tuple[tuple, ...]) -> None:
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

        # Records unpack in their class's field order (see
        # repro.isa.operations): code, dependencies, then the fields.
        for index, record in enumerate(records):
            code = record[0]
            if code == GATE_2Q:
                _, deps, resource, _, _, _, chain_length, ion_distance = record
                key = (GATE_2Q, ion_distance, chain_length)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                fid_append((index, slot, 1))
                heat_append(resource)
            elif code == GATE_1Q:
                deps = record[1]
                resource = record[2]
                slot = _SLOT_1Q
                fid_append(FID_1Q)
            elif code == MOVE:
                _, deps, ion, resource, length, _, _ = record
                key = (MOVE, length)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                heat_append((H_MOVE, ion, length))
            elif code == JUNCTION:
                _, deps, ion, resource, degree = record
                key = (JUNCTION, degree)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                heat_append((H_JUNCTION, ion))
            elif code == SPLIT:
                _, deps, resource, ion, chain_size, _ = record
                slot = _SLOT_SPLIT
                heat_append((H_SPLIT, resource, ion, chain_size))
            elif code == MERGE:
                _, deps, resource, ion, _ = record
                slot = _SLOT_MERGE
                heat_append((H_MERGE, resource, ion))
            elif code == SWAP_GATE:
                _, deps, resource, _, _, chain_length, ion_distance = record
                key = (SWAP_GATE, ion_distance, chain_length)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                fid_append((index, slot, MS_PER_SWAP))
                heat_append(resource)
            elif code == ION_SWAP:
                _, deps, resource, _, chain_size = record
                slot = _SLOT_ION_SWAP
                heat_append((H_ION_SWAP, resource, chain_size))
            elif code == MEASURE:
                deps = record[1]
                resource = record[2]
                slot = _SLOT_MEASURE
                fid_append(FID_MEASURE)
            else:
                raise TypeError(f"unknown operation kind code: {code!r}")

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

            resources.append(rid)
            slots.append(slot)

        self.records = records
        self.codes = tuple(map(itemgetter(0), records))
        self.resources = tuple(resources)
        self.resource_names = tuple(rid_of)
        self.preds = tuple(preds)
        self.slots = tuple(slots)
        self.slot_keys = tuple(slot_of)
        self.fid_items = tuple(fid_items)
        self.heat_items = tuple(heat_items)
        self.busy_ops = {name: (tuple(gate_ids), tuple(comm_ids))
                         for name, (gate_ids, comm_ids) in busy_ops.items()}

    def __len__(self) -> int:
        return len(self.codes)

    def durations(self, gate, model) -> Tuple[float, ...]:
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
        return tuple(map(values.__getitem__, self.slots))


def lower(program: QCCDProgram) -> LoweredProgram:
    """The program's lowering, built on first use and cached on it.

    The cache is keyed by the identity of the program's record tuple, so a
    program is lowered once however many devices, variants and checks read
    it.
    """

    records = program.records
    lowered = getattr(program, "_lowering", None)
    if lowered is None or lowered.records is not records:
        lowered = LoweredProgram(records)
        program._lowering = lowered
    return lowered
