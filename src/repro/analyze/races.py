"""Schedule race detector: replay resource claims symbolically.

The detector computes two symbolic schedules from the op records and the
program's lowering -- no device, no durations model, unit time per op
unless the caller supplies durations -- and flags double-booked hardware:

* **Dependency-only schedule** (``RC001``): every op starts as soon as its
  *declared* dependencies finish.  If two ops then overlap on the same trap,
  the compiler emitted a program whose correctness relies on the
  simulator's implicit program-order resource serialization rather than on
  an explicit dependency -- exactly the class of bug a pass-pipeline
  rewrite could introduce silently.  Segments and junctions are exempt here
  by design: the builder deliberately carries no cross-route dependency for
  them and the simulator serializes them through merged predecessors.
* **Merged dependency+resource schedule** (``RC002``/``RC003``): the exact
  predecessor relation of the program's lowering
  (:attr:`repro.sim.lower.LoweredProgram.preds`), which the simulator walks.
  ``preds`` keeps each resource's chain of users and the dependencies
  across resources; a dependency on an earlier op of the op's own resource
  is left out, since the chain orders it already.  That transitive
  reduction has the same happens-before relation as dependencies plus
  resource chains, so with positive durations it gives the same schedule.
  Under it, *no* resource may ever be double-booked and no op may start
  before a declared dependency finishes; a finding means the lowering itself
  (or an injected predecessor table, via the ``predecessors`` hook used by
  the mutation-corpus tests) is broken.

Both schedules are list-scheduling forward passes, O(ops + deps); the
overlap scan sorts each resource's claim intervals, O(claims log claims).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.diagnostics import Report, diag
from repro.isa.program import QCCDProgram
from repro.isa.records import JUNCTION, MOVE
from repro.sim.lower import Predecessors, lower


def detect_races(program: QCCDProgram, *,
                 durations: Optional[Sequence[float]] = None,
                 predecessors: Optional[Sequence[Predecessors]] = None,
                 ) -> Report:
    """Run the RC001/RC002/RC003 checks over ``program``.

    ``durations`` replaces the default unit duration per op (the checks are
    about ordering, not absolute time, so units suffice -- but a device's
    real durations can be threaded through for fidelity).  ``predecessors``
    replaces the merged predecessor table for the RC002/RC003 schedule; the
    mutation-corpus tests use it to model a corrupted lowering.
    """

    report = Report()
    lowered = lower(program)
    count = len(lowered)
    if count == 0:
        return report
    if durations is None:
        durations = [1.0] * count
    elif len(durations) != count:
        raise ValueError(f"expected {count} durations, got {len(durations)}")

    resource_names = lowered.resource_names
    deps = [record[1] for record in program.records]
    # Ops other than moves and junction crossings claim a trap.
    trap_resources = frozenset(
        rid for code, rid in zip(lowered.codes, lowered.resources)
        if code != MOVE and code != JUNCTION)

    # --- RC001: dependency-only schedule, trap overlap ------------------- #
    dep_start, dep_finish = _schedule_by_predecessors(deps, durations)
    for rid, claims in _claims_by_resource(lowered.resources, dep_start,
                                           dep_finish):
        if rid not in trap_resources:
            continue
        for earlier, later in _overlaps(claims):
            report.add(diag(
                "RC001",
                f"ops {earlier} and {later} overlap on trap "
                f"{resource_names[rid]} under the dependency-only "
                f"schedule",
                location=f"op {later}",
                hint=f"add a dependency from op {later} on op {earlier} "
                     f"(the builder's last-op-per-trap rule) so the order "
                     f"does not rely on implicit resource serialization"))

    # --- RC002/RC003: merged dep+resource schedule ----------------------- #
    merged = predecessors if predecessors is not None else lowered.preds
    if len(merged) != count:
        raise ValueError(f"expected {count} predecessor entries, "
                         f"got {len(merged)}")
    start, finish = _schedule_by_predecessors(merged, durations)
    for rid, claims in _claims_by_resource(lowered.resources, start, finish):
        for earlier, later in _overlaps(claims):
            report.add(diag(
                "RC002",
                f"ops {earlier} and {later} overlap on "
                f"{resource_names[rid]} under the merged "
                f"dependency+resource schedule",
                location=f"op {later}",
                hint="the simulator's lowering would double-book this "
                     "resource; the predecessor table is missing the "
                     "last-user edge"))
    for index, op_deps in enumerate(deps):
        for dep in op_deps:
            if 0 <= dep < index and start[index] < finish[dep] - 1e-12:
                report.add(diag(
                    "RC003",
                    f"op {index} starts at {start[index]:g} before its "
                    f"declared dependency op {dep} finishes at "
                    f"{finish[dep]:g}",
                    location=f"op {index}",
                    hint="the schedule drops a declared dependency edge; "
                         "every dep must precede the op through its "
                         "predecessors"))
    return report


def _schedule_by_predecessors(merged: Sequence[Predecessors],
                              durations) -> Tuple[List[float], List[float]]:
    start = [0.0] * len(merged)
    finish = [0.0] * len(merged)
    for index, preds in enumerate(merged):
        begin = 0.0
        if isinstance(preds, int):
            if 0 <= preds < index:
                begin = finish[preds]
        else:
            for pred in preds:
                if 0 <= pred < index and finish[pred] > begin:
                    begin = finish[pred]
        start[index] = begin
        finish[index] = begin + durations[index]
    return start, finish


def _claims_by_resource(resources, start, finish):
    """Yield ``(rid, [(start, finish, op_index), ...])`` per resource."""

    claims: Dict[int, List[Tuple[float, float, int]]] = {}
    for index, rid in enumerate(resources):
        claims.setdefault(rid, []).append((start[index], finish[index], index))
    for rid in sorted(claims):
        yield rid, claims[rid]


def _overlaps(claims: List[Tuple[float, float, int]]):
    """Yield ``(earlier_op, later_op)`` for every overlapping claim pair.

    Claims are half-open intervals ``[start, finish)``; touching endpoints
    (one op starting exactly when another finishes) are not overlaps.  Each
    op is reported at most once per resource -- against the claim it first
    collides with -- so a single missing edge yields one finding, not a
    quadratic cascade.
    """

    ordered = sorted(claims)
    frontier_finish = -1.0
    frontier_op = -1
    for begin, end, index in ordered:
        if begin < frontier_finish - 1e-12:
            yield frontier_op, index
        if end > frontier_finish:
            frontier_finish = end
            frontier_op = index
