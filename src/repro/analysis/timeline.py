"""Timeline analytics: what the device was doing, when.

When a simulation is run with ``keep_timeline=True`` the result carries one
(start, finish, kind) record per executed operation.  These helpers turn that
into the schedule-level views an architect actually looks at:

* per-resource utilisation (how busy each trap was, and with what),
* a parallelism profile (how many operations overlap at any time),
* the critical path through the dependency graph (which operations bound the
  makespan),
* a coarse Gantt rendering for terminal inspection.

Resources and kinds come from the program's cached lowering, dependencies
from its op records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.isa.program import QCCDProgram
from repro.isa.records import IS_COMM
from repro.sim.lower import lower
from repro.sim.results import OperationRecord, SimulationResult


def _require_timeline(result: SimulationResult) -> List[OperationRecord]:
    if result.timeline is None:
        raise ValueError("simulate(..., keep_timeline=True) is required for timeline analytics")
    return result.timeline


def _trap_ops(program: QCCDProgram) -> Dict[int, Tuple[str, bool]]:
    """``op id -> (trap, is communication)`` for every op that claims a trap."""

    lowered = lower(program)
    names = lowered.resource_names
    return {index: (names[rid], IS_COMM[code]) for index, (rid, code)
            in enumerate(zip(lowered.resources, lowered.codes))
            if names[rid].startswith("T")}


def trap_utilisation(program: QCCDProgram, result: SimulationResult) -> Dict[str, Dict[str, float]]:
    """Per-trap busy-time fractions split into gates and communication.

    Returns ``{trap: {"gate": f, "communication": f, "idle": f}}`` with the
    fractions of the makespan the trap spent in each state.
    """

    timeline = _require_timeline(result)
    makespan = result.duration or 1.0
    busy: Dict[str, Dict[str, float]] = defaultdict(lambda: {"gate": 0.0, "communication": 0.0})
    trap_ops = _trap_ops(program)
    for record in timeline:
        if record.op_id in trap_ops:
            trap, communication = trap_ops[record.op_id]
            busy[trap]["communication" if communication else "gate"] += record.duration
    report: Dict[str, Dict[str, float]] = {}
    for trap, buckets in busy.items():
        gate = buckets["gate"] / makespan
        communication = buckets["communication"] / makespan
        report[trap] = {
            "gate": gate,
            "communication": communication,
            "idle": max(0.0, 1.0 - gate - communication),
        }
    return report


def parallelism_profile(result: SimulationResult, num_bins: int = 50) -> List[float]:
    """Average number of concurrently executing operations per time bin."""

    timeline = _require_timeline(result)
    if not timeline or result.duration <= 0:
        return [0.0] * num_bins
    bin_width = result.duration / num_bins
    busy = [0.0] * num_bins
    for record in timeline:
        if record.duration <= 0:
            continue
        first = int(record.start // bin_width)
        last = int(min(result.duration - 1e-12, record.finish) // bin_width)
        for index in range(first, min(last, num_bins - 1) + 1):
            bin_start = index * bin_width
            bin_end = bin_start + bin_width
            overlap = min(record.finish, bin_end) - max(record.start, bin_start)
            if overlap > 0:
                busy[index] += overlap
    return [value / bin_width for value in busy]


def peak_parallelism(result: SimulationResult) -> int:
    """Maximum number of operations executing simultaneously."""

    timeline = _require_timeline(result)
    events: List[Tuple[float, int]] = []
    for record in timeline:
        if record.duration <= 0:
            continue
        events.append((record.start, +1))
        events.append((record.finish, -1))
    events.sort(key=lambda item: (item[0], item[1]))
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def critical_path(program: QCCDProgram, result: SimulationResult) -> List[int]:
    """Op ids of one dependency chain realising the makespan.

    Walks backwards from the last-finishing operation, at each step following
    the predecessor whose finish time equals the current operation's start
    (resource waits are skipped over, so the returned chain is the *data*
    critical path).
    """

    timeline = _require_timeline(result)
    finish = {record.op_id: record.finish for record in timeline}
    start = {record.op_id: record.start for record in timeline}
    current = max(finish, key=lambda op_id: finish[op_id])
    chain = [current]
    records = program.records
    while True:
        predecessors = [dep for dep in records[current][1]
                        if abs(finish[dep] - start[current]) < 1e-9]
        if not predecessors:
            break
        current = max(predecessors, key=lambda dep: finish[dep])
        chain.append(current)
    chain.reverse()
    return chain


def communication_on_critical_path(program: QCCDProgram, result: SimulationResult) -> float:
    """Fraction of the critical path's duration spent on communication ops."""

    timeline = {record.op_id: record for record in _require_timeline(result)}
    chain = critical_path(program, result)
    total = sum(timeline[op_id].duration for op_id in chain)
    if total <= 0:
        return 0.0
    records = program.records
    comm = sum(timeline[op_id].duration for op_id in chain
               if IS_COMM[records[op_id][0]])
    return comm / total


def format_gantt(program: QCCDProgram, result: SimulationResult,
                 width: int = 72) -> str:
    """A coarse per-trap Gantt chart (``#`` gates, ``~`` communication)."""

    timeline = _require_timeline(result)
    makespan = result.duration or 1.0
    trap_ops = _trap_ops(program)
    traps = sorted({trap_ops[record.op_id][0] for record in timeline
                    if record.op_id in trap_ops})
    rows = {trap: [" "] * width for trap in traps}
    for record in timeline:
        if record.op_id not in trap_ops:
            continue
        trap, communication = trap_ops[record.op_id]
        symbol = "~" if communication else "#"
        first = int(record.start / makespan * (width - 1))
        last = int(record.finish / makespan * (width - 1))
        for column in range(first, last + 1):
            rows[trap][column] = symbol
    label_width = max((len(trap) for trap in traps), default=2)
    lines = [f"{'':<{label_width}}  0 {'-' * (width - 10)} {result.duration_seconds:.3f}s"]
    for trap in traps:
        lines.append(f"{trap:<{label_width}} |{''.join(rows[trap])}|")
    lines.append("legend: '#' gate/measure, '~' shuttle/reorder, ' ' idle")
    return "\n".join(lines)
