"""The seed simulation engine: the test reference for :mod:`repro.sim`.

This is the three-pass engine that produced the determinism goldens --
durations, then heating/fidelity, then timing (plus a second timing pass
with communication durations zeroed for the Figure 6b breakdown), each a
plain walk over the operation objects.  It is slow and straightforward,
and the identity tests compare every result of :mod:`repro.sim` against it
bit for bit, including the per-operation timeline.  Do not import this
from library code.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.hardware.device import QCCDDevice
from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MergeOp,
    MeasureOp,
    MoveOp,
    Operation,
    SplitOp,
    SwapGateOp,
)
from repro.isa.program import QCCDProgram
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import gate_time
from repro.models.heating import HeatingModel
from repro.sim.results import OperationRecord, SimulationResult


class ResourceTimeline:
    """Exclusive-use bookkeeping for traps, segments and junctions.

    Every trap, segment and junction is an exclusive resource: an operation
    can only start once the resources it occupies are free.  This is how
    the paper's congestion handling appears in simulation -- a shuttle that
    needs a segment another shuttle is using simply waits, and gates within
    a trap serialise.  Tracks, per resource, the time it next becomes free.
    """

    def __init__(self) -> None:
        self._free_at: Dict[str, float] = {}
        self._busy_time: Dict[str, float] = {}

    def available_at(self, resources: Iterable[str]) -> float:
        """Earliest time every resource in ``resources`` is simultaneously free."""

        return max((self._free_at.get(name, 0.0) for name in resources), default=0.0)

    def occupy(self, resources: Iterable[str], start: float, finish: float) -> None:
        """Mark ``resources`` busy during [start, finish)."""

        if finish < start:
            raise ValueError("finish must not precede start")
        for name in resources:
            if self._free_at.get(name, 0.0) > start:
                raise ValueError(
                    f"resource {name!r} is busy at {start}; scheduling bug in the caller"
                )
            self._free_at[name] = finish
            self._busy_time[name] = self._busy_time.get(name, 0.0) + (finish - start)

    def busy_time(self, resource: str) -> float:
        """Total time ``resource`` has been occupied so far."""

        return self._busy_time.get(resource, 0.0)

    def utilisation(self, resource: str, horizon: float) -> float:
        """Fraction of [0, horizon) during which ``resource`` was busy."""

        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time(resource) / horizon)


def simulate(program: QCCDProgram, device: QCCDDevice, *,
             keep_timeline: bool = False,
             with_breakdown: bool = True) -> SimulationResult:
    """Simulate ``program`` on ``device`` and return the metrics.

    Parameters
    ----------
    keep_timeline:
        Also record a per-operation (start, finish, fidelity) timeline.
    with_breakdown:
        Run the extra timing pass that produces the computation versus
        communication time split (costs one more linear pass).
    """

    durations = _operation_durations(program, device)
    finish_times, trap_gate_busy, trap_comm_busy = _timing_pass(program, device, durations)
    start_times = [finish_times[index] - durations[index] for index in range(len(durations))]
    noise = _noise_pass(program, device, durations, start_times)
    makespan = max(finish_times, default=0.0)

    if with_breakdown:
        compute_durations = [
            0.0 if op.kind.is_communication else durations[op.op_id]
            for op in program.operations
        ]
        compute_finish, _, _ = _timing_pass(program, device, compute_durations)
        computation_time = max(compute_finish, default=0.0)
    else:
        computation_time = makespan
    communication_time = max(0.0, makespan - computation_time)

    timeline: Optional[List[OperationRecord]] = None
    if keep_timeline:
        timeline = [
            OperationRecord(
                op_id=op.op_id,
                kind=op.kind,
                start=finish_times[op.op_id] - durations[op.op_id],
                finish=finish_times[op.op_id],
                fidelity=noise.op_fidelities[op.op_id],
            )
            for op in program.operations
        ]

    num_ms = noise.num_ms_gates
    return SimulationResult(
        duration=makespan,
        fidelity=SimulationResult.fidelity_from_log(noise.log_fidelity),
        log_fidelity=noise.log_fidelity,
        computation_time=computation_time,
        communication_time=communication_time,
        op_counts=program.op_counts(),
        mean_background_error=noise.background_error / num_ms if num_ms else 0.0,
        mean_motional_error=noise.motional_error / num_ms if num_ms else 0.0,
        total_background_error=noise.background_error,
        total_motional_error=noise.motional_error,
        max_motional_energy=noise.max_energy,
        final_trap_energies=dict(noise.trap_energy),
        peak_occupancy=dict(noise.peak_occupancy),
        num_shuttles=program.num_shuttles,
        num_ms_gates=num_ms,
        trap_gate_busy_time=trap_gate_busy,
        trap_comm_busy_time=trap_comm_busy,
        timeline=timeline,
        circuit_name=program.circuit_name,
        device_name=program.device_name,
    )


# --------------------------------------------------------------------------- #
# Pass 1: durations
# --------------------------------------------------------------------------- #
def _operation_durations(program: QCCDProgram, device: QCCDDevice) -> List[float]:
    """Duration of every operation under the device's performance models."""

    shuttle = device.model.shuttle
    single = device.model.single_qubit
    durations: List[float] = []
    for op in program.operations:
        durations.append(_duration_of(op, device, shuttle, single))
    return durations


def _duration_of(op: Operation, device: QCCDDevice, shuttle, single) -> float:
    if isinstance(op, GateOp):
        if op.is_two_qubit:
            return gate_time(device.gate, distance=op.ion_distance,
                             chain_length=op.chain_length)
        return single.gate_time
    if isinstance(op, SwapGateOp):
        one_ms = gate_time(device.gate, distance=op.ion_distance,
                           chain_length=op.chain_length)
        return SwapGateOp.MS_GATES_PER_SWAP * one_ms
    if isinstance(op, MeasureOp):
        return single.measurement_time
    if isinstance(op, SplitOp):
        return shuttle.split
    if isinstance(op, MergeOp):
        return shuttle.merge
    if isinstance(op, MoveOp):
        return shuttle.move_segment * op.length
    if isinstance(op, JunctionCrossOp):
        return shuttle.junction_time(op.junction_degree)
    if isinstance(op, IonSwapOp):
        return shuttle.split + shuttle.ion_rotation + shuttle.merge
    raise TypeError(f"unknown operation type: {type(op).__name__}")


# --------------------------------------------------------------------------- #
# Pass 2: heating and fidelity
# --------------------------------------------------------------------------- #
class _NoiseAccumulator:
    """Mutable accumulator for the noise pass."""

    def __init__(self, program: QCCDProgram, device: QCCDDevice) -> None:
        self.trap_energy: Dict[str, float] = {
            trap.name: 0.0 for trap in device.topology.traps
        }
        self.transit_energy: Dict[int, float] = {}
        self.occupancy: Dict[str, int] = {trap.name: 0 for trap in device.topology.traps}
        for trap_name, chain in program.placement.trap_chains.items():
            self.occupancy[trap_name] = len(chain)
        self.peak_occupancy: Dict[str, int] = dict(self.occupancy)
        self.log_fidelity: float = 0.0
        self.op_fidelities: List[float] = []
        self.background_error: float = 0.0
        self.motional_error: float = 0.0
        self.num_ms_gates: int = 0
        self.max_energy: float = 0.0

    def bump_energy(self, trap: str, value: float) -> None:
        self.trap_energy[trap] = value
        if value > self.max_energy:
            self.max_energy = value

    def bump_occupancy(self, trap: str, delta: int) -> None:
        self.occupancy[trap] += delta
        if self.occupancy[trap] > self.peak_occupancy[trap]:
            self.peak_occupancy[trap] = self.occupancy[trap]

    def apply_fidelity(self, fidelity: float) -> None:
        if fidelity <= 0.0:
            self.log_fidelity = -math.inf
        elif self.log_fidelity != -math.inf:
            self.log_fidelity += math.log(fidelity)
        self.op_fidelities.append(fidelity)


def _noise_pass(program: QCCDProgram, device: QCCDDevice,
                durations: List[float], start_times: List[float]) -> _NoiseAccumulator:
    heating = HeatingModel(device.model.heating)
    fidelity_model = FidelityModel(device.model.fidelity)
    state = _NoiseAccumulator(program, device)
    background_rate = device.model.heating.background_rate

    for op in program.operations:
        duration = durations[op.op_id]
        # Anomalous (background) heating of the chain accumulated since the
        # start of the execution.  It is added to the shuttling-induced energy
        # when evaluating gate errors, but reported separately: the device
        # metric of Figure 6f tracks shuttling-induced energy only.
        background_energy = background_rate * start_times[op.op_id]
        if isinstance(op, GateOp):
            if op.is_two_qubit:
                fid = _apply_ms_gate(state, fidelity_model, op.trap, duration,
                                     op.chain_length, repetitions=1,
                                     extra_energy=background_energy)
            else:
                fid = fidelity_model.single_qubit_fidelity()
            state.apply_fidelity(fid)
        elif isinstance(op, SwapGateOp):
            one_ms = duration / SwapGateOp.MS_GATES_PER_SWAP
            fid = _apply_ms_gate(state, fidelity_model, op.trap, one_ms,
                                 op.chain_length,
                                 repetitions=SwapGateOp.MS_GATES_PER_SWAP,
                                 extra_energy=background_energy)
            state.apply_fidelity(fid)
        elif isinstance(op, MeasureOp):
            state.apply_fidelity(fidelity_model.measurement_fidelity())
        elif isinstance(op, SplitOp):
            remaining, split_off = heating.split(state.trap_energy[op.trap],
                                                 op.chain_size, 1)
            state.bump_energy(op.trap, remaining)
            state.transit_energy[op.ion] = split_off
            state.bump_occupancy(op.trap, -1)
            state.apply_fidelity(1.0)
        elif isinstance(op, MergeOp):
            incoming = state.transit_energy.pop(op.ion, 0.0)
            state.bump_energy(op.trap, heating.merge(state.trap_energy[op.trap], incoming))
            state.bump_occupancy(op.trap, +1)
            state.apply_fidelity(1.0)
        elif isinstance(op, MoveOp):
            current = state.transit_energy.get(op.ion, 0.0)
            state.transit_energy[op.ion] = heating.move(current, op.length)
            state.apply_fidelity(1.0)
        elif isinstance(op, JunctionCrossOp):
            current = state.transit_energy.get(op.ion, 0.0)
            state.transit_energy[op.ion] = heating.cross_junction(current)
            state.apply_fidelity(1.0)
        elif isinstance(op, IonSwapOp):
            # One IS hop: split the pair off, rotate, merge back.  Net effect on
            # the chain energy is +3*k1 (two sub-chains gain k1 at the split and
            # the merge adds another k1); we derive it through the model so any
            # parameter change stays consistent.
            energy = state.trap_energy[op.trap]
            remaining, pair = heating.split(energy, op.chain_size, 2)
            state.bump_energy(op.trap, heating.merge(remaining, pair))
            state.apply_fidelity(1.0)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown operation type: {type(op).__name__}")
    return state


def _apply_ms_gate(state: _NoiseAccumulator, model: FidelityModel, trap: str,
                   one_gate_duration: float, chain_length: int,
                   repetitions: int, extra_energy: float = 0.0) -> float:
    """Fidelity of ``repetitions`` MS gates in ``trap``; updates error totals.

    ``extra_energy`` is the background-heating contribution to the chain's
    motional energy at the time the gate executes (on top of the
    shuttling-induced energy tracked in ``state``).
    """

    breakdown = model.two_qubit_error(
        duration=one_gate_duration,
        chain_length=chain_length,
        motional_energy=state.trap_energy[trap] + extra_energy,
    )
    state.background_error += breakdown.background * repetitions
    state.motional_error += breakdown.motional * repetitions
    state.num_ms_gates += repetitions
    single = max(model.params.min_fidelity, min(1.0, 1.0 - breakdown.total))
    return single ** repetitions


# --------------------------------------------------------------------------- #
# Pass 3: timing
# --------------------------------------------------------------------------- #
def _timing_pass(program: QCCDProgram, device: QCCDDevice,
                 durations: List[float]) -> Tuple[List[float], Dict[str, float], Dict[str, float]]:
    """Start/finish times under dependency and resource constraints.

    Returns the per-op finish times plus per-trap busy time split into gate
    (computation) and communication components.
    """

    resources = ResourceTimeline()
    finish: List[float] = [0.0] * len(program.operations)
    # Keyed in the topology's trap order, so dict order is deterministic.
    trap_gate_busy: Dict[str, float] = {
        trap.name: 0.0 for trap in device.topology.traps
    }
    trap_comm_busy: Dict[str, float] = dict(trap_gate_busy)

    for op in program.operations:
        duration = durations[op.op_id]
        ready = max((finish[dep] for dep in op.dependencies), default=0.0)
        start = max(ready, resources.available_at(op.resources))
        end = start + duration
        resources.occupy(op.resources, start, end)
        finish[op.op_id] = end
        for resource in op.resources:
            if resource in trap_gate_busy:
                if op.kind.is_communication:
                    trap_comm_busy[resource] += duration
                else:
                    trap_gate_busy[resource] += duration
    return finish, trap_gate_busy, trap_comm_busy
