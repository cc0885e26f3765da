"""The simulation engine: one plan per program, any axis of device variants.

Every simulation -- a single :func:`repro.sim.engine.simulate` call, the
Figure 8 gate fan-out, the heating/fidelity ablation grids -- evaluates
``(two-qubit gate implementation, physical model)`` variants against the
:class:`BatchPlan` of a compiled :class:`~repro.isa.program.QCCDProgram`.
The plan wraps the program's :class:`~repro.sim.lower.LoweredProgram` (one
pass over the op stream, shared with the static analyzers) and memoises
everything a variant does not change:

* **Timeline walk.**  An operation starts once its merged predecessors --
  the previous user of its exclusive resource plus its dependencies on
  other resources -- have finished, so ``finish[i] = max(finish[p] for p
  in preds[i]) + dur[i]``.  ``preds`` leaves out the dependencies the
  resource chain orders already (:mod:`repro.sim.lower`); every duration
  is positive (:func:`_evaluate` validates the model's times before a
  walk), so those ops never finish later than the previous user and the
  walk reads the same floats.
  The walk also advances the zero-communication timeline behind the
  Figure 6b computation/communication split and sums per-trap busy times.
  It depends on the durations alone, and every op's duration is the value
  of its slot key (:meth:`~repro.sim.lower.LoweredProgram.slot_values`),
  so it runs once per *distinct* vector of used-slot values: variants that
  only change heating/fidelity parameters (and gate variants whose clamped
  gate times collide) reuse it.
* **Heating trajectory.**  Chain-energy accounting depends only on the op
  stream and the heating constants ``k1``/``k2``/``k_junction`` -- never on
  durations -- so the trajectory (per-gate chain energies, final trap
  energies, peak occupancy) is computed once per distinct heating vector
  and shared by every gate variant.
* **Noise pass.**  Per variant only the fidelity-bearing ops are visited:
  two-qubit/SWAP gates evaluate equation (1) against the cached start
  times and trajectory energies; single-qubit gates and measurements add a
  constant log-fidelity.  What a gate's error shares with every gate of its
  duration slot -- MS repetitions, background error, A(N) -- is computed
  once per slot.  The totals are memoised per (timeline,
  trajectory, fidelity parameters) combination, so re-evaluating a seen
  variant of a held program skips even this pass.  When a
  per-operation timeline is requested, the same pass records each gate's
  fidelity.
* **No device churn.**  Variants are evaluated from ``(gate, model)`` pairs
  directly: :func:`simulate_gate_variants` never constructs the per-variant
  :class:`~repro.hardware.device.QCCDDevice` copies (and their topology
  re-validation) that a ``device.with_gate(...)`` loop pays for.

A plan lives as long as its program, which a caller, or the program cache
of an adaptive run that may reuse it, can hold for long, so each memo layer
keeps only what a later step reads (listed on :class:`BatchPlan`).  Per two-qubit/SWAP gate that is a start time and a
chain energy, as packed doubles (``array('d')``): 8 bytes an entry, with no
float object behind it.  Per-op durations and finish times exist only while
a walk runs; a per-operation timeline (``keep_timeline``) walks again.

The arithmetic is the seed three-pass engine's, operation for operation, so
every metric is bit-identical to it: ``tests/seed_engine.py`` keeps the seed
engine as the test reference, and the determinism goldens pin the results.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.device import QCCDDevice
from repro.isa.operations import (
    GATE_1Q,
    GATE_2Q,
    IS_COMM,
    KINDS,
    MEASURE,
    SWAP_GATE,
)
from repro.isa.program import QCCDProgram
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import GateImplementation
from repro.models.heating import HeatingModel
from repro.obs.trace import span
from repro.sim.lower import (
    FID_1Q,
    H_JUNCTION,
    H_MERGE,
    H_MOVE,
    H_SPLIT,
    MS_PER_SWAP,
    LoweredProgram,
    gather_by_slot,
    lower,
)
from repro.sim.results import OperationRecord, SimulationResult


@dataclass(slots=True, eq=False)
class _Timeline:
    """Timing metrics of one slot-value vector, as the noise pass reads them.

    ``starts`` holds the start time of each two-qubit/SWAP gate, in
    noise-pass order (one per entry of ``gate_ops``), as packed
    doubles: the walk computes ``finish[i] - duration[i]`` once and keeps
    nothing else per op.  A per-operation timeline walks again
    (:func:`_walk`).
    """

    starts: array
    makespan: float
    computation_time: float
    communication_time: float
    trap_gate_busy: Dict[str, float]
    trap_comm_busy: Dict[str, float]


@dataclass(slots=True, eq=False)
class _Trajectory:
    """Heating state shared by every variant with the same heating constants.

    ``gate_energies`` holds each two-qubit/SWAP gate's chain energy, in
    noise-pass order, as packed doubles.
    """

    gate_energies: array
    final_trap_energies: Dict[str, float]
    peak_occupancy: Dict[str, int]
    max_energy: float


class BatchPlan:
    """The lowered program plus the memo layers shared across variants.

    Built once per program (and cached on it, keyed by the identity of the
    record tuple like the lowering), then reused by every simulation.  It
    keeps, for as long as the program lives:

    * per (gate, shuttle, single-qubit) parameter triple, the slot values
      (:meth:`~repro.sim.lower.LoweredProgram.slot_values`, one float per
      slot key) and their timeline;
    * per distinct vector of used-slot values, one :class:`_Timeline`
      (:meth:`timeline_for`): scalars, per-trap busy times and one packed
      double per two-qubit/SWAP gate;
    * per distinct ``(k1, k2, k_junction)`` vector, one heating
      :class:`_Trajectory` (scalars, per-trap dicts, one packed double per
      two-qubit/SWAP gate);
    * accumulated noise totals per (timeline, trajectory, fidelity
      parameters, background rate) combination;
    * validated :class:`~repro.models.fidelity.FidelityModel` instances per
      parameter set (construction implies validation, so invalid parameters
      raise even when every heavy structure comes from a cache).

    Nothing per op beyond the lowering: per-op durations and finish times
    live only while a timeline is walked.
    """

    def __init__(self, program: QCCDProgram) -> None:
        self.records = program.records
        self.lowered = lower(program)
        self.num_ops = len(self.lowered)
        #: The slots some op uses, in slot order: their values key a timeline.
        self._used_slots = tuple(sorted(set(self.lowered.slots)))

        #: (gate, shuttle, single_qubit) -> (slot values, timeline)
        self._duration_slots: Dict[Tuple, Tuple[Tuple[float, ...],
                                                _Timeline]] = {}
        #: used-slot values -> _Timeline (content-keyed: two vectors that
        #: give every op the same duration dedup).
        self._timelines: Dict[Tuple[float, ...], _Timeline] = {}
        #: (k1, k2, k_junction, trap names) -> _Trajectory
        self._trajectories: Dict[Tuple, _Trajectory] = {}
        #: (timeline id, trajectory id, fidelity params, background rate) ->
        #: (log_fid, background_total, motional_total, num_ms).  The id keys
        #: are stable: the plan holds every timeline/trajectory forever.
        self._noise_memo: Dict[Tuple, Tuple] = {}
        #: fidelity params -> validated FidelityModel.
        self._fidelity_models: Dict[object, FidelityModel] = {}

        self.timelines_built = 0
        self.timeline_hits = 0
        self.trajectories_built = 0
        self.trajectory_hits = 0
        self.variants_evaluated = 0

    # ------------------------------------------------------------------ #
    def timeline_for(self, values: Sequence[float],
                     trap_names: Tuple[str, ...]) -> _Timeline:
        """The (cached) timeline of one slot-value vector.

        ``values[slot]`` is the duration of every op in that slot (see
        :meth:`~repro.sim.lower.LoweredProgram.slot_values`).  The memo is
        keyed on the values of the slots some op uses, so two vectors that
        give every op the same duration -- however they were produced --
        return the *same* timeline object; this is the dedup that lets
        fidelity/heating-only variants skip the walk.
        """

        key = tuple(map(values.__getitem__, self._used_slots))
        timeline = self._timelines.get(key)
        if timeline is not None:
            self.timeline_hits += 1
            return timeline
        self.timelines_built += 1
        lowered = self.lowered
        durations, finish, finish_c = _walk(lowered, values)

        # The latest finish is a resource chain's last op (see
        # repro.sim.lower); zero-time communication keeps finish_c
        # non-decreasing along each chain too.
        makespan = max(map(finish.__getitem__, lowered.last_ops), default=0.0)
        computation_time = max(map(finish_c.__getitem__, lowered.last_ops),
                               default=0.0)
        communication_time = max(0.0, makespan - computation_time)

        # Busy time per trap: the resource's durations added in program
        # order, gate and communication ops separately.  Only trap resources
        # are reported, keyed in the topology's trap order.
        trap_gate_busy = {name: 0.0 for name in trap_names}
        trap_comm_busy = dict(trap_gate_busy)
        for name in trap_names:
            if name not in lowered.busy_ops:
                continue
            gate_ids, comm_ids = lowered.busy_ops[name]
            total = 0.0
            for index in gate_ids:
                total += durations[index]
            trap_gate_busy[name] = total
            total = 0.0
            for index in comm_ids:
                total += durations[index]
            trap_comm_busy[name] = total

        starts = array("d", [finish[index] - durations[index]
                             for index in lowered.gate_ops])
        timeline = _Timeline(starts, makespan, computation_time,
                             communication_time, trap_gate_busy, trap_comm_busy)
        self._timelines[key] = timeline
        return timeline

    def trajectory_for(self, program: QCCDProgram, heating_params,
                       trap_names: Tuple[str, ...]) -> _Trajectory:
        """The (cached) heating trajectory of one heating-constant vector.

        Keyed by ``(k1, k2, k_junction)`` -- the only constants the
        split/merge/move accounting reads -- so variants that differ in the
        background rate (or any fidelity parameter) share the trajectory.
        """

        key = (heating_params.k1, heating_params.k2, heating_params.k_junction,
               trap_names)
        trajectory = self._trajectories.get(key)
        if trajectory is not None:
            self.trajectory_hits += 1
            return trajectory
        self.trajectories_built += 1

        heating = HeatingModel(heating_params)
        trap_energy: Dict[str, float] = {name: 0.0 for name in trap_names}
        transit_energy: Dict[int, float] = {}
        occupancy: Dict[str, int] = {name: 0 for name in trap_names}
        for trap_name, chain in program.placement.trap_chains.items():
            occupancy[trap_name] = len(chain)
        peak_occupancy = dict(occupancy)
        max_energy = 0.0
        gate_energies: List[float] = []

        heating_split = heating.split
        heating_merge = heating.merge
        for item in self.lowered.heat_items:
            if item.__class__ is str:  # a gate: snapshot its chain's energy
                gate_energies.append(trap_energy[item])
                continue
            tag = item[0]
            if tag == H_SPLIT:
                _, trap, ion, chain_size = item
                remaining, split_off = heating_split(trap_energy[trap],
                                                     chain_size, 1)
                trap_energy[trap] = remaining
                if remaining > max_energy:
                    max_energy = remaining
                transit_energy[ion] = split_off
                occupancy[trap] -= 1
            elif tag == H_MERGE:
                _, trap, ion = item
                incoming = transit_energy.pop(ion, 0.0)
                merged = heating_merge(trap_energy[trap], incoming)
                trap_energy[trap] = merged
                if merged > max_energy:
                    max_energy = merged
                count = occupancy[trap] + 1
                occupancy[trap] = count
                if count > peak_occupancy[trap]:
                    peak_occupancy[trap] = count
            elif tag == H_MOVE:
                _, ion, length = item
                transit_energy[ion] = heating.move(
                    transit_energy.get(ion, 0.0), length)
            elif tag == H_JUNCTION:
                ion = item[1]
                transit_energy[ion] = heating.cross_junction(
                    transit_energy.get(ion, 0.0))
            else:  # H_ION_SWAP: split the pair off, rotate, merge back
                _, trap, chain_size = item
                remaining, pair = heating_split(trap_energy[trap], chain_size, 2)
                merged = heating_merge(remaining, pair)
                trap_energy[trap] = merged
                if merged > max_energy:
                    max_energy = merged

        trajectory = _Trajectory(array("d", gate_energies), trap_energy,
                                 peak_occupancy, max_energy)
        self._trajectories[key] = trajectory
        return trajectory

    def stats(self) -> Dict[str, int]:
        """Cumulative cache counters of this plan."""

        return {
            "variants": self.variants_evaluated,
            "timelines_built": self.timelines_built,
            "timeline_hits": self.timeline_hits,
            "trajectories_built": self.trajectories_built,
            "trajectory_hits": self.trajectory_hits,
        }


def _walk(lowered: LoweredProgram, values: Sequence[float]
          ) -> Tuple[Tuple[float, ...], List[float], List[float]]:
    """Per-op durations and finish times of one slot-value vector.

    Returns ``(durations, finish, finish_c)``: ``finish[i] = max(finish[p]
    for p in preds[i]) + durations[i]``, and ``finish_c`` the same walk with
    communication ops taking no time (the Figure 6b breakdown).  The one
    walk behind :meth:`BatchPlan.timeline_for` and the per-operation
    timeline; neither keeps its vectors.
    """

    gather = gather_by_slot(lowered.slots)
    durations = gather(values)
    # Zero-communication durations.  Adding the zeroed duration is exact:
    # x + 0.0 == x for every value the accumulator can take (all finish
    # times are >= 0.0).  A slot key's first entry is its ops' kind code.
    cdurations = gather([0.0 if IS_COMM[key[0]] else value
                         for key, value in zip(lowered.slot_keys, values)])
    finish: List[float] = []
    finish_c: List[float] = []
    for preds, duration, cduration in zip(lowered.preds, durations,
                                          cdurations):
        if preds.__class__ is int:
            finish.append(finish[preds] + duration)
            finish_c.append(finish_c[preds] + cduration)
            continue
        ready = 0.0
        ready_c = 0.0
        for p in preds:
            value = finish[p]
            if value > ready:
                ready = value
            value = finish_c[p]
            if value > ready_c:
                ready_c = value
        finish.append(ready + duration)
        finish_c.append(ready_c + cduration)
    return durations, finish, finish_c


def batch_plan(program: QCCDProgram) -> BatchPlan:
    """The program's batch plan, built on first use and cached on it."""

    plan = getattr(program, "_batch_plan", None)
    if plan is not None and plan.records is program.records:
        return plan
    plan = BatchPlan(program)
    program._batch_plan = plan
    return plan


def _noise_pass(plan: BatchPlan, values: Sequence[float],
                starts: Sequence[float], gate_energies: Sequence[float],
                fidelity_model: FidelityModel, background_rate: float,
                op_fidelities: Optional[List[float]] = None):
    """Fidelity accumulation (equation 1) over the cached gate start times.

    Only the fidelity-bearing ops are visited.  ``values`` are the slot
    values; ``starts`` and ``gate_energies`` hold one entry per
    two-qubit/SWAP gate, in visiting order.  ``op_fidelities``, when given,
    receives each two-qubit/SWAP gate's fidelity at its op index (the
    per-operation timeline); the fan-out path passes nothing.
    """

    lowered = plan.lowered
    params = fidelity_model.params
    min_fidelity = params.min_fidelity
    error_rate = params.background_heating_rate
    single_qubit_fid = fidelity_model.single_qubit_fidelity()
    measurement_fid = fidelity_model.measurement_fidelity()
    # log() of a constant is a constant: accumulating the precomputed value
    # is the same addition as taking the log per op.
    log = math.log
    neg_inf = -math.inf
    log_1q = log(single_qubit_fid) if single_qubit_fid > 0.0 else None
    log_measure = log(measurement_fid) if measurement_fid > 0.0 else None
    # Per MS-gate slot (code, distance, chain length): the MS repetitions,
    # the background error of one MS, that error times the repetitions, and
    # A(N) -- the values every gate of the slot would derive again.  Other
    # slots are never read.
    slot_terms: List[Optional[Tuple[int, float, float, float]]] = []
    for key, duration in zip(lowered.slot_keys, values):
        code = key[0]
        if code == GATE_2Q:
            repetitions = 1
            one_ms = duration
        elif code == SWAP_GATE:
            repetitions = MS_PER_SWAP
            one_ms = duration / MS_PER_SWAP
        else:
            slot_terms.append(None)
            continue
        background = error_rate * one_ms
        slot_terms.append((repetitions, background, background * repetitions,
                           fidelity_model.laser_instability(key[2])))

    log_fid = 0.0
    background_total = 0.0
    motional_total = 0.0
    num_ms = 0
    gate_pos = 0
    for item in lowered.fid_items:
        if item < 0:
            if item == FID_1Q:
                if log_1q is None:
                    log_fid = neg_inf
                elif log_fid != neg_inf:
                    log_fid += log_1q
            else:
                if log_measure is None:
                    log_fid = neg_inf
                elif log_fid != neg_inf:
                    log_fid += log_measure
            continue
        repetitions, background, background_reps, instability = \
            slot_terms[item]
        # Background heating of the chain since the start of execution adds
        # to its shuttling-induced energy for the gate error (but is not
        # reported: Figure 6f tracks shuttling-induced energy only).
        background_energy = background_rate * starts[gate_pos]
        motional = instability * (
            2.0 * (gate_energies[gate_pos] + background_energy) + 1.0)
        background_total += background_reps
        motional_total += motional * repetitions
        num_ms += repetitions
        total = background + motional
        clamped = 1.0 - total
        if clamped > 1.0:
            clamped = 1.0
        if clamped < min_fidelity:
            clamped = min_fidelity
        # clamped ** 1 is exact (IEEE pow(x, 1) == x); skip the call.
        fid = clamped if repetitions == 1 else clamped ** repetitions
        if op_fidelities is not None:
            op_fidelities[lowered.gate_ops[gate_pos]] = fid
        gate_pos += 1
        if fid <= 0.0:
            log_fid = neg_inf
        elif log_fid != neg_inf:
            log_fid += log(fid)

    return log_fid, background_total, motional_total, num_ms


def _evaluate(plan: BatchPlan, program: QCCDProgram, gate, model,
              trap_names: Tuple[str, ...], with_breakdown: bool,
              keep_timeline: bool) -> SimulationResult:
    """Evaluate one (gate, physical-model) variant against the plan."""

    # Both noise models validate their parameters on construction; keep
    # that contract even when every heavy structure comes from a cache.
    heating_params = model.heating
    heating_params.validate()
    fidelity_model = plan._fidelity_models.get(model.fidelity)
    if fidelity_model is None:
        fidelity_model = FidelityModel(model.fidelity)
        plan._fidelity_models[model.fidelity] = fidelity_model

    slot_key = (gate, model.shuttle, model.single_qubit)
    slot = plan._duration_slots.get(slot_key)
    if slot is None:
        # Positive durations are what the timeline walk assumes (see
        # "Timeline walk" above); gate times are clamped positive already.
        model.shuttle.validate()
        model.single_qubit.validate()
        values = plan.lowered.slot_values(gate, model)
        timeline = plan.timeline_for(values, trap_names)
        plan._duration_slots[slot_key] = (values, timeline)
    else:
        values, timeline = slot
        plan.timeline_hits += 1
    trajectory = plan.trajectory_for(program, heating_params, trap_names)
    background_rate = heating_params.background_rate

    noise_key = (id(timeline), id(trajectory), model.fidelity, background_rate)
    op_fidelities = None
    noise = plan._noise_memo.get(noise_key)
    if keep_timeline:
        # Per-op fidelities: the model constant for single-qubit gates and
        # measurements, 1.0 for shuttles; the noise pass fills in the MS
        # gates (the memo keeps totals only, so it runs again).
        constant = [1.0] * len(KINDS)
        constant[GATE_1Q] = fidelity_model.single_qubit_fidelity()
        constant[MEASURE] = fidelity_model.measurement_fidelity()
        op_fidelities = [constant[code] for code in plan.lowered.codes]
        noise = None
    if noise is None:
        noise = _noise_pass(plan, values, timeline.starts,
                            trajectory.gate_energies, fidelity_model,
                            background_rate, op_fidelities)
        plan._noise_memo[noise_key] = noise
    log_fid, background_total, motional_total, num_ms = noise
    records = None
    if keep_timeline:
        durations, finish, _ = _walk(plan.lowered, values)
        records = [
            OperationRecord(op_id=index, kind=KINDS[code], start=end - duration,
                            finish=end, fidelity=fidelity)
            for index, (code, duration, end, fidelity) in enumerate(zip(
                plan.lowered.codes, durations, finish, op_fidelities))
        ]

    plan.variants_evaluated += 1
    makespan = timeline.makespan
    if with_breakdown:
        computation_time = timeline.computation_time
        communication_time = timeline.communication_time
    else:
        computation_time = makespan
        communication_time = 0.0
    return SimulationResult(
        duration=makespan,
        fidelity=SimulationResult.fidelity_from_log(log_fid),
        log_fidelity=log_fid,
        computation_time=computation_time,
        communication_time=communication_time,
        op_counts=program.op_counts(),
        mean_background_error=background_total / num_ms if num_ms else 0.0,
        mean_motional_error=motional_total / num_ms if num_ms else 0.0,
        total_background_error=background_total,
        total_motional_error=motional_total,
        max_motional_energy=trajectory.max_energy,
        final_trap_energies=dict(trajectory.final_trap_energies),
        peak_occupancy=dict(trajectory.peak_occupancy),
        num_shuttles=program.num_shuttles,
        num_ms_gates=num_ms,
        trap_gate_busy_time=dict(timeline.trap_gate_busy),
        trap_comm_busy_time=dict(timeline.trap_comm_busy),
        timeline=records,
        circuit_name=program.circuit_name,
        device_name=program.device_name,
    )


def _simulate_specs(program: QCCDProgram, specs: Sequence[Tuple],
                    trap_names: Tuple[str, ...], *, with_breakdown: bool = True,
                    keep_timeline: bool = False,
                    stats: Optional[Dict[str, int]] = None,
                    ) -> List[SimulationResult]:
    """Evaluate ``(gate, model)`` specs against the plan, tracking counters.

    The one driver behind :func:`repro.sim.engine.simulate` and every batch
    entry point.
    """

    had_plan = getattr(program, "_batch_plan", None) is not None and \
        program._batch_plan.records is program.records
    with span("sim.batch.plan", reused=had_plan,
              circuit=program.circuit_name):
        plan = batch_plan(program)
    timelines_before = plan.timelines_built
    hits_before = plan.timeline_hits

    with span("sim.batch.variants", circuit=program.circuit_name,
              variants=len(specs)) as trace:
        results = [_evaluate(plan, program, gate, model, trap_names,
                             with_breakdown, keep_timeline)
                   for gate, model in specs]
        trace.set(timelines=plan.timelines_built - timelines_before,
                  timeline_hits=plan.timeline_hits - hits_before)

    if stats is not None:
        stats["plans"] = stats.get("plans", 0) + (0 if had_plan else 1)
        stats["plan_reuses"] = stats.get("plan_reuses", 0) + (1 if had_plan else 0)
        stats["variants"] = stats.get("variants", 0) + len(results)
        stats["timelines"] = stats.get("timelines", 0) + \
            (plan.timelines_built - timelines_before)
        stats["timeline_hits"] = stats.get("timeline_hits", 0) + \
            (plan.timeline_hits - hits_before)
    return results


def _trap_names(device: QCCDDevice) -> Tuple[str, ...]:
    return tuple(trap.name for trap in device.topology.traps)


def _simulate_gates(program: QCCDProgram, device: QCCDDevice,
                    gates: Sequence[str], *, keep_timeline: bool = False,
                    stats: Optional[Dict[str, int]] = None,
                    ) -> List[SimulationResult]:
    specs = [(GateImplementation.from_name(gate), device.model)
             for gate in gates]
    return _simulate_specs(program, specs, _trap_names(device),
                           keep_timeline=keep_timeline, stats=stats)


def simulate_batch(program: QCCDProgram, devices: Sequence[QCCDDevice], *,
                   with_breakdown: bool = True,
                   stats: Optional[Dict[str, int]] = None,
                   ) -> List[SimulationResult]:
    """Simulate ``program`` under every device variant, in one shared pass.

    Every device must target the same topology as the program was compiled
    for (gate implementation and physical-model parameters are free to vary;
    that is the fan-out).  Results are identical to calling
    :func:`repro.sim.engine.simulate` once per device, in order.

    Parameters
    ----------
    with_breakdown:
        As in :func:`~repro.sim.engine.simulate`: when ``False`` the
        computation versus communication split collapses to the makespan.
    stats:
        Optional counter dictionary (e.g. ``ProgramCache.batch``);
        plan/timeline activity for this call is accumulated into it under
        the keys ``plans``/``plan_reuses``/``variants``/``timelines``/
        ``timeline_hits``.
    """

    devices = list(devices)
    if not devices:
        return []
    first_topology = devices[0].topology
    trap_names = _trap_names(devices[0])
    for device in devices[1:]:
        if device.topology is not first_topology and \
                _trap_names(device) != trap_names:
            raise ValueError(
                "simulate_batch variants must share the compiled program's "
                f"topology; got {device.topology.name!r} after "
                f"{first_topology.name!r}")
    return _simulate_specs(program,
                           [(device.gate, device.model) for device in devices],
                           trap_names, with_breakdown=with_breakdown,
                           stats=stats)


def simulate_gate_variants(program: QCCDProgram, device: QCCDDevice,
                           gates: Sequence[str], *,
                           stats: Optional[Dict[str, int]] = None,
                           ) -> List[SimulationResult]:
    """Batch-simulate one compiled program under several gate implementations.

    The Figure 8 fan-out: the compiled operation stream is shared, only gate
    durations and fidelities differ per variant.  Identical to simulating
    ``device.with_gate(gate)`` per entry, but without constructing any
    per-variant device.
    """

    return _simulate_gates(program, device, gates, stats=stats)


def simulate_model_variants(program: QCCDProgram, device: QCCDDevice,
                            models: Sequence, *,
                            stats: Optional[Dict[str, int]] = None,
                            ) -> List[SimulationResult]:
    """Batch-simulate one compiled program under several physical models.

    The ablation-bench fan-out: heating/fidelity parameter vectors that share
    the gate implementation reuse one timeline (the duration vector is
    unchanged) and, when only fidelity parameters differ, one heating
    trajectory as well.
    """

    specs = [(device.gate, model) for model in models]
    return _simulate_specs(program, specs, _trap_names(device), stats=stats)
