"""Memoized execution of design-space sweep tasks.

The paper's figures are large sweeps: every (application x capacity x
topology x gate x reorder) point runs the full compile->simulate pipeline.
This module holds the two pieces every sweep and figure driver shares:

* :class:`ProgramCache` -- a compiled-program memo keyed by the *compile
  relevant* inputs: the circuit's structural fingerprint plus (topology,
  capacity, reorder, buffer, mapping, routing, lowering).  The two-qubit gate
  implementation is deliberately **not** part of the key: it changes only
  durations and fidelities, never the compiled operation sequence, which is
  exactly the sharing :func:`~repro.toolflow.runner.run_gate_variants`
  exploits for Figure 8.  With the cache, *every* sweep (capacity, topology,
  microarchitecture) shares compilations the same way.  A compilation is
  held only while its sweep still needs it: the DSE runner releases it once
  every gate of the design space has a stored row at that point.  Separate
  sweeps reuse each other's work through one shared
  :class:`~repro.dse.store.ExperimentStore`, which replays whole design
  points without compiling or simulating.
* :func:`execute_task` -- one :class:`SweepTask` (a compilation and the
  gates simulated on it) run against a cache.  The DSE runner calls it once
  per task, in point order.  Sweeps run in parallel only through the work
  ledger (:mod:`repro.dse.dispatch`): ``--jobs N`` fills the run's store
  with N local ledger workers, each running this same function, and the
  serial driver then replays every point from the store.

Gate fan-outs (``SweepTask.gates``) are simulated in one batched call
(:func:`repro.sim.batch.simulate_gate_variants`): one plan per compiled
program, one timeline walk per distinct duration vector, and a reduced
per-variant noise pass -- the same engine as single-point
:func:`~repro.sim.engine.simulate`, so results do not depend on the path.
Tasks with ``keep_timeline=True`` take the same batched evaluation, which
then also materialises each variant's per-operation timeline.

Physical-model parameters are allowed to differ between cache hits: the
compiler never reads them (they only drive simulation), which is asserted by
the toolflow tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.checks import checks_enabled
from repro.compiler.compile import CompilerOptions, compile_circuit
from repro.hardware.device import QCCDDevice
from repro.models.gate_times import GateImplementation
from repro.io.fingerprint import circuit_fingerprint
from repro.ir.circuit import Circuit
from repro.isa.program import QCCDProgram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim.batch import _simulate_gates, simulate_gate_variants
from repro.sim.engine import simulate
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.runner import ExperimentRecord


class ProgramCache:
    """Memo of compiled programs, shared across sweep points.

    The cached device is the one the program was compiled for; requests for a
    different gate implementation receive ``device.with_gate(...)`` copies,
    mirroring :func:`~repro.toolflow.runner.run_gate_variants`.

    A program stays held until :meth:`release` drops it.  The DSE runner
    (:class:`~repro.dse.runner.DSERunner`, behind every sweep and figure
    function) releases a compilation as soon as its store holds a row for
    every gate of the design space at that point: from then on every such
    point replays from the store, so no evaluation reads the program
    again.  Work repeated across separate sweeps is reused by sharing one
    :class:`~repro.dse.store.ExperimentStore`, not one cache.

    Counters live in a :class:`~repro.obs.metrics.MetricsRegistry` (one per
    cache by default, so separate sweeps count independently) under the
    names ``cache.hits``, ``cache.misses`` and ``cache.batch.*`` -- the
    same names worker telemetry and the ``--trace`` manifest report.
    :meth:`stats` presents them under the legacy flat keys, so the printed
    sweep summary is byte-stable.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._programs: Dict[Tuple, Tuple[QCCDProgram, QCCDDevice]] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        #: Batch-simulation activity against programs of this cache, in the
        #: key scheme of :func:`repro.sim.batch.simulate_batch`'s ``stats``
        #: parameter (``plans``/``plan_reuses``/``variants``/``timelines``/
        #: ``timeline_hits``) -- a dict facade over ``cache.batch.*``
        #: registry counters.
        self.batch = self.metrics.dict_view("cache.batch.")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def __len__(self) -> int:
        return len(self._programs)

    @staticmethod
    def key_for(circuit: Circuit, config: ArchitectureConfig,
                options: Optional[CompilerOptions] = None) -> Tuple:
        """The compile-relevant identity of a sweep point.

        Excludes the gate implementation (it does not affect compilation) and
        the physical model parameters (the compiler never reads them).
        """

        options = options or CompilerOptions()
        return (
            circuit_fingerprint(circuit),
            config.topology,
            config.trap_capacity,
            config.reorder,
            config.buffer_ions,
            options.mapping,
            options.routing,
            options.lower_to_native,
        )

    def get_or_compile(self, circuit: Circuit, config: ArchitectureConfig,
                       options: Optional[CompilerOptions] = None,
                       ) -> Tuple[QCCDProgram, QCCDDevice]:
        """Return the compiled ``(program, device)`` for a sweep point.

        On a hit the stored program is returned with a device carrying the
        requested gate implementation; on a miss the circuit is compiled and
        stored.
        """

        key = self.key_for(circuit, config, options)
        entry = self._programs.get(key)
        if entry is not None:
            self._hits.inc()
            program, device = entry
            # The cached program is valid for any gate implementation and any
            # physical-model parameters (neither affects compilation), but the
            # *device* handed back must carry the requested ones -- they drive
            # the simulation.
            gate = GateImplementation.from_name(config.gate)
            if device.gate is not gate or device.model != config.model:
                device = replace(device, gate=gate, model=config.model, name="")
            return program, device
        self._misses.inc()
        device = config.build_device(circuit.num_qubits)
        program = compile_circuit(circuit, device, options)
        self._programs[key] = (program, device)
        return program, device

    def release(self, key: Tuple) -> None:
        """Drop the compilation held under ``key`` (a :meth:`key_for` value).

        The program, with its lowering and batch plan, is freed once no
        caller holds it; a later request for the key compiles again.  A key
        the cache does not hold is ignored.
        """

        self._programs.pop(key, None)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters, compilations still held, batch activity.

        ``entries`` counts the compilations the cache holds now: those
        compiled through it and not yet released.  The ``batch_*`` keys
        count batch-engine work done against programs compiled through this
        cache: plans built (one per program) versus reused across tasks,
        variants evaluated, and timeline walks performed versus skipped
        thanks to duration-vector dedup.
        """

        stats = {"hits": self.hits, "misses": self.misses,
                 "entries": len(self._programs)}
        batch = self.batch
        stats["batch_plans"] = batch.get("plans", 0)
        stats["batch_plan_reuses"] = batch.get("plan_reuses", 0)
        stats["batch_variants"] = batch.get("variants", 0)
        stats["batch_timelines"] = batch.get("timelines", 0)
        stats["batch_timeline_hits"] = batch.get("timeline_hits", 0)
        return stats


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: compile once, simulate one or more gates.

    ``gates`` is ``None`` for a plain :func:`run_experiment`-style point; a
    tuple of gate implementation names produces one record per gate from the
    single compilation (the Figure 8 fan-out).
    """

    circuit: Circuit
    config: ArchitectureConfig
    gates: Optional[Tuple[str, ...]] = None
    options: Optional[CompilerOptions] = None
    keep_timeline: bool = False


def execute_task(task: SweepTask, cache: ProgramCache) -> List[ExperimentRecord]:
    """Run one task against ``cache``; mirrors the serial runner drivers.

    Every record carries ``wall_s``, the wall-clock cost of producing it: its
    simulation share plus an even share of the task's compile time (zero on a
    cache hit).  The DSE store persists these timings, which is what drives
    ``dse status --eta`` and the dispatcher's progress watch.

    Gate fan-outs run as one batched evaluation of the whole ``gates``
    tuple (:func:`repro.sim.batch.simulate_gate_variants`; with
    ``keep_timeline=True`` each result also carries its per-operation
    timeline), and each record's ``wall_s`` is an even apportionment of the
    batch's measured wall time.
    """

    with span("sweep.task", app=task.circuit.name,
              gates=len(task.gates) if task.gates else 1):
        return _execute_task(task, cache)


def _execute_task(task: SweepTask, cache: ProgramCache) -> List[ExperimentRecord]:
    compile_start = perf_counter()
    program, device = cache.get_or_compile(task.circuit, task.config, task.options)
    if checks_enabled():
        # Covers the cache-hit path (a fresh compile already verified); the
        # per-program memo makes repeat hits free.
        from repro.analyze.runtime import verify_or_raise

        verify_or_raise(program, device)
    compile_s = perf_counter() - compile_start
    program_size = len(program)
    num_shuttles = program.num_shuttles
    records: List[ExperimentRecord] = []
    if task.gates is None:
        sim_start = perf_counter()
        result = simulate(program, device, keep_timeline=task.keep_timeline)
        sim_s = perf_counter() - sim_start
        records.append(ExperimentRecord(
            application=task.circuit.name,
            config=task.config,
            result=result,
            program_size=program_size,
            num_shuttles=num_shuttles,
            wall_s=compile_s + sim_s,
        ))
        return records
    compile_share = compile_s / len(task.gates)
    sim_start = perf_counter()
    if task.keep_timeline:
        # The driver behind simulate_gate_variants, which takes no
        # timeline flag of its own.
        results = _simulate_gates(program, device, task.gates,
                                  keep_timeline=True, stats=cache.batch)
    else:
        results = simulate_gate_variants(program, device, task.gates,
                                         stats=cache.batch)
    sim_share = (perf_counter() - sim_start) / len(task.gates)
    for gate, result in zip(task.gates, results):
        records.append(ExperimentRecord(
            application=task.circuit.name,
            config=task.config.with_updates(gate=gate),
            result=result,
            program_size=program_size,
            num_shuttles=num_shuttles,
            wall_s=compile_share + sim_share,
        ))
    return records
