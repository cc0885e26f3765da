"""Memoized execution of design-space sweep tasks.

The paper's figures are large sweeps: every (application x capacity x
topology x gate x reorder) point runs the full compile->simulate pipeline.
This module holds the two pieces every sweep and figure driver shares:

* :class:`ProgramCache` -- a compiled-program memo keyed by the *compile
  relevant* inputs: the circuit's structural fingerprint plus (topology,
  capacity, reorder, buffer).  The two-qubit gate implementation is
  deliberately **not** part of the key: it changes only durations and
  fidelities, never the compiled operation sequence, which is exactly the
  sharing :func:`~repro.toolflow.runner.run_gate_variants` exploits for
  Figure 8.  With the cache, *every* sweep (capacity, topology,
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

Every task, a lone point included, is simulated in one batched call
(:func:`repro.sim.batch.simulate_gate_variants`): one plan per compiled
program, one timeline walk per distinct duration vector, and a reduced
per-variant noise pass -- the engine behind
:func:`~repro.sim.engine.simulate` too, so results do not depend on the
path.

Physical-model parameters are allowed to differ between cache hits: the
compiler never reads them (they only drive simulation), which is asserted by
the toolflow tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.checks import checks_enabled
from repro.hardware.device import QCCDDevice
from repro.models.gate_times import GateImplementation
from repro.io.fingerprint import circuit_fingerprint
from repro.ir.circuit import Circuit
from repro.isa.program import QCCDProgram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim.batch import simulate_gate_variants
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.runner import ExperimentRecord, compile_for


class ProgramCache:
    """Memo of compiled programs, shared across sweep points.

    The cached device is the one the program was compiled for; requests for a
    different gate implementation or physical model receive a copy carrying
    the requested ones.

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
    def key_for(circuit: Circuit, config: ArchitectureConfig) -> Tuple:
        """The compile-relevant identity of a sweep point.

        Excludes the gate implementation (it does not affect compilation) and
        the physical model parameters (the compiler never reads them).
        """

        return (
            circuit_fingerprint(circuit),
            config.topology,
            config.trap_capacity,
            config.reorder,
            config.buffer_ions,
        )

    def get_or_compile(self, circuit: Circuit, config: ArchitectureConfig,
                       ) -> Tuple[QCCDProgram, QCCDDevice]:
        """Return the compiled ``(program, device)`` for a sweep point.

        On a hit the stored program is returned with a device carrying the
        requested gate implementation; on a miss the circuit is compiled and
        stored.
        """

        key = self.key_for(circuit, config)
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
        program, device = compile_for(circuit, config)
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

    ``gates`` is a tuple of gate implementation names, one record per gate
    from the single compilation (the Figure 8 fan-out); ``None`` means the
    config's own gate.
    """

    circuit: Circuit
    config: ArchitectureConfig
    gates: Optional[Tuple[str, ...]] = None


def execute_task(task: SweepTask, cache: ProgramCache) -> List[ExperimentRecord]:
    """Run one task against ``cache``: one compilation, one batched
    evaluation of every gate (:func:`repro.sim.batch.simulate_gate_variants`,
    counted in ``cache.batch``), one record per gate.

    Every record carries ``wall_s``, the wall-clock cost of producing it: an
    even share of the task's compile time (the memo lookup on a cache hit)
    plus an even share of the batch's.  The DSE store persists these
    timings, which is what drives ``dse status --eta`` and the dispatcher's
    progress watch.
    """

    gates = task.gates if task.gates is not None else (task.config.gate,)
    with span("sweep.task", app=task.circuit.name, gates=len(gates)):
        compile_start = perf_counter()
        program, device = cache.get_or_compile(task.circuit, task.config)
        if checks_enabled():
            # Covers the cache-hit path (a fresh compile already verified);
            # the per-program memo makes repeat hits free.
            from repro.analyze.runtime import verify_or_raise

            verify_or_raise(program, device)
        compile_share = (perf_counter() - compile_start) / len(gates)
        sim_start = perf_counter()
        results = simulate_gate_variants(program, device, gates,
                                         stats=cache.batch)
        sim_share = (perf_counter() - sim_start) / len(gates)
        program_size, num_shuttles = len(program), program.num_shuttles
        return [ExperimentRecord(
            application=task.circuit.name,
            config=task.config.with_updates(gate=gate),
            result=result,
            program_size=program_size,
            num_shuttles=num_shuttles,
            wall_s=compile_share + sim_share,
        ) for gate, result in zip(gates, results)]
