"""The DSE runner: drives design points through the compile/simulate pipeline.

:class:`DSERunner` is the execution layer between a :class:`DesignSpace` (or
any point list a strategy proposes) and the parallel sweep executor of
:mod:`repro.toolflow.parallel`:

* **Store-first.**  Every point is fingerprinted; points already in the
  :class:`~repro.dse.store.ExperimentStore` are replayed from disk instead of
  recomputed (resume-after-kill, overlapping spaces, warm re-runs).
* **Gate fan-out.**  Consecutive pending points that differ only in the
  two-qubit gate implementation become one :class:`SweepTask` -- one
  compilation, batch-simulated under every gate in a single shared pass
  (:func:`repro.sim.batch.simulate_batch`), exactly like the Figure 8
  driver.
* **Release.**  Once the store holds a point under every gate of the space,
  the runner drops that compilation from its program cache.
* **Deterministic parallelism.**  Tasks run through
  :func:`~repro.toolflow.parallel.run_tasks`; results come back in point
  order for any ``jobs`` value.
* **Sharding.**  With ``shard=Shard(i, n)`` the runner evaluates only the
  points whose *compilation* hashes into shard ``i`` (see
  :meth:`DSERunner.partition_key`), so every gate variant of a program
  lands in one shard and runs as one batched fan-out.  Every shard appends
  to its own store file, so N machines can split one space and the
  directory union is the full result set.  All ``--shard i/N`` runs of one
  space must use the same version of this package: earlier versions
  assigned shards by point fingerprint, and runs under the two partitions
  would each skip points the other one owns.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.space import DesignPoint, DesignSpace, Shard
from repro.dse.store import (
    DEFAULT_WRITER,
    ExperimentStore,
    record_to_row,
    row_to_record,
)
from repro.io.fingerprint import design_point_fingerprint
from repro.ir.circuit import Circuit
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import span
from repro.toolflow.parallel import ProgramCache, SweepTask, iter_tasks


def _default_circuit_builder(app: str, qubits: Optional[int]) -> Circuit:
    from repro.apps.suite import build_application

    return build_application(app, num_qubits=qubits)


class DSERunner:
    """Evaluates design points against a store, a cache and a worker pool.

    Parameters
    ----------
    space:
        The design space being explored (strategies enumerate from it).
    store:
        Experiment store for resume/dedup; defaults to an in-memory store.
    circuits:
        Optional mapping of application name to a pre-built circuit.  When
        given, point ``qubits`` must be ``None`` (the circuits *are* the
        sizes); when omitted, circuits are built on demand from the Table II
        generators at each point's size.
    jobs:
        Worker processes for the underlying sweep executor (1 = serial).
    shard:
        Evaluate only this shard's points (see :class:`Shard`).
    cache:
        Compiled-program cache shared across evaluations (one per runner by
        default).  After each task the runner releases the task's
        compilation once the store holds a row for every gate in
        ``space.gates`` at that point, so the cache keeps only the
        compilations whose gate variants some later point may still ask
        for.  Reuse across runs goes through a shared ``store``.
    heartbeat:
        Optional no-argument callable invoked after each completed-and-
        persisted task group.  The dispatch worker loop
        (:func:`~repro.dse.dispatch.run_worker`) sets it per leased work
        item to renew the worker's lease on it (and to abort the item, by
        raising :class:`~repro.dse.dispatch.LeaseLost`, when the lease was
        reclaimed by another worker); progress monitors can use it as a
        tick.
    """

    def __init__(self, space: DesignSpace, store: Optional[ExperimentStore] = None, *,
                 circuits: Optional[Dict[str, Circuit]] = None,
                 jobs: int = 1,
                 shard: Optional[Shard] = None,
                 cache: Optional[ProgramCache] = None,
                 circuit_builder: Optional[Callable[[str, Optional[int]], Circuit]] = None,
                 heartbeat: Optional[Callable[[], None]] = None,
                 ) -> None:
        if (store is not None and shard is not None
                and store.directory is not None
                and store.writer == DEFAULT_WRITER):
            # Default writer: shard runs retarget to their own shard file.
            # A caller-chosen writer (e.g. the dispatcher's per-owner files)
            # is respected.
            store.set_writer(shard.name)
        self.space = space
        self.store = store if store is not None else ExperimentStore()
        self.circuits = dict(circuits) if circuits is not None else None
        self.jobs = jobs
        self.shard = shard
        self.cache = cache if cache is not None else ProgramCache()
        self.heartbeat = heartbeat
        self._circuit_builder = circuit_builder or _default_circuit_builder
        self._circuit_memo: Dict[Tuple[str, Optional[int]], Circuit] = {}
        self._fingerprint_memo: Dict[DesignPoint, str] = {}
        self.stats = {"evaluated": 0, "reused": 0, "skipped": 0}
        #: Active provenance context (strategy name, seed, rung): stamped
        #: into every store row this runner persists (schema v3).  Set by
        #: strategies and, per proposal part, the dispatch worker loop;
        #: ``None`` leaves rows provenance-free (direct evaluations, grid
        #: shards, pre-v3 behaviour).
        self.provenance: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    def circuit_for(self, app: str, qubits: Optional[int]) -> Circuit:
        """The circuit of one point (provided suite entry or generated)."""

        key = (app, qubits)
        circuit = self._circuit_memo.get(key)
        if circuit is not None:
            return circuit
        if self.circuits is not None:
            if qubits is not None:
                raise ValueError(
                    "explicit qubit overrides need the default application "
                    "builder; this runner was given pre-built circuits")
            try:
                circuit = self.circuits[app]
            except KeyError:
                raise ValueError(f"no circuit provided for application {app!r}")
        else:
            circuit = self._circuit_builder(app, qubits)
        self._circuit_memo[key] = circuit
        return circuit

    def fingerprint(self, point: DesignPoint) -> str:
        """Stable store key of a point (memoised per runner)."""

        cached = self._fingerprint_memo.get(point)
        if cached is None:
            circuit = self.circuit_for(point.app, point.qubits)
            cached = design_point_fingerprint(circuit, point.config)
            self._fingerprint_memo[point] = cached
        return cached

    def partition_key(self, point: DesignPoint) -> str:
        """Shard-assignment digest of a point.

        The sha256 of :meth:`ProgramCache.key_for` -- the definition of
        "same compilation", which leaves out the gate -- so points sharing
        a compiled program share a shard.
        """

        circuit = self.circuit_for(point.app, point.qubits)
        key = ProgramCache.key_for(circuit, point.config)
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    def evaluate(self, points: Sequence[DesignPoint]) -> List[object]:
        """Evaluate ``points``, returning one record per point, in order.

        Points already in the store come back as
        :class:`~repro.dse.store.CachedRecord` without recomputation; fresh
        points are executed (in parallel for ``jobs > 1``) and appended to
        the store.  Shard-foreign points yield ``None`` (they belong to
        another shard and are not evaluated here) unless the store already
        has them.
        """

        points = list(points)
        before = dict(self.stats)
        with span("dse.evaluate", points=len(points)) as trace:
            results = self._evaluate(points)
            trace.set(evaluated=self.stats["evaluated"] - before["evaluated"],
                      reused=self.stats["reused"] - before["reused"])
        registry = _metrics_registry()
        for key in ("evaluated", "reused", "skipped"):
            delta = self.stats[key] - before[key]
            if delta:
                registry.counter(f"dse.points.{key}").inc(delta)
        return results

    def _evaluate(self, points: List[DesignPoint]) -> List[object]:
        fingerprints = [self.fingerprint(point) for point in points]

        # Slot plan: cached rows replay, duplicates alias the first
        # occurrence, shard-foreign points are skipped, the rest execute.
        CACHED, ALIAS, SKIP, RUN = "cached", "alias", "skip", "run"
        slots: List[Tuple[str, object]] = []
        first_index: Dict[str, int] = {}
        pending: List[int] = []
        for index, (point, fingerprint) in enumerate(zip(points, fingerprints)):
            row = self.store.get(fingerprint)
            if row is not None:
                slots.append((CACHED, row))
                self.stats["reused"] += 1
            elif fingerprint in first_index:
                slots.append((ALIAS, first_index[fingerprint]))
            elif (self.shard is not None
                  and not self.shard.owns(self.partition_key(point))):
                slots.append((SKIP, None))
                self.stats["skipped"] += 1
            else:
                first_index[fingerprint] = index
                slots.append((RUN, None))
                pending.append(index)

        # Fold consecutive pending points that differ only in the gate into
        # one task (one compilation, many simulated gate variants).
        groups: List[List[int]] = []
        prev_index = prev_key = None
        for index in pending:
            point = points[index]
            circuit = self.circuit_for(point.app, point.qubits)
            key = (id(circuit), replace(point.config, gate="FM"))
            if groups and prev_index == index - 1 and key == prev_key:
                groups[-1].append(index)
            else:
                groups.append([index])
            prev_index, prev_key = index, key

        tasks = []
        for group in groups:
            first = points[group[0]]
            circuit = self.circuit_for(first.app, first.qubits)
            if len(group) == 1:
                tasks.append(SweepTask(circuit, first.config))
            else:
                gates = tuple(points[index].config.gate for index in group)
                tasks.append(SweepTask(circuit, first.config, gates=gates))

        # Stream task results: every completed design point is persisted the
        # moment it finishes, so a killed run resumes at point granularity.
        results: List[object] = [None] * len(points)
        for group, task, records in zip(groups, tasks,
                                        iter_tasks(tasks, jobs=self.jobs,
                                                   cache=self.cache)):
            for index, record in zip(group, records):
                results[index] = record
                self.stats["evaluated"] += 1
                self.store.add(record_to_row(fingerprints[index],
                                             points[index], record,
                                             provenance=self.provenance))
            self._release_if_stored(points[group[0]], task.circuit)
            if self.heartbeat is not None:
                self.heartbeat()

        for index, (kind, payload) in enumerate(slots):
            if kind == CACHED:
                results[index] = row_to_record(payload)
            elif kind == ALIAS:
                results[index] = results[payload]
        return results

    def _release_if_stored(self, point: DesignPoint, circuit: Circuit) -> None:
        """Drop ``point``'s compilation once every gate of the space is stored.

        Points that differ only in the gate share one compilation, and a
        stored point replays instead of compiling, so once the store holds
        each of them no evaluation reads the program again.
        """

        for gate in self.space.gates:
            variant = replace(point, config=point.config.with_updates(gate=gate))
            if self.store.get(self.fingerprint(variant)) is None:
                return
        self.cache.release(ProgramCache.key_for(circuit, point.config))

    def evaluate_space(self) -> List[object]:
        """Evaluate every point of the space in enumeration order."""

        return self.evaluate(list(self.space.points()))

    def run(self, strategy=None):
        """Explore the space under ``strategy`` (exhaustive grid by default)."""

        from repro.dse.strategies import ExhaustiveGrid

        strategy = strategy if strategy is not None else ExhaustiveGrid()
        if self.shard is not None and not strategy.shardable:
            raise ValueError(
                f"strategy {strategy.name!r} adapts to earlier results and "
                f"cannot be sharded; run it unsharded (or shard grid/random, "
                f"or distribute adaptive search with "
                f"`repro dse dispatch --strategy {strategy.name}`)")
        try:
            return strategy.run(self)
        finally:
            # The strategy's provenance context ends with the run: a later
            # direct evaluate() must not stamp rows it never proposed.
            self.provenance = None
