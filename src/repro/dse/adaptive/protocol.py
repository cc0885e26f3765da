"""The distributed propose/evaluate protocol for adaptive search.

PR 3's shard dispatcher cannot run adaptive strategies: static shards fix
every point before any result exists, while an adaptive search must *see*
results to choose its next points.  This module splits the two roles over
the shared store directory, with no coordination machinery beyond what the
shard ledger already established:

* The **proposer** (one process, ``repro dse propose`` or the strategy
  side of ``repro dse dispatch --strategy bayes``) writes numbered,
  *signed* proposal files into ``<store>/proposals/`` -- atomic temp-write
  + rename, a SHA-256 content signature over the canonical payload so a
  torn or tampered proposal is detected rather than half-read.  Each
  logical batch is split into ``parts`` leaseable slices so the whole
  worker fleet shares it.  The proposer then watches the experiment store
  (incremental :meth:`~repro.dse.store.ExperimentStore.reload`, O(new
  rows) per tick) until every point of the outstanding batch has a row,
  ingests the objective values, and emits the next batch.  A signed
  ``complete.json`` marker ends the run and records the best point.
* **Workers** (any number, ``repro dse worker`` -- the same entry point as
  shard runs; the manifest's ``mode: "adaptive"`` routes them here) lease
  proposal parts through a :class:`~repro.dse.dispatch.LeaseDir` exactly
  like shards: atomic claim, heartbeat renewal after every persisted task
  group, expiry-based takeover of a SIGKILLed worker's part, done markers.
  Results are appended to the store as always (per-owner writer files,
  fingerprint dedup).

Crash recovery needs the ledger alone: a killed worker's part expires and
is re-leased; a killed proposer restarts, replays its own proposal files
in order (regenerating each batch deterministically and verifying it
against the stored files), re-ingests their results from the store and
continues where it stopped.  Because proposals are a pure function of
(space, strategy, seed, ingested values) and evaluation is deterministic,
a dispatched adaptive run -- even with kills on either side -- exports
byte-identically to a single-process run of the same strategy.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.dse.adaptive.propose import ProposalBatch, make_proposer
from repro.dse.dispatch import (
    DEFAULT_TTL_S,
    LeaseClock,
    LeaseDir,
    LeaseLost,
    WorkerTelemetry,
    _live_phase,
    default_owner,
    read_manifest,
    spawn_worker_process,
    write_manifest,
)
from repro.dse.pareto import objective_value
from repro.dse.runner import DSERunner
from repro.dse.space import DesignSpace, point_from_spec
from repro.dse.store import ExperimentStore, row_to_record
from repro.io.appendlog import atomic_write_text
from repro.obs.distributed import TraceContext, TraceShardWriter, adopt_shards
from repro.obs.export import filename_safe
from repro.obs.trace import current_tracer
from repro.obs.trace import span as _span

#: Subdirectory of the store directory holding the proposal ledger.
PROPOSAL_DIR = "proposals"

#: File name of the proposer's end-of-run marker.
COMPLETE_NAME = "complete.json"


class ProposalTampered(ValueError):
    """A proposal file failed its content-signature check."""


def _signature(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a payload, signature field excluded."""

    body = {key: value for key, value in payload.items() if key != "signature"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ProposalLedger:
    """The ``proposals/`` directory: signed proposal files plus lease files.

    Part ``p`` of logical batch ``n`` lives in
    ``batch-<n:06d>-part<p:02d>.json``; its lease and done marker use the
    same name through a :class:`~repro.dse.dispatch.LeaseDir`, so the
    claim/heartbeat/takeover discipline is byte-for-byte the shard
    ledger's.  All writes are atomic
    (:func:`~repro.io.appendlog.atomic_write_text`) and all payloads carry
    a content signature checked on read.
    """

    def __init__(self, store_dir, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        self.store_dir = Path(store_dir)
        self.directory = self.store_dir / PROPOSAL_DIR
        self.leases = LeaseDir(self.directory, ttl_s=ttl_s, clock=clock)
        self.ttl_s = self.leases.ttl_s
        self.clock = self.leases.clock

    # ------------------------------------------------------------------ #
    @staticmethod
    def work_name(number: int, part: int) -> str:
        return f"batch-{number:06d}-part{part:02d}"

    def work_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def work_names(self) -> List[str]:
        """Every proposal part present, in (batch, part) order."""

        if not self.directory.exists():
            return []
        return sorted(path.stem for path in self.directory.glob("batch-*.json"))

    def batch_numbers(self) -> List[int]:
        """Logical batch numbers present, ascending."""

        numbers = {int(name.split("-")[1]) for name in self.work_names()}
        return sorted(numbers)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _slices(batch: ProposalBatch, parts: int) -> List[Tuple[int, slice]]:
        """The contiguous per-part slices of one logical batch.

        Contiguity keeps enumeration-adjacent points together, which is
        what lets a worker fold gate variants into one compilation.
        """

        count = len(batch.keys)
        parts = max(1, min(int(parts), count))
        base, extra = divmod(count, parts)
        slices = []
        start = 0
        for part in range(1, parts + 1):
            stop = start + base + (1 if part <= extra else 0)
            slices.append((part, slice(start, stop)))
            start = stop
        return slices

    def _part_payload(self, batch: ProposalBatch, meta: Dict[str, object],
                      parts: int, part: int, span: slice) -> Dict[str, object]:
        from repro.io.serialization import SCHEMA_VERSION

        payload = {
            "schema_version": SCHEMA_VERSION,
            "batch": batch.number,
            "part": part,
            "parts": parts,
            "keys": list(batch.keys[span]),
            "points": [point.spec() for point in batch.points[span]],
            "rung": batch.rung,
            "proxy_qubits": batch.proxy_qubits,
        }
        payload.update(meta)
        payload["signature"] = _signature(payload)
        return payload

    def _write_part(self, payload: Dict[str, object]) -> Path:
        name = self.work_name(payload["batch"], payload["part"])
        return atomic_write_text(self.work_path(name),
                                 json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")

    def write_batch(self, batch: ProposalBatch, meta: Dict[str, object], *,
                    parts: int = 1) -> List[Path]:
        """Persist one logical batch as up to ``parts`` leaseable slices.

        Every slice is individually signed and written atomically (private
        temp file + rename).
        """

        return [self._write_part(self._part_payload(batch, meta, parts,
                                                    part, span))
                for part, span in self._slices(batch, parts)]

    def verify_or_repair_batch(self, batch: ProposalBatch,
                               meta: Dict[str, object], *,
                               parts: int = 1) -> None:
        """Reconcile stored parts of a batch with the regenerated one.

        The proposer-restart path: a proposer killed between the per-part
        renames of :meth:`write_batch` leaves a logical batch with some
        parts missing.  Parts that exist must match the regenerated slice
        byte-for-byte in content (keys and points) -- anything else means
        the ledger belongs to a different (space, strategy, seed) and is a
        hard error.  Missing or torn parts are simply (re)written, which is
        idempotent: the regenerated content is identical to what the dead
        proposer would have written.
        """

        for part, span in self._slices(batch, parts):
            expected = self._part_payload(batch, meta, parts, part, span)
            name = self.work_name(batch.number, part)
            if self.work_path(name).exists():
                try:
                    stored = self.read_work(name)
                except ProposalTampered:
                    stored = None  # torn copy: rewrite below
                if stored is not None:
                    if (stored["keys"] != expected["keys"]
                            or stored["points"] != expected["points"]):
                        raise ValueError(
                            f"proposal ledger in {self.directory} does not "
                            f"match this (space, strategy, seed): batch "
                            f"{batch.number} part {part} differs; was the "
                            f"store produced by a different run?")
                    continue
            self._write_part(expected)

    def read_work(self, name: str) -> Dict[str, object]:
        """Load and signature-check one proposal part."""

        from repro.io.serialization import check_schema_version

        path = self.work_path(name)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"no proposal part {name} at {path}")
        except json.JSONDecodeError as err:
            raise ProposalTampered(f"{path}: unparseable proposal "
                                   f"({err})") from err
        if payload.get("signature") != _signature(payload):
            raise ProposalTampered(
                f"{path}: signature mismatch -- the proposal was torn or "
                f"tampered with; delete it to let the proposer rewrite it")
        check_schema_version(payload, source=str(path))
        return payload

    @staticmethod
    def batch_from_payload(payload: Dict[str, object]) -> ProposalBatch:
        """Rebuild a (part-sized) :class:`ProposalBatch` from a payload."""

        return ProposalBatch(
            number=payload["batch"],
            keys=tuple(payload["keys"]),
            points=tuple(point_from_spec(spec) for spec in payload["points"]),
            rung=payload.get("rung"),
            proxy_qubits=payload.get("proxy_qubits"),
        )

    def read_logical_batch(self, number: int) -> Dict[str, object]:
        """The merged payload of every part of one logical batch."""

        names = [name for name in self.work_names()
                 if int(name.split("-")[1]) == number]
        if not names:
            raise ValueError(f"no proposal batch {number} in {self.directory}")
        merged: Dict[str, object] = {"batch": number, "keys": [], "points": []}
        for name in names:
            payload = self.read_work(name)
            merged["keys"].extend(payload["keys"])
            merged["points"].extend(payload["points"])
            merged["rung"] = payload.get("rung")
            merged["proxy_qubits"] = payload.get("proxy_qubits")
        return merged

    # ------------------------------------------------------------------ #
    def claim_next(self, owner: str) -> Optional[str]:
        """Claim the first available proposal part for ``owner`` (or None)."""

        for name in self.work_names():
            if self.leases.is_done(name):
                continue
            if self.leases.claim(name, owner):
                return name
        return None

    def renew(self, name: str, owner: str) -> bool:
        return self.leases.renew(name, owner)

    def release(self, name: str, owner: str, *, done: bool = True) -> None:
        self.leases.release(name, owner, done=done)

    def is_done(self, name: str) -> bool:
        return self.leases.is_done(name)

    def active_leases(self) -> int:
        """Parts currently under a fresh lease (for progress reporting)."""

        return sum(1 for name in self.work_names()
                   if self.leases.status_of(name)[0] == "active")

    # ------------------------------------------------------------------ #
    @property
    def complete_path(self) -> Path:
        return self.directory / COMPLETE_NAME

    def write_complete(self, payload: Dict[str, object]) -> Path:
        from repro.io.serialization import SCHEMA_VERSION

        body = {"schema_version": SCHEMA_VERSION}
        body.update(payload)
        body["signature"] = _signature(body)
        return atomic_write_text(self.complete_path,
                                 json.dumps(body, indent=2,
                                            sort_keys=True) + "\n")

    def read_complete(self) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(self.complete_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("signature") != _signature(payload):
            return None  # torn write in flight; treat as not-yet-complete
        return payload

    def all_done(self) -> bool:
        """True when the run is complete and every proposal part is done."""

        if self.read_complete() is None:
            return False
        return all(self.leases.is_done(name) for name in self.work_names())


# --------------------------------------------------------------------------- #
# Proposer side
# --------------------------------------------------------------------------- #
def run_proposer(store_dir, *, manifest: Optional[Dict] = None,
                 poll_s: float = 0.2,
                 tick: Optional[Callable[[], None]] = None) -> Dict[str, object]:
    """Drive an adaptive run's proposal loop to completion.

    Requires an adaptive-mode dispatch manifest in ``store_dir`` (written
    by ``repro dse dispatch --strategy bayes ...`` or
    :meth:`AdaptiveDispatcher.prepare`).  Existing proposal files are
    replayed first -- each logical batch is regenerated from the
    deterministic proposer and verified against the stored files, so a
    restarted proposer continues exactly where its predecessor was killed.
    ``tick`` (if given) is invoked on every wait poll; raising from it
    aborts the loop (the dispatcher uses this for timeouts and worker
    respawn).

    Returns ``{"batches", "evaluations", "best", "trace"}`` where ``best``
    echoes the complete-marker payload.
    """

    store_dir = Path(store_dir)
    manifest = manifest if manifest is not None else read_manifest(store_dir)
    if manifest.get("mode", "shards") != "adaptive":
        raise ValueError(
            f"store {store_dir} is not an adaptive dispatch (manifest mode "
            f"is {manifest.get('mode', 'shards')!r}); prepare it with "
            f"`repro dse dispatch --strategy bayes ...` first")
    space = DesignSpace.from_dict(manifest["space"])
    strategy_spec = dict(manifest["strategy"])
    parts = int(strategy_spec.pop("parts", 1))
    proposer = make_proposer(space, strategy_spec)
    ledger = ProposalLedger(store_dir,
                            ttl_s=manifest.get("ttl_s", DEFAULT_TTL_S))
    store = ExperimentStore(store_dir)
    # Fingerprint-only runner: builds and memoises circuits to key the
    # store, but never evaluates anything (the workers do).
    index = DSERunner(space, store=store)
    existing = set(ledger.batch_numbers())
    meta = {"strategy": proposer.strategy_name, "seed": proposer.seed,
            "metric": proposer.metric}
    if hasattr(proposer, "objectives"):
        # Multi-objective runs: the objective list rides in every proposal
        # part so workers stamp it into row provenance exactly like the
        # in-process strategy driver does -- serial and dispatched runs of
        # one study then persist identical raw rows, not only identical
        # canonical exports.
        meta["objectives"] = list(proposer.objectives)

    trace: List[Dict[str, object]] = []
    while True:
        with _span("dse.propose.batch") as batch_span:
            batch = proposer.next_batch()
            if batch is None:
                break
            batch_span.set(batch=batch.number, points=len(batch.keys))
            if batch.number in existing:
                # Replay: verify the stored parts against the regenerated
                # batch and rewrite any the dead proposer did not get to (a
                # kill can land between the per-part renames of write_batch).
                ledger.verify_or_repair_batch(batch, meta, parts=parts)
            else:
                ledger.write_batch(batch, meta, parts=parts)
        with _span("dse.propose.await", batch=batch.number,
                   points=len(batch.keys)):
            values = _await_batch(store, index, batch, proposer,
                                  poll_s=poll_s, tick=tick)
        proposer.ingest(batch, values)
        trace.append(proposer.trace_entry(batch))

    best = proposer.best()
    best_payload = None
    if best is not None:
        key, value = best
        best_payload = {"key": key, "value": value,
                        "point": proposer.candidates[key].spec()}
    complete = {
        "batches": len(trace),
        "evaluations": proposer.evaluations,
        "best": best_payload,
    }
    if hasattr(proposer, "frontier"):
        # Multi-objective runs: the complete marker records the Pareto
        # archive (key, canonical objective values, point spec), so the
        # frontier of a finished dispatched run is readable without
        # reconstructing a proposer.
        complete["objectives"] = list(proposer.objectives)
        complete["frontier"] = [
            {"key": key, "values": list(vector),
             "point": proposer.candidates[key].spec()}
            for key, vector in proposer.frontier()]
    ledger.write_complete(complete)
    summary = dict(complete)
    summary["trace"] = trace
    return summary


def _await_batch(store: ExperimentStore, index: DSERunner,
                 batch: ProposalBatch, proposer, *, poll_s: float,
                 tick: Optional[Callable[[], None]]) -> List[object]:
    """Block until every point of ``batch`` has a store row; return values.

    Scalar proposers get one :func:`~repro.dse.pareto.objective_value` per
    point; multi-objective proposers (an ``objectives`` attribute) get the
    full :func:`~repro.dse.moo.objectives.objective_vector` -- exactly what
    the in-process strategy drivers feed ``ingest``, so the proposal
    sequence is identical either way.
    """

    fingerprints = [index.fingerprint(point) for point in batch.points]
    while any(fp not in store for fp in fingerprints):
        if tick is not None:
            tick()
        time.sleep(poll_s)
        store.reload()  # incremental: O(rows appended since last poll)
    records = [row_to_record(store.get(fp)) for fp in fingerprints]
    objectives = getattr(proposer, "objectives", None)
    if objectives is not None:
        from repro.dse.moo.objectives import objective_vector

        return [objective_vector(record, objectives) for record in records]
    return [objective_value(record, proposer.metric) for record in records]


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def run_adaptive_worker(store_dir, *, manifest: Optional[Dict] = None,
                        owner: Optional[str] = None,
                        jobs: Optional[int] = None, circuits=None,
                        idle_wait_s: Optional[float] = None) -> Dict[str, object]:
    """Lease and evaluate proposal parts until the proposer declares done.

    The adaptive counterpart of the shard worker loop (and what
    :func:`repro.dse.dispatch.run_worker` delegates to for adaptive
    manifests): claim the first unleased, not-done proposal part; evaluate
    its points through a :class:`~repro.dse.runner.DSERunner` with
    heartbeat renewal after every persisted task group (a reclaimed lease
    aborts the part via :class:`~repro.dse.dispatch.LeaseLost`); mark it
    done; repeat.  When nothing is claimable the worker waits -- for the
    proposer to emit the next batch, for a dead worker's lease to expire,
    or for the complete marker, which (once every part is done) ends the
    loop.

    One store view and one compiled-program cache persist across parts;
    the store is refreshed with the incremental ``reload`` before each
    part, so rows flushed by other workers (including a dead worker's
    partial batch) replay instead of recomputing.
    """

    from repro.toolflow.parallel import ProgramCache

    store_dir = Path(store_dir)
    manifest = manifest if manifest is not None else read_manifest(store_dir)
    space = DesignSpace.from_dict(manifest["space"])
    ledger = ProposalLedger(store_dir,
                            ttl_s=manifest.get("ttl_s", DEFAULT_TTL_S))
    owner = owner or default_owner()
    jobs = int(manifest.get("jobs", 1)) if jobs is None else int(jobs)
    throttle_s = float(manifest.get("throttle_s", 0.0))
    if idle_wait_s is None:
        idle_wait_s = max(0.05, min(1.0, ledger.ttl_s / 4))

    # Join the dispatcher's trace when one was stamped into our environment
    # (the same propagation the shards-mode worker does).
    trace_ctx = TraceContext.from_env()
    tracer = trace_ctx.arm() if trace_ctx is not None else None
    cache = ProgramCache()
    completed: List[str] = []
    lost: List[str] = []
    seen_counters: Dict[str, int] = {}

    def counters_delta() -> Dict[str, int]:
        # Same per-done metrics movement the shards-mode worker ships, so
        # the timeline's cache-rate series works for adaptive fleets too.
        current = cache.metrics.counters()
        moved = {name: value - seen_counters.get(name, 0)
                 for name, value in current.items()
                 if value != seen_counters.get(name, 0)}
        seen_counters.clear()
        seen_counters.update(current)
        return moved

    with ExitStack() as logs:
        telemetry = logs.enter_context(
            WorkerTelemetry(store_dir, owner, clock=ledger.clock))
        shard_writer = logs.enter_context(TraceShardWriter(store_dir, owner))
        telemetry.emit("worker_start", mode="adaptive", jobs=jobs,
                       pid=os.getpid())
        store = logs.enter_context(ExperimentStore(
            store_dir, writer=f"adaptive-{filename_safe(owner)}"))
        while True:
            claimed = ledger.claim_next(owner)
            if claimed is None:
                if ledger.all_done():
                    break
                time.sleep(idle_wait_s)
                continue
            telemetry.emit("claim", work=claimed, **_live_phase())
            part_started = time.perf_counter()

            payload = ledger.read_work(claimed)
            points = [point_from_spec(spec) for spec in payload["points"]]

            def heartbeat(name: str = claimed) -> None:
                if not ledger.renew(name, owner):
                    raise LeaseLost(f"lease on proposal part {name} was "
                                    f"reclaimed from {owner}")
                telemetry.emit("renew", work=name, **_live_phase())
                if throttle_s:
                    time.sleep(throttle_s)

            store.reload()  # replay rows other workers flushed meanwhile
            runner = DSERunner(space, store=store, jobs=jobs, cache=cache,
                               circuits=circuits, heartbeat=heartbeat)
            runner.provenance = {
                "strategy": payload.get("strategy"),
                "seed": payload.get("seed"),
                "rung": payload.get("rung"),
                "proxy_qubits": payload.get("proxy_qubits"),
            }
            if payload.get("objectives") is not None:
                # Multi-objective batches: mirror the serial strategy
                # driver's stamp so raw rows match serial runs exactly.
                runner.provenance["objectives"] = payload["objectives"]
            try:
                with _span("dse.part", part=claimed, owner=owner,
                           points=len(points)):
                    runner.evaluate(points)
            except LeaseLost:
                lost.append(claimed)
                telemetry.emit("lease_lost", work=claimed)
                shard_writer.flush(tracer)
                continue
            ledger.release(claimed, owner, done=True)
            completed.append(claimed)
            telemetry.emit("done", work=claimed,
                           points=runner.stats.get("evaluated", 0),
                           replayed=runner.stats.get("reused", 0),
                           wall_s=round(time.perf_counter() - part_started, 6),
                           counters=counters_delta())
            # Per-part flush: a SIGKILL costs only the spans closed since
            # the last finished part.
            shard_writer.flush(tracer)
        telemetry.emit("worker_exit", completed=len(completed),
                       lost=len(lost), counters=cache.metrics.counters())
        shard_writer.flush(tracer)
    return {"owner": owner, "completed": completed, "lost": lost}


# --------------------------------------------------------------------------- #
# Dispatcher: proposer + local worker fleet
# --------------------------------------------------------------------------- #
class AdaptiveDispatcher:
    """Drive a distributed adaptive run: one proposer, N leased workers.

    The adaptive sibling of :class:`~repro.dse.dispatch.Dispatcher`: writes
    an adaptive-mode manifest (each proposal batch split into ``workers``
    leaseable parts, so the whole fleet shares a batch), spawns N local
    ``repro dse worker`` processes (which the manifest routes into the
    proposal-part loop), and runs the proposal loop *in this process*.
    Workers that exited abnormally are respawned within a budget; a worker
    SIGKILLed mid-part loses only its lease, which a survivor reclaims
    after one TTL.  For remote fleets use :meth:`prepare` +
    ``repro dse worker --store DIR`` per machine and ``repro dse propose
    --store DIR`` wherever the proposer should live (see
    :meth:`command_lines`).
    """

    def __init__(self, space: DesignSpace, store_dir, *,
                 strategy: Dict[str, object], workers: int = 2,
                 ttl_s: float = DEFAULT_TTL_S, jobs: int = 1,
                 throttle_s: float = 0.0, poll_s: float = 0.2,
                 respawn: bool = True, max_respawns: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.space = space
        self.store_dir = Path(store_dir)
        self.strategy = dict(strategy)
        self.strategy.setdefault("parts", int(workers))
        if self.strategy.get("max_evals") is None:
            # Record the resolved budget in the manifest so progress
            # tooling (``dse status --eta``) can read it without
            # constructing a proposer.  Identical to the proposer's own
            # default, so determinism is unaffected.
            name = self.strategy.get("name")
            batch_size = self.strategy.get("batch_size", 4)
            if name == "bayes":
                from repro.dse.adaptive.propose import default_max_evals

                self.strategy["max_evals"] = default_max_evals(
                    space.size, batch_size)
            elif name in ("ehvi", "parego"):
                from repro.dse.moo.propose import default_moo_max_evals

                self.strategy["max_evals"] = default_moo_max_evals(
                    space.size, batch_size)
        self.workers = int(workers)
        self.ttl_s = float(ttl_s)
        self.jobs = int(jobs)
        self.throttle_s = float(throttle_s)
        self.poll_s = float(poll_s)
        self.respawn = respawn
        self.max_respawns = (self.workers if max_respawns is None
                             else int(max_respawns))
        self.respawned = 0
        self.ledger = ProposalLedger(self.store_dir, ttl_s=self.ttl_s)
        self._procs: List = []

    def prepare(self) -> Path:
        """Write the adaptive dispatch manifest; workers can join after this."""

        return write_manifest(self.store_dir, self.space, mode="adaptive",
                              strategy=self.strategy, ttl_s=self.ttl_s,
                              jobs=self.jobs, throttle_s=self.throttle_s)

    def command_lines(self) -> List[str]:
        """Shell commands for a remote fleet (proposer first, then workers)."""

        import shlex

        store = shlex.quote(str(self.store_dir))
        proposer = f"python -m repro dse propose --store {store}"
        worker = f"python -m repro dse worker --store {store}"
        return [proposer] + [worker] * self.workers

    def _reap_and_respawn(self) -> None:
        for proc in list(self._procs):
            if proc.poll() is None or proc.returncode == 0:
                continue
            self._procs.remove(proc)
            if (self.respawn and self.respawned < self.max_respawns
                    and not self.ledger.all_done()):
                self.respawned += 1
                self._procs.append(spawn_worker_process(self.store_dir))

    def run(self, *, timeout_s: Optional[float] = None) -> Dict[str, object]:
        """Prepare, spawn workers, run the proposer loop, reap the fleet.

        Returns the proposer summary plus fleet accounting; ``complete``
        is False when the run timed out or every worker died beyond the
        respawn budget (workers still running are then terminated).
        """

        # The dispatch span is the cross-process parent traced workers
        # hang their root spans under (spawn_worker_process stamps the
        # open span into their environment); their shards merge in after
        # the span closes.
        with _span("dse.dispatch", mode="adaptive",
                   workers=self.workers) as trace:
            summary = self._run(timeout_s=timeout_s)
            trace.set(complete=summary["complete"],
                      respawned=summary["respawned"])
        tracer = current_tracer()
        if tracer is not None:
            summary["trace"] = adopt_shards(tracer, self.store_dir)
        return summary

    def _run(self, *, timeout_s: Optional[float]) -> Dict[str, object]:
        import subprocess

        self.prepare()
        started = time.monotonic()
        self._procs = [spawn_worker_process(self.store_dir)
                       for _ in range(self.workers)]

        class _Abort(Exception):
            pass

        def tick() -> None:
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                raise _Abort
            self._reap_and_respawn()
            if not any(proc.poll() is None for proc in self._procs):
                raise _Abort  # every worker gone: nobody left to evaluate

        complete = False
        summary: Dict[str, object] = {}
        try:
            summary = run_proposer(self.store_dir, poll_s=self.poll_s,
                                   tick=tick)
            complete = True
        except _Abort:
            pass
        finally:
            # Workers exit by themselves once the complete marker lands and
            # every part is done; anything still running after a grace
            # period (timeout/abort paths) is terminated so the dispatcher
            # never leaks processes.
            deadline = time.monotonic() + max(5.0, 20 * self.poll_s)
            for proc in self._procs:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        summary = dict(summary)
        summary.update({
            "complete": complete,
            "elapsed_s": time.monotonic() - started,
            "respawned": self.respawned,
        })
        return summary
