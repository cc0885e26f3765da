"""Filesystem-coordinated dispatch for distributed DSE runs.

The :class:`~repro.dse.store.ExperimentStore` is mergeable (every writer
appends to its own JSONL file; the directory union is the result set).
This module coordinates who evaluates what through nothing but the shared
store directory -- no daemon, no database, so it works on any shared
filesystem (NFS scratch space, a laptop's tmpdir, a CI runner):

* :class:`WorkLedger` -- signed work items under ``<store>/leases/``, one
  lease file per item.  Claims are atomic create-via-hardlink (the classic
  lockfile idiom: ``os.link`` fails iff the lease exists); heartbeats renew
  the lease mtime; a lease whose mtime is older than the TTL is *expired*
  and may be taken over atomically by rename, which is how the item of a
  SIGKILLed worker gets re-leased.  Completed items leave a ``.done``
  marker so they are never claimed again.  A grid run's items are its
  static shards, written with the manifest; an adaptive run's are the
  proposal parts its proposer (:mod:`repro.dse.adaptive.protocol`) writes
  as the search goes.
* :func:`run_worker` -- the worker loop behind ``repro dse worker``.  Claim
  an item, evaluate its points with heartbeat renewal after every persisted
  task group, mark it done, repeat; when items remain but none is
  claimable, wait for a lease to expire (or for the proposer) instead of
  stranding the work.
* :class:`FleetView` -- the one operator's view of a dispatched store:
  stored and planned points, item states, an ETA driven by the per-point
  ``wall_s`` timings store rows record since schema v2, and one row per
  worker, each tick reading only what was appended since the last.
* :class:`Dispatcher` -- writes the dispatch manifest (a grid space
  partitioned into M shards, M > N workers, so a death costs at most one
  shard of progress; or an adaptive strategy), runs N local worker
  processes (or prints the per-machine command lines for remote launch),
  runs an adaptive run's proposer in-process, and watches progress
  through its :class:`FleetView`.

Correctness leans on two properties rather than on perfect mutual
exclusion: evaluation is **idempotent** (results are deterministic) and the
store **dedups by fingerprint**, so the worst a lease race can cost is
duplicated work, never wrong or duplicated data.  A dispatched run's
merged store therefore exports byte-identically to a single-process run of
the same space (see :meth:`~repro.dse.store.ExperimentStore.export_rows`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import socket
import subprocess
import sys
import time
import zlib
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.space import DesignSpace, Shard, point_from_spec
from repro.dse.store import ExperimentStore
from repro.io.appendlog import LogWriter, atomic_write_text
from repro.obs.distributed import (
    TraceContext,
    adopt_shards,
    refuse_trace_shards,
    span_record,
)
from repro.obs.export import filename_safe
from repro.obs.timeline import TelemetryReader, fold_workers
from repro.obs.trace import (
    current_span_name,
    current_span_ref,
    current_tracer,
    span,
)

#: Subdirectory of the store directory holding the work ledger.
LEASE_DIR = "leases"

#: Subdirectory of the store directory holding the per-worker event
#: streams.  A subdirectory, not the store root: the store ingests every
#: top-level ``*.jsonl`` as experiment rows, so the streams live one level
#: down.
TELEMETRY_DIR = "telemetry"

#: Dispatch manifest file name inside the store directory.
MANIFEST_NAME = "dispatch.json"

#: Fixed ``ledger`` marker of every manifest: the run's work lives as
#: signed items in :class:`WorkLedger`'s layout.  Not an option.  Stores
#: written without it keep their shards and proposals in other layouts
#: (and older ones assigned shards by point fingerprint), so
#: :func:`read_manifest` refuses them.
LEDGER_LAYOUT = "work-items"

#: Name of the ledger's end-of-run marker (``complete.json``).
COMPLETE_NAME = "complete"

#: Default lease time-to-live.  A worker heartbeats after every completed
#: task group -- one compilation plus a simulation per folded gate variant
#: -- so the TTL must exceed the wall time of the slowest *task group*, not
#: just the slowest point, by a comfortable margin; expiry within that
#: margin makes another worker redo the item (harmlessly, but twice).
DEFAULT_TTL_S = 60.0

#: How long a worker with nothing claimable waits before polling again.  An
#: idle poll only stats lease files, so it writes nothing, and a worker
#: exits within one poll of the run's last done marker.
IDLE_WAIT_S = 0.05


class LeaseLost(RuntimeError):
    """A worker's heartbeat found its item's lease reclaimed by another worker.

    Raised out of the heartbeat hook to abort the item mid-evaluation; the
    rows persisted so far stay in the store (deduped by fingerprint), so the
    new owner replays them instead of recomputing.
    """


class WorkTampered(ValueError):
    """A ledger item failed its content-signature check."""


def _live_phase() -> Dict[str, str]:
    """``{"phase": <open span name>}`` for a telemetry event, or ``{}``.

    Workers stamp their innermost open span onto heartbeat-style telemetry
    events; ``dse top`` shows it as the worker's live phase.  Empty when
    tracing is disabled or no span is open, so untraced runs emit exactly
    the pre-tracing telemetry schema.
    """

    name = current_span_name()
    return {"phase": name} if name else {}


def default_owner() -> str:
    """Default lease-owner identity: host plus pid (unique per worker)."""

    return f"{socket.gethostname()}-pid{os.getpid()}"


def _signature(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a payload, signature field excluded."""

    body = {key: value for key, value in payload.items() if key != "signature"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class LeaseClock:
    """Single time source for every lease stamp and age computation.

    Lease freshness is ``now - st_mtime``: one side of that subtraction
    comes from the filesystem, so the other side must be the matching wall
    clock -- and every write to the mtime must come from the same source,
    or ages drift by whatever skew separates the readings.  Routing all of
    it (claim stamps, heartbeats, expiry checks, status ages) through one
    clock object keeps the arithmetic coherent and makes the whole lease
    lifecycle drivable by a fake clock in tests: pass ``now_fn`` and both
    the stamps written *and* the ages computed follow it.
    """

    def __init__(self, now_fn: Callable[[], float] = time.time) -> None:
        self._now = now_fn

    def now(self) -> float:
        return float(self._now())

    def touch(self, path) -> None:
        """Stamp ``path``'s mtime with this clock's current reading."""

        now = self.now()
        os.utime(path, times=(now, now))

    def age(self, path) -> float:
        """Seconds since ``path``'s mtime (clamped non-negative)."""

        return max(0.0, self.now() - os.stat(path).st_mtime)


class WorkLedger:
    """Signed work items with atomic claim/renew/release semantics.

    Every unit of work is a *name*: ``<name>.json`` holds the item --
    a static shard ``{"shard": i, "shards": N}`` or an adaptive proposal
    part -- signed with a SHA-256 over its canonical payload, so a torn or
    tampered item is detected rather than half-read; ``<name>.lease`` holds
    the current owner; ``<name>.done`` marks completion.  A signed
    ``complete.json`` says that no further items will appear: the
    dispatcher writes it together with a grid run's shards, a proposer
    once its search has ended.  All writes go through atomic filesystem
    primitives:

    * **items and markers** -- private temp file + rename
      (:func:`~repro.io.appendlog.atomic_write_text`).
    * **claim** -- the owner payload is written to a private temp file and
      hardlinked to the lease name; ``os.link`` fails if the lease exists,
      so exactly one contender wins a fresh claim.  An *expired* lease is
      taken over by ``os.replace`` (atomic rename) followed by a read-back
      ownership check, so concurrent takeovers resolve to the single owner
      whose rename landed last.
    * **renew** -- a heartbeat bumps the lease file's mtime; expiry is
      ``now - mtime > ttl_s``.  A SIGKILLed worker stops heartbeating and
      its work becomes claimable after one TTL.
    * **release** -- writes the ``.done`` marker (atomic rename) before
      dropping the lease, so work can never report done-and-claimable.

    The remaining races (takeover read-back window, renew-after-reclaim)
    can only duplicate work, which the experiment store's fingerprint dedup
    absorbs; they cannot corrupt results.

    The directory is created lazily by the write paths so that read-only
    inspection -- ``dse status --eta`` on a store the user only queries,
    possibly on a read-only mount -- never mutates the store.  Read paths
    treat a missing directory as an empty ledger.
    """

    def __init__(self, directory, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.directory = Path(directory)
        self.ttl_s = float(ttl_s)
        self.clock = clock if clock is not None else LeaseClock()

    @classmethod
    def for_store(cls, store_dir, *, ttl_s: float = DEFAULT_TTL_S,
                  clock: Optional[LeaseClock] = None) -> "WorkLedger":
        """The ledger living inside an experiment-store directory."""

        return cls(Path(store_dir) / LEASE_DIR, ttl_s=ttl_s, clock=clock)

    # ------------------------------------------------------------------ #
    def item_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def lease_path(self, name: str) -> Path:
        return self.directory / f"{name}.lease"

    def done_path(self, name: str) -> Path:
        return self.directory / f"{name}.done"

    # ------------------------------------------------------------------ #
    def write_item(self, name: str, payload: Dict[str, object]) -> Path:
        """Persist one signed item (atomic: temp file + rename)."""

        from repro.io.serialization import SCHEMA_VERSION

        body = {"schema_version": SCHEMA_VERSION}
        body.update(payload)
        body["signature"] = _signature(body)
        return atomic_write_text(self.item_path(name),
                                 json.dumps(body, indent=2,
                                            sort_keys=True) + "\n")

    def read_item(self, name: str) -> Dict[str, object]:
        """Load and signature-check one item."""

        from repro.io.serialization import check_schema_version

        path = self.item_path(name)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"no work item {name} at {path}")
        except json.JSONDecodeError as err:
            raise WorkTampered(f"{path}: unparseable work item "
                               f"({err})") from err
        if payload.get("signature") != _signature(payload):
            raise WorkTampered(
                f"{path}: signature mismatch -- the item was torn or "
                f"tampered with; delete it to let its writer rewrite it")
        check_schema_version(payload, source=str(path))
        return payload

    def work_names(self) -> List[str]:
        """Every item present, in name order."""

        if not self.directory.exists():
            return []
        return sorted(path.stem for path in self.directory.glob("*.json")
                      if path.stem != COMPLETE_NAME)

    # ------------------------------------------------------------------ #
    def claim(self, name: str, owner: str) -> bool:
        """Try to lease ``name`` for ``owner``; True iff it succeeded.

        Fresh work is claimed by atomic link; work whose lease expired
        (dead worker) is taken over by atomic rename.  Done and
        actively-leased work is never claimable.
        """

        self.directory.mkdir(parents=True, exist_ok=True)
        if self.done_path(name).exists():
            return False
        lease = self.lease_path(name)
        # Fast path: a held-and-fresh lease is the common case while idle
        # workers poll; answer it with one stat instead of churning temp
        # files on the shared filesystem.  The atomic link below still has
        # the final word on races.
        try:
            if self.clock.age(lease) <= self.ttl_s:
                return False
        except FileNotFoundError:
            pass
        payload = json.dumps({"owner": owner, "work": name,
                              "claimed_at": self.clock.now()},
                             sort_keys=True) + "\n"
        # The temp name must be unique per *owner*, not per pid: two hosts
        # sharing the store over NFS can easily collide on pid alone.
        tmp = self.directory / f".claim-{name}.{filename_safe(owner)}.tmp"
        tmp.write_text(payload)
        try:
            try:
                os.link(tmp, lease)  # atomic create: fails iff already leased
                # Stamp through the clock so the lease's birth heartbeat
                # comes from the same source as every later age check (the
                # link inherits the temp file's write-time mtime otherwise).
                self.clock.touch(lease)
                return True
            except FileExistsError:
                if not self._expired(lease):
                    return False
                os.replace(tmp, lease)  # atomic takeover of an expired lease
                self.clock.touch(lease)
                # Concurrent takeovers all rename successfully; the last
                # rename wins, so confirm ownership by reading back.  The
                # residual window only risks duplicated (idempotent,
                # deduped) work.
                return self.owner_of(name) == owner
        finally:
            tmp.unlink(missing_ok=True)

    def _expired(self, lease: Path) -> bool:
        try:
            age = self.clock.age(lease)
        except FileNotFoundError:
            # Released between the link attempt and now; a later claim pass
            # will take it fresh.
            return False
        return age > self.ttl_s

    def renew(self, name: str, owner: str) -> bool:
        """Heartbeat: refresh ``owner``'s lease mtime; False if it was lost.

        A False return means the lease expired and another worker took the
        item over (or released it) -- the caller must stop working on it.
        """

        if self.owner_of(name) != owner:
            return False
        try:
            self.clock.touch(self.lease_path(name))
        except FileNotFoundError:
            return False
        return True

    def release(self, name: str, owner: str, *, done: bool = True) -> None:
        """Drop ``owner``'s lease; with ``done=True`` mark the work complete.

        The done marker is written (atomically) before the lease is removed,
        so work can never report done-and-claimable.
        """

        if done:
            atomic_write_text(self.done_path(name),
                              json.dumps({"owner": owner,
                                          "finished_at": self.clock.now()},
                                         sort_keys=True) + "\n")
        if self.owner_of(name) == owner:
            self.lease_path(name).unlink(missing_ok=True)

    def owner_of(self, name: str) -> Optional[str]:
        """The owner recorded in a lease file, or ``None``."""

        try:
            payload = json.loads(self.lease_path(name).read_text())
            return payload.get("owner")
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def is_done(self, name: str) -> bool:
        return self.done_path(name).exists()

    def status_of(self, name: str) -> Tuple[str, Optional[str], Optional[float]]:
        """``(status, owner, age_s)`` of one unit of work.

        ``status`` is one of ``"open"`` (unclaimed), ``"active"`` (leased,
        heartbeat fresh), ``"expired"`` (claimable by takeover) or
        ``"done"`` (never claimable again).
        """

        if self.is_done(name):
            return "done", None, None
        try:
            age = self.clock.age(self.lease_path(name))
        except FileNotFoundError:
            return "open", None, None
        status = "expired" if age > self.ttl_s else "active"
        return status, self.owner_of(name), age

    def status_counts(self) -> Dict[str, int]:
        counts = {"open": 0, "active": 0, "expired": 0, "done": 0}
        for name in self.work_names():
            counts[self.status_of(name)[0]] += 1
        return counts

    def claim_next(self, owner: str) -> Optional[str]:
        """Claim the first available item for ``owner`` (or ``None``).

        Workers start their scan at an owner-dependent offset so N workers
        hitting a fresh ledger at once mostly claim N different items on
        the first pass instead of stampeding the first one.
        """

        names = self.work_names()
        if not names:
            return None
        offset = zlib.crc32(owner.encode()) % len(names)
        for step in range(len(names)):
            name = names[(offset + step) % len(names)]
            if not self.is_done(name) and self.claim(name, owner):
                return name
        return None

    # ------------------------------------------------------------------ #
    @property
    def complete_path(self) -> Path:
        return self.item_path(COMPLETE_NAME)

    def write_complete(self, payload: Dict[str, object]) -> Path:
        return self.write_item(COMPLETE_NAME, payload)

    def read_complete(self) -> Optional[Dict[str, object]]:
        try:
            return self.read_item(COMPLETE_NAME)
        except ValueError:
            return None  # absent, or a torn write in flight: not complete

    def all_done(self) -> bool:
        """True when the run is complete and every item is done."""

        if self.read_complete() is None:
            return False
        return all(self.is_done(name) for name in self.work_names())


# --------------------------------------------------------------------------- #
# Worker telemetry: one append-only event stream per worker.
# --------------------------------------------------------------------------- #
class WorkerTelemetry(LogWriter):
    """One worker's event stream, ``<store>/telemetry/<owner>.jsonl``.

    The worker only ever appends to its one file (a
    :class:`~repro.io.appendlog.LogWriter`, open until :meth:`close`), the
    store's single-writer-per-file discipline.  Two kinds of record: lease
    events (:meth:`emit`), stamped by the shared :class:`LeaseClock`, and,
    when the worker traces, span records (:meth:`flush_spans`).  Nothing
    rotates: a stream grows far slower than the store rows beside it.
    """

    def __init__(self, store_dir, owner: str, *,
                 clock: Optional[LeaseClock] = None) -> None:
        super().__init__(Path(store_dir) / TELEMETRY_DIR
                         / f"{filename_safe(owner)}.jsonl")
        self.owner = owner
        self.clock = clock if clock is not None else LeaseClock()
        self._spans = self._foreign = 0

    def emit(self, event: str, **fields) -> None:
        """Append one event record (creates the directory lazily)."""

        record = {"t": self.clock.now(), "owner": self.owner, "event": event}
        record.update(fields)
        self.append(record)

    def flush_spans(self, tracer) -> int:
        """Append the span records new since the last flush; returns how many.

        New are the spans the tracer closed and the foreign records it
        adopted, counted apart (:meth:`~repro.obs.trace.Tracer.records`
        lists own spans first), so a flush costs its new records and a
        SIGKILL only those since the last flush.  ``None``: a no-op.
        """

        if tracer is None:
            return 0
        records = [item.to_dict(tracer.origin_s)
                   for item in tracer.spans[self._spans:]]
        records += tracer.foreign[self._foreign:]
        self._spans, self._foreign = len(tracer.spans), len(tracer.foreign)
        for record in records:
            self.append(span_record(tracer, record, self.owner))
        return len(records)


# --------------------------------------------------------------------------- #
# Dispatch manifest: the one file a worker needs to join a run.
# --------------------------------------------------------------------------- #
def write_manifest(store_dir, space: DesignSpace, *, shards: Optional[int] = None,
                   ttl_s: float = DEFAULT_TTL_S, jobs: int = 1,
                   throttle_s: float = 0.0, mode: str = "shards",
                   strategy: Optional[Dict[str, object]] = None) -> Path:
    """Write ``<store>/dispatch.json`` describing the run (atomic replace).

    A worker pointed at the store directory reads everything it needs from
    this manifest and the work ledger: the space, the coordination ``mode``
    (``"shards"`` -- static shards of whole compilations, the default -- or
    ``"adaptive"`` -- workers lease proposal parts written by a strategy
    proposer, see :mod:`repro.dse.adaptive.protocol`), the shard count
    (shards mode), the strategy spec (adaptive mode), the lease TTL, the
    per-worker ``jobs`` and the fixed ``ledger`` layout marker.  In shards
    mode the shard items ``shard-<i>of<N>`` and the complete marker are
    written *before* the manifest, so a worker never reads a manifest
    without its work.  A ``bayes``, ``ehvi`` or ``parego`` spec without
    ``max_evals`` records the default budget its proposer would use, so
    :class:`FleetView` plans points without building a proposer.

    Re-preparing an existing dispatch is allowed only if the space, mode,
    shard count and strategy are unchanged (the work must stay stable
    across resumes); TTL/jobs/throttle may be retuned.  A *new* manifest is
    refused when ``<store>/leases/`` already holds anything -- items, leases,
    done markers or a complete marker: they belong to an earlier run, and
    workers would claim its items or trust its markers without evaluating
    a point.
    """

    from repro.io.serialization import SCHEMA_VERSION

    if mode not in ("shards", "adaptive"):
        raise ValueError(f"unknown dispatch mode {mode!r}; "
                         f"expected 'shards' or 'adaptive'")
    if mode == "shards" and (shards is None or shards < 1):
        raise ValueError("shards-mode dispatch needs a shard count of at "
                         "least 1")
    if mode == "adaptive" and strategy is None:
        raise ValueError("adaptive-mode dispatch needs a strategy spec")
    store_dir = Path(store_dir)
    path = store_dir / MANIFEST_NAME
    ledger = WorkLedger.for_store(store_dir)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "space": space.to_dict(),
        "mode": mode,
        "ledger": LEDGER_LAYOUT,
        "ttl_s": float(ttl_s),
        "jobs": int(jobs),
        "throttle_s": float(throttle_s),
    }
    if shards is not None:
        manifest["shards"] = int(shards)
    if strategy is not None:
        spec = manifest["strategy"] = dict(strategy)
        if (spec.get("max_evals") is None
                and spec.get("name") in ("bayes", "ehvi", "parego")):
            if spec["name"] == "bayes":
                from repro.dse.adaptive.propose import default_max_evals
            else:
                from repro.dse.moo.propose import default_moo_max_evals \
                    as default_max_evals
            spec["max_evals"] = default_max_evals(
                space.size, spec.get("batch_size", 4))
    if path.exists():
        existing = read_manifest(store_dir)
        if (existing.get("space") != manifest["space"]
                or existing.get("mode") != mode
                or existing.get("shards") != manifest.get("shards")
                or existing.get("strategy") != manifest.get("strategy")):
            raise ValueError(
                f"{path} already describes a different dispatch (space, "
                f"mode, shard count or strategy differs); use a fresh store "
                f"directory")
    elif ledger.directory.is_dir() and any(ledger.directory.iterdir()):
        raise ValueError(
            f"{ledger.directory} holds the work ledger of an earlier "
            f"dispatch (items, leases, done or complete markers), which a "
            f"new run would claim or trust without evaluating its points; "
            f"use a fresh store directory")
    if mode == "shards":
        for index in range(1, int(shards) + 1):
            ledger.write_item(Shard(index, int(shards)).name,
                              {"shard": index, "shards": int(shards)})
        ledger.write_complete({"shards": int(shards)})
    return atomic_write_text(path, json.dumps(manifest, indent=2,
                                              sort_keys=True) + "\n")


def read_manifest(store_dir) -> Dict:
    """Load and validate the dispatch manifest of a store directory.

    Refused by name: a manifest without the work-ledger layout marker, and
    a store holding the ``traces/`` directory of an older version.
    """

    from repro.io.serialization import check_schema_version

    path = Path(store_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(
            f"no dispatch manifest at {path}; run `repro dse dispatch` "
            f"(or Dispatcher.prepare) before starting workers")
    except json.JSONDecodeError as err:
        raise ValueError(f"corrupt dispatch manifest at {path}: {err}") from err
    check_schema_version(manifest, source=str(path))
    if manifest.get("ledger") != LEDGER_LAYOUT:
        raise ValueError(
            f"{path} was written by an older version whose lease ledger "
            f"has another layout (no \"ledger\": \"{LEDGER_LAYOUT}\" marker); "
            f"this version can neither join nor resume it.  Use a fresh "
            f"store directory")
    refuse_trace_shards(store_dir)
    return manifest


# --------------------------------------------------------------------------- #
# Worker loop
# --------------------------------------------------------------------------- #
def run_worker(store_dir, *, owner: Optional[str] = None,
               jobs: Optional[int] = None, circuits=None) -> Dict[str, object]:
    """Lease and evaluate work items from ``store_dir`` until the run completes.

    The loop behind every ``repro dse worker``, local or remote, for grid
    and adaptive manifests alike: claim an item, refresh the worker's store
    view with the incremental ``reload`` (so rows flushed by other workers
    -- including a dead worker's partial item -- replay instead of
    recomputing), evaluate the item's points with a heartbeat after every
    persisted task group, mark the item done, repeat.  A shard item
    restricts the runner to the shard's compilations of the whole space; a
    proposal part names its points and the provenance its rows carry.
    When nothing is claimable -- every open item is actively leased, or an
    adaptive proposer has yet to write the next batch -- the worker
    re-polls every :data:`IDLE_WAIT_S` rather than exiting and stranding a
    dead worker's item.  It exits once the ledger's complete marker exists
    and every item is done.

    One store view and one :class:`~repro.dse.runner.DSERunner` -- with
    its built circuits, point fingerprints and compiled-program cache --
    serve every item this worker runs; each claim rebinds only the
    runner's shard, provenance and heartbeat.  Shards hold whole
    compilations, so a program compiles once and its gate variants run as
    one batched fan-out.  The runner releases a program once the store view
    holds a row for every gate of the space at that point, so a grid worker
    holds only the compilation in flight, while an adaptive worker keeps
    those with a gate still unseen, which a later proposal may reuse.

    Returns ``{"owner", "completed", "lost"}``: item names finished, and
    item names aborted because the lease was reclaimed mid-evaluation.
    """

    from repro.dse.runner import DSERunner
    from repro.toolflow.parallel import ProgramCache

    store_dir = Path(store_dir)
    manifest = read_manifest(store_dir)
    space = DesignSpace.from_dict(manifest["space"])
    ledger = WorkLedger.for_store(store_dir,
                                  ttl_s=manifest.get("ttl_s", DEFAULT_TTL_S))
    owner = owner or default_owner()
    jobs = int(manifest.get("jobs", 1)) if jobs is None else int(jobs)
    throttle_s = float(manifest.get("throttle_s", 0.0))

    # Join the dispatcher's trace when it stamped one into our environment:
    # spans go to this worker's stream beside its events, and the
    # dispatcher merges them into one fleet trace.  Untraced, every flush
    # is a no-op.
    trace_ctx = TraceContext.from_env()
    tracer = trace_ctx.arm() if trace_ctx is not None else None
    cache = ProgramCache()
    completed: List[str] = []
    lost: List[str] = []
    seen_counters: Dict[str, int] = {}

    def counters_delta() -> Dict[str, int]:
        """Metrics-counter movement since the previous ``done`` event.

        Shipping the *delta* per completion (rather than the running total
        only at exit) is what lets the timeline attribute cache hits and
        misses to the bucket they happened in -- and summing the deltas
        reproduces the exit totals exactly, because counters are integers.
        """

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
        telemetry.emit("worker_start", mode=manifest["mode"],
                       shards=manifest.get("shards"), jobs=jobs,
                       pid=os.getpid())
        # One store file per owner.  After a takeover, an alive-but-slow
        # previous owner may still flush one in-flight group before its
        # next heartbeat notices the loss, and two processes appending to
        # one file over NFS can tear each other's rows.  Separate files
        # close that window; directory union and fingerprint dedup merge
        # them losslessly.
        store = logs.enter_context(ExperimentStore(
            store_dir, writer=f"worker-{filename_safe(owner)}"))
        runner = DSERunner(space, store=store, jobs=jobs, cache=cache,
                           circuits=circuits)
        while True:
            name = ledger.claim_next(owner)
            if name is None:
                if ledger.all_done():
                    break
                time.sleep(IDLE_WAIT_S)
                continue
            telemetry.emit("claim", work=name, **_live_phase())
            started = time.perf_counter()
            item = ledger.read_item(name)
            if "shard" in item:
                runner.shard = Shard(item["shard"], item["shards"])
                runner.provenance = None
                points = list(space.points())
            else:
                runner.shard = None
                runner.provenance = {key: item.get(key) for key in
                                     ("strategy", "seed", "rung",
                                      "proxy_qubits")}
                if item.get("objectives") is not None:
                    # Multi-objective batches: mirror the serial strategy
                    # driver's stamp so raw rows match serial runs exactly.
                    runner.provenance["objectives"] = item["objectives"]
                points = [point_from_spec(spec) for spec in item["points"]]

            def heartbeat(name: str = name) -> None:
                if not ledger.renew(name, owner):
                    raise LeaseLost(f"lease on {name} was reclaimed from "
                                    f"{owner}")
                telemetry.emit("renew", work=name, **_live_phase())
                if throttle_s:
                    time.sleep(throttle_s)

            runner.heartbeat = heartbeat
            store.reload()
            before = dict(runner.stats)
            try:
                with span("dse.work", work=name, owner=owner):
                    runner.evaluate(points)
            except LeaseLost:
                lost.append(name)
                telemetry.emit("lease_lost", work=name)
                telemetry.flush_spans(tracer)
                continue
            ledger.release(name, owner, done=True)
            completed.append(name)
            telemetry.emit(
                "done", work=name,
                points=runner.stats["evaluated"] - before["evaluated"],
                replayed=runner.stats["reused"] - before["reused"],
                wall_s=round(time.perf_counter() - started, 6),
                counters=counters_delta())
            # Flush after every completed item: a SIGKILL later costs only
            # the spans closed since this point.
            telemetry.flush_spans(tracer)
        telemetry.emit("worker_exit", completed=len(completed),
                       lost=len(lost), counters=cache.metrics.counters())
        telemetry.flush_spans(tracer)
    return {"owner": owner, "completed": completed, "lost": lost}


def worker_argv(store_dir) -> List[str]:
    """argv of one ``repro dse worker`` process for a store.

    The single source of truth for the worker launch command: local spawns
    (:func:`spawn_worker_process`) and the printed remote command lines
    both derive from it, so they cannot drift apart.
    """

    return [sys.executable, "-m", "repro", "dse", "worker",
            "--store", str(store_dir)]


def spawn_worker_process(store_dir) -> subprocess.Popen:
    """Start one local ``repro dse worker`` subprocess against a store.

    The worker reads everything else from the dispatch manifest, so the same
    spawn works for shard-mode and adaptive-mode runs.  ``repro`` is made
    importable through the subprocess environment.  When this process has
    tracing enabled, the trace context (root id + the currently-open span
    as the worker's cross-process parent) rides along in the same
    environment, so worker spans join the dispatcher's trace.
    """

    env = os.environ.copy()
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else package_root + os.pathsep + existing)
    tracer = current_tracer()
    if tracer is not None:
        TraceContext.from_tracer(tracer,
                                 parent_ref=current_span_ref()).stamp(env)
    return subprocess.Popen(worker_argv(store_dir), env=env)


# --------------------------------------------------------------------------- #
# Progress / ETA
# --------------------------------------------------------------------------- #
def estimate_eta_s(pending: int, timings: Sequence[float],
                   active_workers: int) -> Optional[float]:
    """Remaining wall seconds from stored per-point timings.

    ``pending`` points at the mean recorded ``wall_s`` per point, divided by
    the number of workers actively evaluating.  Returns ``0.0`` when nothing
    is pending and ``None`` when no row has recorded a timing yet (rows
    written before schema v2 carry none -- unknown is not zero).
    """

    if pending <= 0:
        return 0.0
    if not timings:
        return None
    mean = sum(timings) / len(timings)
    return pending * mean / max(1, active_workers)


class FleetView:
    """The one operator's view of a dispatched store, polled by :meth:`tick`.

    Behind :meth:`Dispatcher.progress`, ``repro dse top`` and ``repro dse
    status --workers/--eta``, for a fleet launched here or elsewhere.  One
    store view (refreshed by the incremental
    :meth:`~repro.dse.store.ExperimentStore.reload`) and one
    :class:`~repro.obs.timeline.TelemetryReader` make a tick cost what was
    appended since the last.  The manifest is read on the first tick that
    finds one; a refused one is not used, its reason kept in :attr:`refusal`.

    Planned points (``points_total``): a grid run plans its space; an
    adaptive run the ``max_evals`` its manifest records (at most the
    space), or its stored rows once the complete marker exists; a ladder
    with no budget ``None``, unknown.  ``ttl_s`` overrides the manifest's
    lease TTL; ``clock`` stamps every age.
    """

    def __init__(self, store_dir, *, ttl_s: Optional[float] = None,
                 clock: Optional[LeaseClock] = None) -> None:
        self.store_dir = Path(store_dir)
        self.clock = clock if clock is not None else LeaseClock()
        self.reader = TelemetryReader(self.store_dir)
        self.store: Optional[ExperimentStore] = None
        self.manifest: Optional[Dict] = None
        self.refusal: Optional[str] = None
        self._ttl_s = ttl_s

    @property
    def ttl_s(self) -> float:
        """The lease TTL: the override, else the manifest's, else 60 s."""

        if self._ttl_s is not None:
            return float(self._ttl_s)
        return float((self.manifest or {}).get("ttl_s", DEFAULT_TTL_S))

    def tick(self) -> Dict[str, object]:
        """``points_done`` and the ``workers`` rows
        (:func:`~repro.obs.timeline.fold_workers`); with a manifest also
        ``points_total``/``points_pending`` (``None`` when unknown), the
        item ``shards`` counts and ``eta_s`` over the active leases."""

        if self.store is None:
            self.store = ExperimentStore(self.store_dir)
        else:
            self.store.reload()
        if self.manifest is None and (self.store_dir / MANIFEST_NAME).exists():
            try:
                self.manifest = read_manifest(self.store_dir)
                self.refusal = None
            except ValueError as err:
                self.refusal = str(err)
        done = len(self.store)
        progress: Dict[str, object] = {"points_done": done}
        if self.manifest is not None:
            ledger = WorkLedger.for_store(self.store_dir, ttl_s=self.ttl_s,
                                          clock=self.clock)
            shards = ledger.status_counts()
            total = DesignSpace.from_dict(self.manifest["space"]).size
            if self.manifest["mode"] == "adaptive":
                budget = self.manifest["strategy"].get("max_evals")
                if ledger.read_complete() is not None:
                    total = done
                else:
                    total = None if budget is None else min(total, int(budget))
            pending = None if total is None else max(0, total - done)
            progress.update(
                points_total=total, points_pending=pending, shards=shards,
                eta_s=None if pending is None else estimate_eta_s(
                    pending, self.store.wall_timings(),
                    max(1, shards["active"])))
        self.reader.poll()
        progress["workers"] = fold_workers(self.reader.events,
                                           now=self.clock.now())
        return progress


def format_eta(eta_s: Optional[float]) -> str:
    """Human-readable ETA (``"unknown"`` when no timings exist yet)."""

    if eta_s is None:
        return "unknown (no per-point timings recorded yet)"
    if eta_s >= 120.0:
        return f"{eta_s / 60.0:.1f} min"
    return f"{eta_s:.1f} s"


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
class _Stopped(Exception):
    """Raised by the dispatcher's tick to end a run before it completed."""


class Dispatcher:
    """Write a dispatch's work, drive local workers to completion.

    Parameters
    ----------
    space:
        The design space to evaluate.
    store_dir:
        Experiment-store directory shared by all workers.  Should be
        dedicated to this study: progress accounting assumes every row in
        it belongs to ``space``.
    workers:
        Local worker processes to run (ignored by :meth:`command_lines`,
        which targets remote launch).
    shards:
        Lease granularity of a grid run; defaults to ``4 * workers`` so
        workers stay busy through the tail and a worker death forfeits at
        most one shard of fresh progress.  Shards hold whole compilations,
        so a space with few distinct compilations may leave some shards
        empty.
    ttl_s:
        Lease time-to-live; must exceed the slowest task group's wall time
        -- one compile plus all its folded gate-variant simulations --
        since heartbeats fire once per completed task group.
    jobs:
        Process-pool width *inside* each worker (total parallelism is
        ``workers x jobs``).
    throttle_s:
        Optional sleep per heartbeat inside workers -- a load limiter for
        shared machines, also used by the CI smoke tests to widen the kill
        window.  Default 0.
    poll_s:
        Longest wait between two checks of the ledger and of worker
        liveness (and, for an adaptive run, between two result polls of
        the proposer).  A grid dispatcher waits on a worker process instead
        of sleeping, so it wakes as soon as that worker exits -- which
        workers do once every item is done.
    max_respawns:
        Replace workers that exited non-zero, up to this many times
        (default ``workers``; 0 disables respawning), while unfinished
        work remains.
    strategy:
        An adaptive strategy spec (``{"name": "bayes", "seed": ...}``).
        Given one, the run is a propose/evaluate search: each proposal
        batch is split into ``workers`` leaseable parts (unless the spec
        sets ``parts``), and the proposer
        (:func:`~repro.dse.adaptive.protocol.run_proposer`) runs in this
        process.  ``None`` (the default) dispatches the whole grid as
        static shards.
    """

    def __init__(self, space: DesignSpace, store_dir, *, workers: int = 2,
                 shards: Optional[int] = None, ttl_s: float = DEFAULT_TTL_S,
                 jobs: int = 1, throttle_s: float = 0.0, poll_s: float = 0.2,
                 max_respawns: Optional[int] = None,
                 strategy: Optional[Dict[str, object]] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.space = space
        self.store_dir = Path(store_dir)
        self.workers = int(workers)
        self.strategy = None if strategy is None else dict(strategy)
        if self.strategy is None:
            self.shards = (int(shards) if shards is not None
                           else 4 * self.workers)
            if self.shards < 1:
                raise ValueError("need at least one shard")
        else:
            self.shards = None
            self.strategy.setdefault("parts", self.workers)
        self.ttl_s = float(ttl_s)
        self.jobs = int(jobs)
        self.throttle_s = float(throttle_s)
        self.poll_s = float(poll_s)
        self.max_respawns = (self.workers if max_respawns is None
                             else int(max_respawns))
        self.respawned = 0
        self.ledger = WorkLedger.for_store(self.store_dir, ttl_s=self.ttl_s)
        self._procs: List[subprocess.Popen] = []
        self.view = FleetView(self.store_dir)

    # ------------------------------------------------------------------ #
    def prepare(self) -> Path:
        """Write the dispatch manifest; workers can join once this returns."""

        return write_manifest(
            self.store_dir, self.space, shards=self.shards, ttl_s=self.ttl_s,
            jobs=self.jobs, throttle_s=self.throttle_s,
            mode="shards" if self.strategy is None else "adaptive",
            strategy=self.strategy)

    def command_lines(self) -> List[str]:
        """Shell commands for launching the fleet on remote machines.

        Every machine that mounts the store directory runs the same worker
        command; workers coordinate purely through the ledger, so any
        number may join or die at any time.  An adaptive run also needs
        exactly one proposer, listed first.  Derived from
        :func:`worker_argv` with a portable ``python`` in place of this
        machine's interpreter path.
        """

        argv = ["python"] + worker_argv(self.store_dir)[1:]
        lines = [" ".join(shlex.quote(arg) for arg in argv)] * self.workers
        if self.strategy is not None:
            argv[argv.index("worker")] = "propose"
            lines.insert(0, " ".join(shlex.quote(arg) for arg in argv))
        return lines

    def spawn_worker(self) -> subprocess.Popen:
        """Start one local worker subprocess (repro importable via env)."""

        return spawn_worker_process(self.store_dir)

    # ------------------------------------------------------------------ #
    def progress(self) -> Dict[str, object]:
        """One tick of the dispatcher's :class:`FleetView` (:attr:`view`)."""

        return self.view.tick()

    def _alive(self) -> List[subprocess.Popen]:
        return [proc for proc in self._procs if proc.poll() is None]

    def _reap_and_respawn(self) -> None:
        """Replace workers that died abnormally, within the respawn budget."""

        for proc in list(self._procs):
            if proc.poll() is None or proc.returncode == 0:
                continue
            self._procs.remove(proc)
            if (self.respawned < self.max_respawns
                    and not self.ledger.all_done()):
                self.respawned += 1
                self._procs.append(self.spawn_worker())

    def run(self, *, timeout_s: Optional[float] = None,
            on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
            progress_interval_s: float = 2.0) -> Dict[str, object]:
        """Prepare, spawn local workers, and watch until every item is done.

        Dead workers' items are reclaimed by the survivors through lease
        expiry; workers that *exited* abnormally are additionally respawned
        (the reclaim still happens through the ledger -- respawn just keeps
        N workers pulling).  Returns a summary dictionary -- for an
        adaptive run, the proposer's summary plus the fleet accounting;
        ``complete`` is False when the run timed out or every worker
        stopped with work unfinished and the respawn budget exhausted.
        """

        # The dispatch span is the cross-process parent traced workers hang
        # their root spans under (spawn_worker_process stamps the open span
        # into their environment).
        with span("dse.dispatch", workers=self.workers,
                  shards=self.shards) as trace:
            summary = self._run(timeout_s=timeout_s, on_progress=on_progress,
                                progress_interval_s=progress_interval_s)
            trace.set(complete=summary["complete"], points=summary["points"],
                      respawned=summary["respawned"])
        tracer = current_tracer()
        if tracer is not None:
            # The workers joined this trace and flushed their spans to
            # their streams; fold them in so the ordinary --trace flush
            # writes one fleet trace.
            summary["trace"] = adopt_shards(tracer, self.store_dir)
        return summary

    def _run(self, *, timeout_s: Optional[float],
             on_progress: Optional[Callable[[Dict[str, object]], None]],
             progress_interval_s: float) -> Dict[str, object]:
        self.prepare()
        started = time.monotonic()
        self._procs = [self.spawn_worker() for _ in range(self.workers)]
        last_report = -float("inf")

        def tick() -> List[subprocess.Popen]:
            """Timeout, reap and respawn, progress; the live workers."""

            nonlocal last_report
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                raise _Stopped
            self._reap_and_respawn()
            alive = self._alive()
            if not alive:
                # Every worker exited (cleanly or beyond the respawn
                # budget) with work unfinished: nobody is left to do it.
                raise _Stopped
            if (on_progress is not None
                    and time.monotonic() - last_report >= progress_interval_s):
                last_report = time.monotonic()
                on_progress(self.progress())
            return alive

        summary: Dict[str, object] = {}
        try:
            if self.strategy is None:
                while not self.ledger.all_done():
                    # Workers exit once every item is done, so waiting on
                    # one ends the run on that event, not on a sleep tick.
                    try:
                        tick()[0].wait(timeout=self.poll_s)
                    except subprocess.TimeoutExpired:
                        pass
            else:
                from repro.dse.adaptive.protocol import run_proposer

                summary = run_proposer(self.store_dir, poll_s=self.poll_s,
                                       tick=tick)
            complete = True
        except _Stopped:
            complete = self.ledger.all_done()
        finally:
            # Workers exit by themselves once every item is done; anything
            # still running after a grace period (timeout/abort paths) is
            # terminated so the dispatcher never leaks processes.
            deadline = time.monotonic() + max(5.0, 4 * self.poll_s)
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
        snapshot = self.progress()
        if on_progress is not None:
            on_progress(snapshot)
        summary = dict(summary)
        summary.update({
            "complete": complete,
            "elapsed_s": time.monotonic() - started,
            "respawned": self.respawned,
            "points": snapshot["points_done"],
            "points_total": snapshot["points_total"],
            "shards": snapshot["shards"],
        })
        return summary
