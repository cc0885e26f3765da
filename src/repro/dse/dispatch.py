"""Filesystem-coordinated shard dispatch for distributed DSE runs.

PR 2's :class:`~repro.dse.store.ExperimentStore` made sharded sweeps
*mergeable* (every shard appends to its own JSONL file; the directory union
is the result set), but shards still had to be launched by hand with
``--shard i/N`` per machine.  This module adds the missing coordination
layer, using nothing but the shared store directory -- no daemon, no
database, so it works on any shared filesystem (NFS scratch space, a
laptop's tmpdir, a CI runner):

* :class:`ShardLedger` -- one lease file per shard under
  ``<store>/leases/``.  Claims are atomic create-via-hardlink (the classic
  lockfile idiom: ``os.link`` fails iff the lease exists); heartbeats renew
  the lease mtime; a lease whose mtime is older than the TTL is *expired*
  and may be taken over atomically by rename, which is how the shard of a
  SIGKILLed worker gets re-leased.  Completed shards leave a ``.done``
  marker so they are never claimed again.
* :func:`run_worker` -- the worker loop behind ``repro dse worker`` (entry
  point: :func:`repro.toolflow.parallel.shard_worker`).  Claim a shard,
  evaluate its points with heartbeat renewal after every persisted task
  group, mark it done, repeat; when shards remain but none is claimable,
  wait for a lease to expire instead of stranding it.
* :class:`Dispatcher` -- partitions a :class:`~repro.dse.space.DesignSpace`
  into M shards (M > N workers, so a death costs at most one shard of
  progress), writes the dispatch manifest, runs N local worker processes
  (or prints the per-machine command lines for remote launch), and watches
  progress -- point counts and an ETA driven by the per-point ``wall_s``
  timings the store rows record since schema v2.

Correctness leans on two properties rather than on perfect mutual
exclusion: shard evaluation is **idempotent** (results are deterministic)
and the store **dedups by fingerprint**, so the worst a lease race can cost
is duplicated work, never wrong or duplicated data.  A dispatched run's
merged store therefore exports byte-identically to a single-process run of
the same space (see :meth:`~repro.dse.store.ExperimentStore.export_rows`).
"""

from __future__ import annotations

import json
import os
import shlex
import socket
import subprocess
import sys
import time
import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.runner import DSERunner, Shard
from repro.dse.space import DesignSpace
from repro.dse.store import ExperimentStore
from repro.io.appendlog import LogReader, LogWriter, atomic_write_text
from repro.obs.distributed import (
    TraceContext,
    TraceShardWriter,
    adopt_shards,
)
from repro.obs.export import filename_safe
from repro.obs.timeline import (
    TelemetryReader,
    ZERO_TOTALS,
    fold_event,
    fold_workers,
    parse_segment,
)
from repro.obs.trace import (
    current_span_name,
    current_span_ref,
    current_tracer,
    span,
)

#: Subdirectory of the store directory holding lease and done files.
LEASE_DIR = "leases"

#: Subdirectory of the store directory holding per-worker telemetry JSONL.
#: A subdirectory, not the store root: the store ingests every top-level
#: ``*.jsonl`` as experiment rows, so telemetry must live one level down.
TELEMETRY_DIR = "telemetry"

#: Dispatch manifest file name inside the store directory.
MANIFEST_NAME = "dispatch.json"

#: Fixed ``partition`` marker of shards-mode manifests: points map to shards
#: by compilation (:meth:`~repro.dse.runner.DSERunner.partition_key`).  Not
#: an option.  A shards manifest without it was written under the older
#: point-fingerprint partition, whose done markers certify other points.
SHARD_PARTITION = "compile"

#: Default lease time-to-live.  A worker heartbeats after every completed
#: task group -- one compilation plus a simulation per folded gate variant
#: -- so the TTL must exceed the wall time of the slowest *task group*, not
#: just the slowest point, by a comfortable margin; expiry within that
#: margin makes another worker redo the shard (harmlessly, but twice).
DEFAULT_TTL_S = 60.0

#: Telemetry rotation threshold: when a worker's active event log exceeds
#: this many bytes, it is rotated to a numbered segment (and old segments
#: are compacted into a summary row), bounding per-worker telemetry at
#: roughly ``(keep_segments + 1) * max_bytes`` however long the fleet runs.
DEFAULT_TELEMETRY_MAX_BYTES = 1 << 20

#: Raw (uncompacted) rotated segments kept per worker before the oldest is
#: folded into the cumulative summary segment.
DEFAULT_TELEMETRY_KEEP_SEGMENTS = 2


class LeaseLost(RuntimeError):
    """A worker's heartbeat found its shard lease reclaimed by another worker.

    Raised out of the heartbeat hook to abort the shard mid-evaluation; the
    rows persisted so far stay in the store (deduped by fingerprint), so the
    new owner replays them instead of recomputing.
    """


@dataclass(frozen=True)
class LeaseState:
    """Snapshot of one shard's coordination state.

    ``status`` is one of ``"open"`` (unclaimed), ``"active"`` (leased,
    heartbeat fresh), ``"expired"`` (leased, heartbeat older than the TTL --
    claimable by takeover) or ``"done"`` (completed, never claimable again).
    """

    index: int
    status: str
    owner: Optional[str] = None
    age_s: Optional[float] = None


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


class LeaseDir:
    """Name-keyed lease files with atomic claim/renew/release semantics.

    The coordination primitive shared by the shard ledger and the adaptive
    proposal ledger (:mod:`repro.dse.adaptive.protocol`).  Every unit of
    work is a *name*; ``<name>.lease`` holds the current owner, ``<name>.done``
    marks completion.  All operations go through atomic filesystem
    primitives:

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

    The directory is created lazily by the write paths (claim/release) so
    that read-only inspection -- ``dse status --eta`` on a store the user
    only queries, possibly on a read-only mount -- never mutates the store.
    Read paths treat a missing directory as all-open.
    """

    def __init__(self, directory, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.directory = Path(directory)
        self.ttl_s = float(ttl_s)
        self.clock = clock if clock is not None else LeaseClock()

    # ------------------------------------------------------------------ #
    def lease_path(self, name: str) -> Path:
        return self.directory / f"{name}.lease"

    def done_path(self, name: str) -> Path:
        return self.directory / f"{name}.done"

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
        """Heartbeat: refresh ``owner``'s lease mtime; False if it was lost."""

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


class ShardLedger:
    """Lease files deciding which worker owns which shard of a dispatch.

    A thin index-keyed view over :class:`LeaseDir` (shard ``i`` of ``N`` is
    the work unit named ``shard-<i>of<N>``); see there for the atomicity and
    crash-recovery discipline.
    """

    def __init__(self, directory, count: int, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        if count < 1:
            raise ValueError("shard count must be at least 1")
        self._leases = LeaseDir(directory, ttl_s=ttl_s, clock=clock)
        self.directory = self._leases.directory
        self.count = int(count)
        self.ttl_s = self._leases.ttl_s
        self.clock = self._leases.clock

    @classmethod
    def for_store(cls, store_dir, count: int, *, ttl_s: float = DEFAULT_TTL_S,
                  clock: Optional[LeaseClock] = None) -> "ShardLedger":
        """The ledger living inside an experiment-store directory."""

        return cls(Path(store_dir) / LEASE_DIR, count, ttl_s=ttl_s, clock=clock)

    # ------------------------------------------------------------------ #
    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.count:
            raise ValueError(f"shard index must be in 1..{self.count}, "
                             f"got {index}")

    def _name(self, index: int) -> str:
        self._check_index(index)
        return f"shard-{index}of{self.count}"

    def shard(self, index: int) -> Shard:
        self._check_index(index)
        return Shard(index, self.count)

    def lease_path(self, index: int) -> Path:
        return self._leases.lease_path(self._name(index))

    def done_path(self, index: int) -> Path:
        return self._leases.done_path(self._name(index))

    # ------------------------------------------------------------------ #
    def claim(self, index: int, owner: str) -> bool:
        """Try to lease shard ``index`` for ``owner``; True iff it succeeded."""

        return self._leases.claim(self._name(index), owner)

    def renew(self, index: int, owner: str) -> bool:
        """Heartbeat: refresh ``owner``'s lease mtime; False if it was lost.

        A False return means the lease expired and another worker took the
        shard over (or released it) -- the caller must stop working on it.
        """

        return self._leases.renew(self._name(index), owner)

    def release(self, index: int, owner: str, *, done: bool = True) -> None:
        """Drop ``owner``'s lease; with ``done=True`` mark the shard complete."""

        self._leases.release(self._name(index), owner, done=done)

    def owner_of(self, index: int) -> Optional[str]:
        """The owner recorded in a shard's lease file, or ``None``."""

        return self._leases.owner_of(self._name(index))

    # ------------------------------------------------------------------ #
    def state(self, index: int) -> LeaseState:
        """The current :class:`LeaseState` of one shard."""

        status, owner, age = self._leases.status_of(self._name(index))
        return LeaseState(index, status, owner=owner, age_s=age)

    def states(self) -> List[LeaseState]:
        return [self.state(index) for index in range(1, self.count + 1)]

    def status_counts(self) -> Dict[str, int]:
        counts = {"open": 0, "active": 0, "expired": 0, "done": 0}
        for state in self.states():
            counts[state.status] += 1
        return counts

    def done_count(self) -> int:
        return sum(1 for index in range(1, self.count + 1)
                   if self.done_path(index).exists())

    def all_done(self) -> bool:
        return self.done_count() == self.count

    def next_claim(self, owner: str) -> Optional[Shard]:
        """Claim the first available shard for ``owner`` (or ``None``).

        Workers start their scan at an owner-dependent offset so N workers
        hitting an empty ledger at once mostly claim N different shards on
        the first pass instead of stampeding shard 1.
        """

        offset = zlib.crc32(owner.encode()) % self.count
        for step in range(self.count):
            index = (offset + step) % self.count + 1
            if self.claim(index, owner):
                return self.shard(index)
        return None


# --------------------------------------------------------------------------- #
# Worker telemetry: append-only JSONL event logs under <store>/telemetry/.
# --------------------------------------------------------------------------- #
class WorkerTelemetry(LogWriter):
    """One worker's append-only event log inside the store directory.

    Each worker owns exactly one *active* file,
    ``<store>/telemetry/<owner>.jsonl``, and only ever appends to it (a
    :class:`~repro.io.appendlog.LogWriter`, open until :meth:`close`) --
    the same single-writer-per-file discipline the experiment store uses,
    so no cross-process locking is needed.  Events record the lease
    lifecycle (claims, heartbeat renewals, losses, completions) and worker
    start/exit, each stamped by the shared :class:`LeaseClock`;
    :func:`telemetry_summary` folds the directory union into a per-worker
    fleet view for ``repro dse status --workers``.

    **Rotation/compaction** keeps long-lived fleets bounded: once the
    active file exceeds ``max_bytes`` it is renamed to
    ``<owner>.seg<k>.jsonl`` (segment numbers only ever grow), and once
    more than ``keep_segments`` raw segments accumulate, the oldest are
    folded -- with any previous summary -- into one cumulative
    ``event: "summary"`` row in ``<owner>.seg0.jsonl`` and unlinked.  Its
    ``folded_through`` (the highest raw segment it accounts for) lets
    readers skip the segments it folded, so nothing is counted twice.
    """

    def __init__(self, store_dir, owner: str, *,
                 clock: Optional[LeaseClock] = None,
                 max_bytes: Optional[int] = DEFAULT_TELEMETRY_MAX_BYTES,
                 keep_segments: int = DEFAULT_TELEMETRY_KEEP_SEGMENTS) -> None:
        self.owner = owner
        self.clock = clock if clock is not None else LeaseClock()
        self.directory = Path(store_dir) / TELEMETRY_DIR
        self.stem = filename_safe(owner)
        super().__init__(self.directory / f"{self.stem}.jsonl")
        self.max_bytes = max_bytes
        self.keep_segments = max(1, int(keep_segments))

    def emit(self, event: str, **fields) -> None:
        """Append one event record (creates the directory lazily)."""

        record = {"t": self.clock.now(), "owner": self.owner, "event": event}
        record.update(fields)
        size = self.append(record)
        if self.max_bytes is not None and size > self.max_bytes:
            self._rotate()

    # ------------------------------------------------------------------ #
    def _segment_path(self, k: int) -> Path:
        return self.directory / f"{self.stem}.seg{k}.jsonl"

    def _rotate(self) -> None:
        """Rotate the active file out and compact surplus raw segments."""

        # This worker's segments by number: the seg0 summary row and the
        # events of every raw segment.
        history: Dict[int, List[Dict[str, object]]] = {}

        def take(name: str, lineno: int, record: Dict[str, object]) -> None:
            segment = parse_segment(name)
            if segment is not None and segment[0] == self.stem:
                history.setdefault(segment[1], []).append(record)

        LogReader(self.directory, take, pattern=f"{self.stem}.seg*.jsonl").poll()
        summary = next((record for record in history.get(0, ())
                        if record.get("event") == "summary"), None)
        folded_through = int(summary.get("folded_through", 0)) if summary \
            else 0
        segments = sorted(k for k in history if k > 0)
        next_k = max(segments + [folded_through]) + 1
        self.rotate(self._segment_path(next_k))
        segments.append(next_k)
        surplus = segments[:-self.keep_segments]
        if surplus:
            self._compact(summary, surplus, history)

    def _compact(self, summary: Optional[Dict[str, object]],
                 segments: Sequence[int],
                 history: Dict[int, List[Dict[str, object]]]) -> None:
        """Fold ``segments`` (and the prior summary) into ``seg0``."""

        totals = dict(ZERO_TOTALS, t=0.0, owner=self.owner, event="summary",
                      folded=0, folded_through=max(segments), first_t=None,
                      alive=None, last_event=None)
        if summary is not None:
            fold_event(totals, summary)
            if isinstance(summary.get("folded"), (int, float)):
                totals["folded"] += summary["folded"]
            totals["first_t"] = summary.get("first_t", summary.get("t"))
        for k in segments:
            for record in history.get(k, ()):
                fold_event(totals, record)
                totals["folded"] += 1
                t = record.get("t")
                if isinstance(t, (int, float)) and (
                        totals["first_t"] is None or t < totals["first_t"]):
                    totals["first_t"] = float(t)
        atomic_write_text(self._segment_path(0),
                          json.dumps(totals, sort_keys=True) + "\n")
        # Only after the summary durably covers them may the raw segments
        # go; a crash between these steps leaves both readable, and the
        # ``folded_through`` guard keeps readers from counting twice.
        for k in segments:
            try:
                self._segment_path(k).unlink()
            except OSError:
                pass


def read_telemetry(store_dir) -> List[Dict[str, object]]:
    """All telemetry events of a store, in the canonical content ordering.

    One poll of a :class:`~repro.obs.timeline.TelemetryReader`: compacted
    history appears as cumulative ``event: "summary"`` rows, and raw
    segments a summary already accounts for are left out.
    """

    reader = TelemetryReader(store_dir)
    reader.poll()
    return reader.events


def telemetry_summary(store_dir, *,
                      now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
    """Fold the telemetry logs into one row per worker.

    Each row counts lease claims, heartbeat renewals, losses and completed
    work units, accumulates evaluated/replayed point totals and shard wall
    time (throughput = points / wall_s), and reports the age of the
    worker's most recent event (``last_seen_age_s``) -- the fleet-level
    analogue of a lease heartbeat age.  ``alive`` tracks worker_start /
    worker_exit markers; a worker that died without its exit marker shows
    ``alive`` with a growing ``last_seen_age_s``.  ``phase`` is the
    worker's live open span (stamped on heartbeat events by traced
    workers; ``None`` for untraced runs or between work units).
    """

    events = read_telemetry(store_dir)
    return fold_workers(events, now=LeaseClock().now() if now is None else now)


# --------------------------------------------------------------------------- #
# Dispatch manifest: the one file a worker needs to join a run.
# --------------------------------------------------------------------------- #
def write_manifest(store_dir, space: DesignSpace, *, shards: Optional[int] = None,
                   ttl_s: float = DEFAULT_TTL_S, jobs: int = 1,
                   throttle_s: float = 0.0, mode: str = "shards",
                   strategy: Optional[Dict[str, object]] = None) -> Path:
    """Write ``<store>/dispatch.json`` describing the run (atomic replace).

    A worker pointed at the store directory reads everything it needs from
    this manifest: the space, the coordination ``mode`` (``"shards"`` --
    static shards of whole compilations, the default and the only pre-v3
    mode -- or ``"adaptive"`` -- workers lease proposal batches written by a
    strategy proposer, see :mod:`repro.dse.adaptive.protocol`), the shard
    count and the fixed ``partition`` marker (shards mode), the strategy
    spec (adaptive mode), the lease TTL and the per-worker ``jobs``.
    Re-preparing an existing dispatch is allowed only if the space, mode,
    shard count and strategy are unchanged and the manifest carries this
    version's partition (the work partition must stay stable across
    resumes); TTL/jobs/throttle may be retuned.  A *new* manifest is refused
    when ``<store>/leases/`` already holds done markers: they belong to an
    earlier run, and workers would trust them without evaluating a point.
    """

    from repro.io.serialization import SCHEMA_VERSION

    if mode not in ("shards", "adaptive"):
        raise ValueError(f"unknown dispatch mode {mode!r}; "
                         f"expected 'shards' or 'adaptive'")
    if mode == "shards" and shards is None:
        raise ValueError("shards-mode dispatch needs a shard count")
    if mode == "adaptive" and strategy is None:
        raise ValueError("adaptive-mode dispatch needs a strategy spec")
    store_dir = Path(store_dir)
    path = store_dir / MANIFEST_NAME
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "space": space.to_dict(),
        "mode": mode,
        "ttl_s": float(ttl_s),
        "jobs": int(jobs),
        "throttle_s": float(throttle_s),
    }
    if shards is not None:
        manifest["shards"] = int(shards)
    if mode == "shards":
        manifest["partition"] = SHARD_PARTITION
    if strategy is not None:
        manifest["strategy"] = dict(strategy)
    if path.exists():
        existing = read_manifest(store_dir)
        _check_partition(existing, path)
        if (existing.get("space") != manifest["space"]
                or existing.get("mode", "shards") != mode
                or existing.get("shards") != manifest.get("shards")
                or existing.get("strategy") != manifest.get("strategy")):
            raise ValueError(
                f"{path} already describes a different dispatch (space, "
                f"mode, shard count or strategy differs); use a fresh store "
                f"directory")
    elif any((store_dir / LEASE_DIR).glob("*.done")):
        raise ValueError(
            f"{store_dir / LEASE_DIR} holds done markers of an earlier "
            f"dispatch, which a new run would trust without evaluating its "
            f"points; use a fresh store directory")
    return atomic_write_text(path, json.dumps(manifest, indent=2,
                                              sort_keys=True) + "\n")


def read_manifest(store_dir) -> Dict:
    """Load and validate the dispatch manifest of a store directory."""

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
    return manifest


def _check_partition(manifest: Dict, source) -> None:
    """Refuse a shards-mode manifest written under another shard partition."""

    if (manifest.get("mode", "shards") == "shards"
            and manifest.get("partition") != SHARD_PARTITION):
        raise ValueError(
            f"{source} was written by an older version that assigned points "
            f"to shards by fingerprint; its shards and done markers do not "
            f"match this version's partition by compilation.  Use a fresh "
            f"store directory")


# --------------------------------------------------------------------------- #
# Worker loop
# --------------------------------------------------------------------------- #
def run_worker(store_dir, *, owner: Optional[str] = None,
               jobs: Optional[int] = None, circuits=None,
               idle_wait_s: Optional[float] = None) -> Dict[str, object]:
    """Lease and evaluate work from ``store_dir`` until the run completes.

    The dispatch manifest decides the coordination mode: static shards
    (below) or, for ``mode: "adaptive"`` manifests, proposal batches written
    by a strategy proposer -- the worker then delegates to
    :func:`repro.dse.adaptive.protocol.run_adaptive_worker`, so every
    worker, local or remote, joins either kind of run through this one
    entry point.

    The shards-mode loop: claim a shard, refresh the worker's store view
    with the incremental ``reload`` (so rows flushed by other workers --
    including a dead worker's partial shard file -- replay instead of
    recomputing), evaluate the shard's points with a heartbeat after every
    persisted task group, mark the shard done, repeat.  When shards remain
    but none is claimable (all actively leased), the worker re-polls every
    ``idle_wait_s`` (default 0.05 s) rather than exiting and stranding a
    dead worker's shard.  An idle poll only stats lease files, so it writes
    nothing, and the worker exits within one poll of the last shard's done
    marker.

    One store view and one :class:`~repro.dse.runner.DSERunner` -- with
    its built circuits, point fingerprints and compiled-program cache --
    serve every shard this worker runs; each claim rebinds only the
    runner's shard and heartbeat.  Shards hold whole compilations, so a
    program compiles once and its gate variants run as one batched fan-out.

    Returns ``{"owner", "completed", "lost"}`` where ``lost`` lists shards
    aborted because the lease was reclaimed mid-evaluation.
    """

    from repro.toolflow.parallel import ProgramCache

    store_dir = Path(store_dir)
    manifest = read_manifest(store_dir)
    if manifest.get("mode", "shards") == "adaptive":
        from repro.dse.adaptive.protocol import run_adaptive_worker

        return run_adaptive_worker(store_dir, manifest=manifest, owner=owner,
                                   jobs=jobs, circuits=circuits,
                                   idle_wait_s=idle_wait_s)
    _check_partition(manifest, store_dir / MANIFEST_NAME)
    space = DesignSpace.from_dict(manifest["space"])
    ledger = ShardLedger.for_store(store_dir, manifest["shards"],
                                   ttl_s=manifest.get("ttl_s", DEFAULT_TTL_S))
    owner = owner or default_owner()
    jobs = int(manifest.get("jobs", 1)) if jobs is None else int(jobs)
    throttle_s = float(manifest.get("throttle_s", 0.0))
    if idle_wait_s is None:
        idle_wait_s = 0.05

    # Join the dispatcher's trace when it stamped one into our environment:
    # spans go to this worker's shard file, which the dispatcher merges
    # into one fleet trace.  Untraced, every flush is a no-op.
    trace_ctx = TraceContext.from_env()
    tracer = trace_ctx.arm() if trace_ctx is not None else None
    cache = ProgramCache()
    completed: List[int] = []
    lost: List[int] = []
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
        shard_writer = logs.enter_context(TraceShardWriter(store_dir, owner))
        telemetry.emit("worker_start", mode="shards", shards=ledger.count,
                       jobs=jobs, pid=os.getpid())
        store = logs.enter_context(ExperimentStore(store_dir))
        runner = DSERunner(space, store=store, jobs=jobs, cache=cache,
                           circuits=circuits)
        while True:
            shard = ledger.next_claim(owner)
            if shard is None:
                if ledger.all_done():
                    break
                # Unfinished shards are all actively leased; one of them
                # may belong to a dead worker, so wait for expiry instead
                # of exiting.
                time.sleep(idle_wait_s)
                continue
            telemetry.emit("claim", work=shard.name, **_live_phase())
            shard_started = time.perf_counter()

            def heartbeat(index: int = shard.index,
                          name: str = shard.name) -> None:
                if not ledger.renew(index, owner):
                    raise LeaseLost(f"lease on shard {index}/{ledger.count} "
                                    f"was reclaimed from {owner}")
                telemetry.emit("renew", work=name, **_live_phase())
                if throttle_s:
                    time.sleep(throttle_s)

            # The reload picks up every row other workers have flushed so
            # far, so a reclaimed shard replays the dead worker's partial
            # results instead of recomputing them.  The writer file is
            # per-(shard, owner): after a takeover, an alive-but-slow
            # previous owner may still flush one in-flight group before its
            # next heartbeat notices the loss, and two processes appending
            # to one file over NFS can tear each other's rows.  Separate
            # files close that window; directory union and fingerprint
            # dedup merge them losslessly.
            store.reload()
            store.set_writer(f"{shard.name}-{filename_safe(owner)}")
            runner.shard, runner.heartbeat = shard, heartbeat
            before = dict(runner.stats)
            try:
                with span("dse.shard", shard=shard.name, owner=owner):
                    runner.evaluate_space()
            except LeaseLost:
                lost.append(shard.index)
                telemetry.emit("lease_lost", work=shard.name)
                shard_writer.flush(tracer)
                continue
            ledger.release(shard.index, owner, done=True)
            completed.append(shard.index)
            telemetry.emit(
                "done", work=shard.name,
                points=runner.stats["evaluated"] - before["evaluated"],
                replayed=runner.stats["reused"] - before["reused"],
                wall_s=round(time.perf_counter() - shard_started, 6),
                counters=counters_delta())
            # Flush after every completed shard: a SIGKILL later costs only
            # the spans closed since this point.
            shard_writer.flush(tracer)
        telemetry.emit("worker_exit", completed=len(completed),
                       lost=len(lost), counters=cache.metrics.counters())
        shard_writer.flush(tracer)
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


class StoreProgress:
    """Point counts and the ``wall_s``-driven ETA of one store directory.

    One store view stays open and is refreshed with the incremental
    :meth:`~repro.dse.store.ExperimentStore.reload`, so a tick costs the
    rows appended since the previous one.  Behind :meth:`Dispatcher.progress`
    and the ``dse top`` monitor (:class:`~repro.obs.timeline.FleetMonitor`).
    """

    def __init__(self, store_dir) -> None:
        self.store_dir = Path(store_dir)
        self._store: Optional[ExperimentStore] = None

    def snapshot(self, total: Optional[int] = None, *,
                 shards: Optional[Dict[str, int]] = None) -> Dict[str, object]:
        """``points_done``; given the space size ``total``, also the pending
        points, the lease ``shards`` counts and the ETA over the active
        leases (at least one)."""

        if self._store is None:
            self._store = ExperimentStore(self.store_dir)
        else:
            self._store.reload()
        progress: Dict[str, object] = {"points_done": len(self._store)}
        if total is not None:
            pending = max(0, total - len(self._store))
            progress.update(points_total=total, points_pending=pending)
            if shards is not None:
                progress["shards"] = shards
            progress["eta_s"] = estimate_eta_s(
                pending, self._store.wall_timings(),
                max(1, (shards or {}).get("active", 0)))
        return progress

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None


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
class Dispatcher:
    """Partition a space into leased shards and drive workers to completion.

    Parameters
    ----------
    space:
        The design space to evaluate (exhaustive grid; adaptive strategies
        cannot shard -- see :meth:`DSERunner.run`).
    store_dir:
        Experiment-store directory shared by all workers.  Should be
        dedicated to this study: progress accounting assumes every row in
        it belongs to ``space``.
    workers:
        Local worker processes to run (ignored by :meth:`command_lines`,
        which targets remote launch).
    shards:
        Lease granularity; defaults to ``4 * workers`` so workers stay busy
        through the tail and a worker death forfeits at most one shard of
        fresh progress.  Shards hold whole compilations, so a space with
        few distinct compilations may leave some shards empty.
    ttl_s:
        Lease time-to-live; must exceed the slowest task group's wall time
        -- one compile plus all its folded gate-variant simulations --
        since heartbeats fire once per completed task group.
    jobs:
        Process-pool width *inside* each worker (total parallelism is
        ``workers x jobs``).
    throttle_s:
        Optional sleep per heartbeat inside workers -- a load limiter for
        shared machines, also used by the CI smoke test to widen the
        kill window.  Default 0.
    poll_s:
        Longest wait between two checks of the ledger and of worker
        liveness.  The dispatcher waits on a worker process instead of
        sleeping, so it wakes as soon as that worker exits -- which workers
        do once every shard is done.
    respawn / max_respawns:
        Replace workers that exited non-zero (up to ``max_respawns``,
        default ``workers``) while unfinished shards remain.
    """

    def __init__(self, space: DesignSpace, store_dir, *, workers: int = 2,
                 shards: Optional[int] = None, ttl_s: float = DEFAULT_TTL_S,
                 jobs: int = 1, throttle_s: float = 0.0, poll_s: float = 0.5,
                 respawn: bool = True, max_respawns: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.space = space
        self.store_dir = Path(store_dir)
        self.workers = int(workers)
        self.shards = int(shards) if shards is not None else 4 * self.workers
        if self.shards < 1:
            raise ValueError("need at least one shard")
        self.ttl_s = float(ttl_s)
        self.jobs = int(jobs)
        self.throttle_s = float(throttle_s)
        self.poll_s = float(poll_s)
        self.respawn = respawn
        self.max_respawns = (self.workers if max_respawns is None
                             else int(max_respawns))
        self.respawned = 0
        self.ledger = ShardLedger.for_store(self.store_dir, self.shards,
                                            ttl_s=self.ttl_s)
        self._procs: List[subprocess.Popen] = []
        self._progress = StoreProgress(self.store_dir)

    # ------------------------------------------------------------------ #
    def prepare(self) -> Path:
        """Write the dispatch manifest; workers can join once this returns."""

        return write_manifest(self.store_dir, self.space, shards=self.shards,
                              ttl_s=self.ttl_s, jobs=self.jobs,
                              throttle_s=self.throttle_s)

    def worker_command(self) -> List[str]:
        """argv for one local worker subprocess."""

        return worker_argv(self.store_dir)

    def command_lines(self) -> List[str]:
        """Shell commands for launching the workers on remote machines.

        Every machine that mounts the store directory runs the same
        command; workers coordinate purely through the ledger, so any
        number may join or die at any time.  Derived from
        :func:`worker_argv` with a portable ``python`` in place of this
        machine's interpreter path.
        """

        argv = ["python"] + worker_argv(self.store_dir)[1:]
        command = " ".join(shlex.quote(arg) for arg in argv)
        return [command] * self.workers

    def spawn_worker(self) -> subprocess.Popen:
        """Start one local worker subprocess (repro importable via env)."""

        return spawn_worker_process(self.store_dir)

    # ------------------------------------------------------------------ #
    def progress(self) -> Dict[str, object]:
        """One snapshot: point counts, shard states and the wall_s-driven ETA.

        A progress tick costs O(rows appended since the last tick) -- not a
        full re-parse of the directory (see :class:`StoreProgress`).
        """

        progress = self._progress.snapshot(
            self.space.size, shards=self.ledger.status_counts())
        progress["workers"] = telemetry_summary(self.store_dir)
        return progress

    def _alive(self) -> List[subprocess.Popen]:
        return [proc for proc in self._procs if proc.poll() is None]

    def _reap_and_respawn(self) -> None:
        """Replace workers that died abnormally, within the respawn budget."""

        for proc in list(self._procs):
            if proc.poll() is None or proc.returncode == 0:
                continue
            self._procs.remove(proc)
            if (self.respawn and self.respawned < self.max_respawns
                    and not self.ledger.all_done()):
                self.respawned += 1
                self._procs.append(self.spawn_worker())

    def run(self, *, timeout_s: Optional[float] = None,
            on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
            progress_interval_s: float = 2.0) -> Dict[str, object]:
        """Prepare, spawn local workers, and watch until every shard is done.

        Dead workers' shards are reclaimed by the survivors through lease
        expiry; workers that *exited* abnormally are additionally respawned
        (the reclaim still happens through the ledger -- respawn just keeps
        N workers pulling).  Returns a summary dictionary; ``complete`` is
        False when the run timed out or every worker stopped with shards
        unfinished and the respawn budget exhausted.
        """

        with span("dse.dispatch", workers=self.workers,
                  shards=self.shards) as trace:
            summary = self._run(timeout_s=timeout_s, on_progress=on_progress,
                                progress_interval_s=progress_interval_s)
            trace.set(complete=summary["complete"], points=summary["points"],
                      respawned=summary["respawned"])
        tracer = current_tracer()
        if tracer is not None:
            # The workers joined this trace (spawn_worker_process stamped
            # the context) and flushed their spans to shard files; fold
            # them in so the ordinary --trace flush writes one fleet trace.
            summary["trace"] = adopt_shards(tracer, self.store_dir)
        return summary

    def _run(self, *, timeout_s: Optional[float],
             on_progress: Optional[Callable[[Dict[str, object]], None]],
             progress_interval_s: float) -> Dict[str, object]:
        self.prepare()
        started = time.monotonic()
        self._procs = [self.spawn_worker() for _ in range(self.workers)]
        last_report = -float("inf")
        complete = False
        try:
            while True:
                if self.ledger.all_done():
                    complete = True
                    break
                if timeout_s is not None and time.monotonic() - started > timeout_s:
                    break
                self._reap_and_respawn()
                alive = self._alive()
                if not alive:
                    # Every worker exited (cleanly or beyond the respawn
                    # budget) with shards unfinished: nobody is left to
                    # reclaim them.
                    complete = self.ledger.all_done()
                    break
                if (on_progress is not None
                        and time.monotonic() - last_report >= progress_interval_s):
                    last_report = time.monotonic()
                    on_progress(self.progress())
                # Workers exit once every shard is done, so waiting on one
                # ends the run on that event instead of on a sleep tick.
                try:
                    alive[0].wait(timeout=self.poll_s)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # Workers exit by themselves once every shard is done; anything
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
        return {
            "complete": complete,
            "elapsed_s": time.monotonic() - started,
            "respawned": self.respawned,
            "points": snapshot["points_done"],
            "points_total": snapshot["points_total"],
            "shards": snapshot["shards"],
        }
