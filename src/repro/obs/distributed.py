"""Fleet-wide distributed tracing: context propagation, shards, merging.

A ``--trace`` on ``repro dse dispatch`` must see the whole fleet, not just
the dispatcher process.  Three pieces make that work:

* :class:`TraceContext` -- the root ``trace_id`` plus the dispatcher's
  open-span ``parent_ref``, carried to worker subprocesses through the
  environment (the ``REPRO_CHECK`` pattern of
  :mod:`repro.analyze.runtime`: ``spawn_worker_process`` copies the
  parent environment, so stamping the spawn env is all the propagation
  needed) and into process-pool children through the pool initializer of
  :func:`repro.toolflow.parallel.iter_tasks`.  Every process arms a
  tracer parented under the same root.
* **Trace shards** -- each worker flushes its span records to
  ``<store>/traces/<owner>.jsonl`` (:class:`TraceShardWriter`), through
  the same atomic temp+rename discipline as
  :func:`repro.obs.export.atomic_write_text`, after every completed work
  unit and at exit; a SIGKILLed worker leaves its last complete flush.
  Records carry *absolute* wall-clock starts (``epoch_start_s``), so any
  process can place them on a shared timeline.
* **A deterministic merger** -- :func:`read_trace_shards` parses every
  shard (skipping torn or corrupt lines with a
  :class:`~repro.dse.store.StoreCorruptionWarning`, counted per file like
  the experiment store does) and returns records in a total content
  ordering, so the same span set merges byte-identically regardless of
  how it was split across shard files.  :func:`adopt_shards` folds them
  into a live tracer (what ``dse dispatch --trace`` does automatically);
  :func:`write_merged_trace` is the standalone ``repro trace merge``.

Shard records are the flat ``Span.to_dict`` schema plus ``trace_id``,
``owner``, ``epoch_start_s``, a per-record ``schema_version``
(:data:`SHARD_SCHEMA_VERSION`) and -- on spans with no in-process parent
-- the tracer's cross-process ``parent_ref``.  Profiling resolves
``parent_ref`` links, so the fleet critical path descends from the
dispatcher's ``dse.dispatch`` span into the worker that actually spent
the wall time.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.export import atomic_write_text, filename_safe
from repro.obs.metrics import registry
from repro.obs.trace import Tracer, current_tracer, enable_tracing, span

__all__ = [
    "ENV_TRACE_ID",
    "ENV_TRACE_PARENT",
    "SHARD_SCHEMA_VERSION",
    "TRACE_DIR",
    "TraceContext",
    "TraceShardWriter",
    "adopt_exported",
    "adopt_shards",
    "drain_records",
    "export_records",
    "read_trace_shards",
    "write_merged_trace",
]

#: Environment variables carrying the trace context to child processes.
ENV_TRACE_ID = "REPRO_TRACE"
ENV_TRACE_PARENT = "REPRO_TRACE_PARENT"

#: Subdirectory of the store directory holding per-worker trace shards
#: (a sibling of ``telemetry/``; one level down so the store never
#: ingests span records as experiment rows).
TRACE_DIR = "traces"

#: Version stamped on every shard record; readers skip-with-warning any
#: record from a future schema instead of misinterpreting it.
SHARD_SCHEMA_VERSION = 1

#: Keys a shard record must carry to be mergeable.
_REQUIRED_KEYS = ("name", "span_id", "pid", "tid", "epoch_start_s",
                  "duration_s")


@dataclass(frozen=True)
class TraceContext:
    """The cross-process trace context: root id + parent span reference."""

    trace_id: str
    parent_ref: Optional[str] = None

    @classmethod
    def from_tracer(cls, tracer: Tracer,
                    parent_ref: Optional[str] = None) -> "TraceContext":
        return cls(trace_id=tracer.trace_id, parent_ref=parent_ref)

    @classmethod
    def from_env(cls, env=None) -> Optional["TraceContext"]:
        """The context a parent process stamped, or ``None``."""

        env = os.environ if env is None else env
        trace_id = env.get(ENV_TRACE_ID, "")
        if not trace_id:
            return None
        return cls(trace_id=trace_id,
                   parent_ref=env.get(ENV_TRACE_PARENT) or None)

    def stamp(self, env) -> None:
        """Write the context into an environment mapping for a child."""

        env[ENV_TRACE_ID] = self.trace_id
        if self.parent_ref:
            env[ENV_TRACE_PARENT] = self.parent_ref
        else:
            env.pop(ENV_TRACE_PARENT, None)

    def arm(self) -> Tracer:
        """Install a tracer joined to this context (idempotent)."""

        tracer = current_tracer()
        if tracer is not None and tracer.trace_id == self.trace_id:
            return tracer
        return enable_tracing(trace_id=self.trace_id,
                              parent_ref=self.parent_ref)


def export_records(tracer: Tracer, *,
                   owner: Optional[str] = None) -> List[Dict[str, object]]:
    """The tracer's records in the self-contained shard schema.

    Times become absolute (``epoch_start_s``) so the records merge onto
    any process's timeline; every record is stamped with the trace id,
    the shard schema version and (when given) the flushing worker's
    ``owner``; spans with no in-process parent inherit the tracer's
    cross-process ``parent_ref``.
    """

    shard_records = []
    for record in tracer.records():
        record = dict(record)
        record["epoch_start_s"] = tracer.epoch_s + float(
            record.pop("start_s", 0.0) or 0.0)
        record.setdefault("trace_id", tracer.trace_id)
        record["schema_version"] = SHARD_SCHEMA_VERSION
        if owner and not record.get("owner"):
            record["owner"] = owner
        if (tracer.parent_ref and record.get("parent_id") is None
                and not record.get("parent_ref")):
            record["parent_ref"] = tracer.parent_ref
        shard_records.append(record)
    return shard_records


def drain_records(tracer: Tracer, *,
                  owner: Optional[str] = None) -> List[Dict[str, object]]:
    """Export and *clear* the tracer's records (pool-child shipping).

    Span ids keep incrementing, so records drained in separate batches
    stay unique per ``(pid, span_id)``.
    """

    records = export_records(tracer, owner=owner)
    tracer.spans.clear()
    tracer.foreign.clear()
    return records


def _to_frame(record: Dict[str, object],
              epoch_s: float) -> Dict[str, object]:
    """A shard record rebased into a host tracer's time frame."""

    record = dict(record)
    record["start_s"] = float(record.pop("epoch_start_s", 0.0)) - epoch_s
    record.pop("schema_version", None)
    return record


def adopt_exported(tracer: Tracer, records) -> None:
    """Adopt exported (``epoch_start_s``-framed) records into a tracer.

    The in-memory counterpart of :func:`adopt_shards`: pool children ship
    their drained records home through the task result instead of a shard
    file, and the parent folds them in here, rebased into its time frame.
    """

    tracer.adopt(_to_frame(record, tracer.epoch_s) for record in records)


class TraceShardWriter:
    """Crash-safe flusher of one worker's span records to its shard file.

    Every :meth:`flush` rewrites ``<store>/traces/<owner>.jsonl``
    atomically with all records so far, so readers (and the post-run
    merger) always see a complete prefix of the worker's trace -- a
    SIGKILL costs only the spans since the last flush.
    """

    def __init__(self, store_dir, owner: str) -> None:
        self.owner = owner
        self.path = (Path(store_dir) / TRACE_DIR
                     / f"{filename_safe(owner)}.jsonl")

    def flush(self, tracer: Optional[Tracer]) -> Optional[Path]:
        if tracer is None:
            return None
        records = export_records(tracer, owner=self.owner)
        if not records:
            return None
        text = "".join(json.dumps(record, sort_keys=True, default=str) + "\n"
                       for record in records)
        return atomic_write_text(self.path, text)


def _record_sort_key(record: Dict[str, object]):
    return (float(record.get("epoch_start_s") or 0.0),
            record.get("pid") or 0, record.get("span_id") or 0,
            json.dumps(record, sort_keys=True, default=str))


def read_trace_shards(store_dir) -> Tuple[List[Dict[str, object]],
                                          Dict[str, int]]:
    """Parse every trace shard under a store; returns (records, skips).

    Records come back in a total content ordering (start, pid, span id,
    canonical JSON), so downstream merges are independent of the shard
    split.  Unparseable or incomplete lines are skipped: a torn *final*
    line without a trailing newline is counted silently (it may be a live
    writer's in-flight append -- the experiment store's tail discipline),
    anything else warns with a :class:`~repro.dse.store.StoreCorruptionWarning`.
    ``skips`` counts skipped lines per shard file name, mirrored into the
    ``trace.lines_skipped`` metrics counter.
    """

    from repro.dse.store import StoreCorruptionWarning

    directory = Path(store_dir) / TRACE_DIR
    records: List[Dict[str, object]] = []
    skips: Dict[str, int] = {}
    paths = sorted(directory.glob("*.jsonl")) if directory.is_dir() else []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        torn_tail = bool(lines and lines[-1].strip())
        if lines and not lines[-1].strip():
            lines.pop()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            reason = None
            try:
                record = json.loads(line)
            except ValueError as exc:
                reason = f"invalid JSON ({exc})"
                record = None
            if reason is None:
                if not isinstance(record, dict) or any(
                        key not in record for key in _REQUIRED_KEYS):
                    reason = "not a trace-shard span record"
                elif int(record.get("schema_version") or 0) \
                        > SHARD_SCHEMA_VERSION:
                    reason = (f"schema_version "
                              f"{record['schema_version']} is newer than "
                              f"this reader ({SHARD_SCHEMA_VERSION})")
            if reason is None:
                records.append(record)
                continue
            skips[path.name] = skips.get(path.name, 0) + 1
            registry().counter("trace.lines_skipped").inc()
            if not (torn_tail and lineno == len(lines)):
                warnings.warn(f"trace shards: skipping "
                              f"{path.name}:{lineno}: {reason}",
                              StoreCorruptionWarning, stacklevel=3)
    records.sort(key=_record_sort_key)
    return records, skips


def _merge_info(records, skips,
                shard_count: int) -> Dict[str, object]:
    return {
        "shards": shard_count,
        "spans": len(records),
        "pids": sorted({record["pid"] for record in records}),
        "trace_ids": sorted({str(record.get("trace_id"))
                             for record in records
                             if record.get("trace_id")}),
        "skipped": skips,
    }


def adopt_shards(tracer: Tracer, store_dir) -> Dict[str, object]:
    """Fold a store's trace shards into a live tracer (dispatch merge).

    Shard records are rebased into the tracer's time frame and adopted as
    foreign records, so the ordinary ``--trace`` flush then writes one
    fleet-wide bundle: a metadata-annotated Chrome trace, a spans JSONL
    the profiler reads across pids, and a manifest whose phase timings
    cover every process.  Records the tracer itself produced (matching
    pid) are dropped -- the dispatcher's own spans are already in it.

    Returns a summary: shard file count, adopted span count, pids, trace
    ids seen and per-file skip counts.
    """

    with span("trace.merge", store=str(store_dir)) as merge_span:
        records, skips = read_trace_shards(store_dir)
        shard_count = len({record.get("owner") for record in records
                           if record.get("owner")})
        adopted = [_to_frame(record, tracer.epoch_s) for record in records
                   if record["pid"] != tracer.pid]
        tracer.adopt(adopted)
        info = _merge_info(adopted, skips, shard_count)
        merge_span.set(spans=len(adopted), shards=shard_count)
    return info


def write_merged_trace(store_dir, output, *,
                       config: Optional[object] = None
                       ) -> Tuple[Dict[str, Path], Dict[str, object]]:
    """Merge a store's trace shards into one trace bundle at ``output``.

    The standalone merger behind ``repro trace merge``: a synthetic host
    tracer anchored at the earliest record (so the output is a pure
    function of the record set -- merging the same spans twice, however
    sharded, writes byte-identical Chrome traces) adopts every shard
    record and is written through the ordinary
    :func:`~repro.obs.export.write_trace` bundle.

    Raises ``ValueError`` when the store has no readable shard records.
    """

    with span("trace.merge", store=str(store_dir)):
        records, skips = read_trace_shards(store_dir)
        if not records:
            raise ValueError(f"no trace shards under "
                             f"{Path(store_dir) / TRACE_DIR}")
        origin = min(float(record["epoch_start_s"]) for record in records)
        info = _merge_info(records, skips,
                           len({record.get("owner") for record in records
                                if record.get("owner")}))
        host = Tracer(trace_id=(info["trace_ids"][0]
                                if info["trace_ids"] else None))
        # Anchor the synthetic host at the earliest span and mark the
        # records as foreign even if one shard came from this very pid:
        # determinism requires the output to depend on records alone.
        host.epoch_s = origin
        host.pid = -1
        host.adopt(_to_frame(record, origin) for record in records)

    from repro.obs.export import write_trace

    paths = write_trace(output, host, config=config,
                        extra={"merged_shards": info["shards"],
                               "skipped_lines": sum(skips.values())})
    return paths, info
