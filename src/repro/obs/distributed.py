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
* **Trace shards** -- each worker appends the spans closed since its
  previous flush to ``<store>/traces/<owner>.jsonl``
  (:class:`TraceShardWriter`, on the shared :mod:`repro.io.appendlog`)
  after every completed work unit and at exit; a SIGKILLed worker leaves
  every flushed line plus at most one torn tail.  Records carry
  *absolute* wall-clock starts (``epoch_start_s``), so any process can
  place them on a shared timeline.
* **A deterministic merger** -- :func:`read_trace_shards` reads every
  shard by the append log's rules (torn or corrupt lines skipped, counted
  per file and warned about, exactly as in the experiment store) and
  returns records in a total content ordering, so the same span set
  merges byte-identically regardless of how it was split across shard
  files.  :func:`adopt_shards` folds them into a live
  tracer (what ``dse dispatch --trace`` does automatically);
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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.io.appendlog import LogReader, LogWriter
from repro.obs.export import filename_safe
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

    return [_shard_record(tracer, record, owner)
            for record in tracer.records()]


def _shard_record(tracer: Tracer, record: Dict[str, object],
                  owner: Optional[str]) -> Dict[str, object]:
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
    return record


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


class TraceShardWriter(LogWriter):
    """Appends one worker's span records to its shard file.

    Every :meth:`flush` appends the records that arrived since the previous
    flush -- spans the tracer closed and foreign records it adopted,
    counted apart because :meth:`~repro.obs.trace.Tracer.records` lists own
    spans before foreign ones -- so a flush costs its new records, not the
    run so far, and the spans stay in the tracer.  A SIGKILL costs only the
    spans since the last flush.  The file stays open until :meth:`close`.
    """

    def __init__(self, store_dir, owner: str) -> None:
        super().__init__(Path(store_dir) / TRACE_DIR
                         / f"{filename_safe(owner)}.jsonl")
        self.owner = owner
        self._spans = self._foreign = 0

    def flush(self, tracer: Optional[Tracer]) -> Optional[Path]:
        """Append the records new since the last flush; ``None`` if none."""

        if tracer is None:
            return None
        records = [item.to_dict(tracer.origin_s)
                   for item in tracer.spans[self._spans:]]
        records += tracer.foreign[self._foreign:]
        self._spans, self._foreign = len(tracer.spans), len(tracer.foreign)
        for record in records:
            self.append(_shard_record(tracer, record, self.owner))
        return self.path if records else None


def _record_sort_key(record: Dict[str, object]):
    return (float(record.get("epoch_start_s") or 0.0),
            record.get("pid") or 0, record.get("span_id") or 0,
            json.dumps(record, sort_keys=True, default=str))


def read_trace_shards(store_dir) -> Tuple[List[Dict[str, object]],
                                          Dict[str, int]]:
    """Parse every trace shard under a store; returns (records, skips).

    Records come back in a total content ordering (start, pid, span id,
    canonical JSON), so downstream merges are independent of the shard
    split.  Lines are read by the shared append log's rules; records
    missing a span field, or from a future shard schema, are skipped with
    a :class:`~repro.io.appendlog.StoreCorruptionWarning`.  ``skips``
    counts skipped lines per shard file name, mirrored into the
    ``trace.lines_skipped`` metrics counter.
    """

    records: List[Dict[str, object]] = []

    def take(name: str, lineno: int, record: Dict[str, object]) -> Optional[str]:
        if any(key not in record for key in _REQUIRED_KEYS):
            return "not a trace-shard span record"
        if int(record.get("schema_version") or 0) > SHARD_SCHEMA_VERSION:
            return (f"schema_version {record['schema_version']} is newer "
                    f"than this reader ({SHARD_SCHEMA_VERSION})")
        records.append(record)
        return None

    reader = LogReader(Path(store_dir) / TRACE_DIR, take,
                       counter="trace.lines_skipped")
    reader.poll()
    records.sort(key=_record_sort_key)
    return records, reader.skip_counts()


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
