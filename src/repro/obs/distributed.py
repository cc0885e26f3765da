"""Fleet-wide distributed tracing: context propagation, span records, merging.

A ``--trace`` on ``repro dse dispatch`` must see the whole fleet, not just
the dispatcher process.  Three pieces make that work:

* :class:`TraceContext` -- the root ``trace_id`` plus the dispatcher's
  open-span ``parent_ref``, carried to worker subprocesses through the
  environment (the ``REPRO_CHECK`` pattern of
  :mod:`repro.checks`: ``spawn_worker_process`` copies the
  parent environment, so stamping the spawn env is all the propagation
  needed).  Every worker arms a tracer parented under the same root; the
  local workers of a ``--jobs N`` sweep are dispatched workers too.
* **Span records** -- after every completed work unit and at exit, each
  worker appends the spans closed since its previous flush to its one
  event stream (:meth:`~repro.dse.dispatch.WorkerTelemetry.flush_spans`);
  a SIGKILLed worker leaves every flushed line plus at most one torn
  tail.  Records carry *absolute* wall-clock starts (``epoch_start_s``),
  so any process can place them on a shared timeline.
* **A deterministic merger** -- the streams' one reader
  (:class:`~repro.obs.timeline.TelemetryReader`) hands over the records
  that pass :func:`span_refusal` in a total content ordering
  (:func:`span_sort_key`), so the same span set merges byte-identically
  however it was split across workers (each worker's part is its
  *shard*).  :func:`adopt_shards` folds them into a live tracer (``dse
  dispatch --trace``); :func:`write_merged_trace` is ``repro trace merge``.

A span record is the flat ``Span.to_dict`` schema plus ``trace_id``,
``owner``, ``epoch_start_s``, a per-record ``schema_version``
(:data:`SHARD_SCHEMA_VERSION`), ``"event": "span"`` (:data:`SPAN_EVENT`,
which tells it from the stream's lease events) and -- on spans with no
in-process parent -- the tracer's cross-process ``parent_ref``.
Profiling resolves ``parent_ref`` links, so the fleet critical path
descends from the dispatcher's ``dse.dispatch`` span into the worker that
actually spent the wall time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Tracer, current_tracer, enable_tracing, span

__all__ = [
    "ENV_TRACE_ID",
    "ENV_TRACE_PARENT",
    "SHARD_SCHEMA_VERSION",
    "SPAN_EVENT",
    "TraceContext",
    "adopt_shards",
    "export_records",
    "refuse_trace_shards",
    "span_record",
    "span_refusal",
    "span_sort_key",
    "write_merged_trace",
]

#: Environment variables carrying the trace context to child processes.
ENV_TRACE_ID = "REPRO_TRACE"
ENV_TRACE_PARENT = "REPRO_TRACE_PARENT"

#: The ``event`` of a span record in a worker's stream.
SPAN_EVENT = "span"

#: Version stamped on every span record; readers skip-with-warning any
#: record from a future schema instead of misinterpreting it.
SHARD_SCHEMA_VERSION = 1

#: Keys a span record must carry to be mergeable.
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
    """The tracer's records in the self-contained span-record schema.

    Times become absolute (``epoch_start_s``) so the records merge onto
    any process's timeline; every record is stamped with the trace id,
    the span-record schema version, ``"event": "span"`` and (when given)
    the flushing worker's ``owner``; spans with no in-process parent
    inherit the tracer's cross-process ``parent_ref``.
    """

    return [span_record(tracer, record, owner)
            for record in tracer.records()]


def span_record(tracer: Tracer, record: Dict[str, object],
                owner: Optional[str]) -> Dict[str, object]:
    """One tracer record (own span or adopted foreign one), epoch-framed."""

    record = dict(record)
    record["epoch_start_s"] = tracer.epoch_s + float(
        record.pop("start_s", 0.0) or 0.0)
    record.setdefault("trace_id", tracer.trace_id)
    record["schema_version"] = SHARD_SCHEMA_VERSION
    record["event"] = SPAN_EVENT
    if owner and not record.get("owner"):
        record["owner"] = owner
    if (tracer.parent_ref and record.get("parent_id") is None
            and not record.get("parent_ref")):
        record["parent_ref"] = tracer.parent_ref
    return record


def _to_frame(record: Dict[str, object],
              epoch_s: float) -> Dict[str, object]:
    """A span record rebased into a host tracer's time frame, less the
    stream's ``event`` and ``schema_version`` stamps."""

    record = dict(record)
    record["start_s"] = float(record.pop("epoch_start_s", 0.0)) - epoch_s
    record.pop("schema_version", None)
    record.pop("event", None)
    return record


def span_refusal(record: Dict[str, object]) -> Optional[str]:
    """Why a span record cannot be merged, or ``None`` when it can."""

    if any(key not in record for key in _REQUIRED_KEYS):
        return "not a mergeable span record (a span field is missing)"
    if int(record.get("schema_version") or 0) > SHARD_SCHEMA_VERSION:
        return (f"schema_version {record['schema_version']} is newer "
                f"than this reader ({SHARD_SCHEMA_VERSION})")
    return None


def span_sort_key(record: Dict[str, object]) -> Tuple:
    """The merge order: start, pid, span id, canonical JSON (total)."""

    return (float(record.get("epoch_start_s") or 0.0),
            record.get("pid") or 0, record.get("span_id") or 0,
            json.dumps(record, sort_keys=True, default=str))


def refuse_trace_shards(store_dir) -> None:
    """Refuse a store whose spans an older version kept in ``traces/``,
    which reading only the worker streams would silently drop."""

    old = Path(store_dir) / "traces"
    if old.is_dir():
        raise ValueError(
            f"{old} holds trace shards written by an older version, which "
            f"kept spans apart from each worker's telemetry stream; this "
            f"version reads spans only from telemetry/<owner>.jsonl and "
            f"can neither resume nor merge this store.  Use a fresh store "
            f"directory")


def _read_spans(store_dir) -> Tuple[List[Dict[str, object]], Dict[str, int]]:
    """A store's span records in merge order, and skipped lines per stream."""

    from repro.obs.timeline import TelemetryReader

    reader = TelemetryReader(store_dir)
    reader.poll()
    return reader.spans, reader.skip_counts()


def _merge_info(records, skips, read_records) -> Dict[str, object]:
    """The merge summary of ``records``, out of ``read_records``."""

    return {
        "shards": len({record.get("owner") for record in read_records
                       if record.get("owner")}),
        "spans": len(records),
        "pids": sorted({record["pid"] for record in records}),
        "trace_ids": sorted({str(record.get("trace_id"))
                             for record in records
                             if record.get("trace_id")}),
        "skipped": skips,
    }


def adopt_shards(tracer: Tracer, store_dir) -> Dict[str, object]:
    """Fold a store's span records into a live tracer (dispatch merge).

    Span records are rebased into the tracer's time frame and adopted as
    foreign records, so the ordinary ``--trace`` flush then writes one
    fleet-wide bundle: a metadata-annotated Chrome trace, a spans JSONL
    the profiler reads across pids, and a manifest whose phase timings
    cover every process.  Records the tracer itself produced (matching
    pid) are dropped -- the dispatcher's own spans are already in it.

    Returns a summary: shard (worker owner) count, adopted span count,
    pids, trace ids seen and per-stream skip counts.
    """

    with span("trace.merge", store=str(store_dir)) as merge_span:
        records, skips = _read_spans(store_dir)
        adopted = [_to_frame(record, tracer.epoch_s) for record in records
                   if record["pid"] != tracer.pid]
        tracer.adopt(adopted)
        info = _merge_info(adopted, skips, records)
        merge_span.set(spans=len(adopted), shards=info["shards"])
    return info


def write_merged_trace(store_dir, output, *,
                       config: Optional[object] = None
                       ) -> Tuple[Dict[str, Path], Dict[str, object]]:
    """Merge a store's span records into one trace bundle at ``output``.

    The standalone merger behind ``repro trace merge``: a synthetic host
    tracer anchored at the earliest record (so the output is a pure
    function of the record set -- merging the same spans twice, however
    split across streams, writes byte-identical Chrome traces) adopts
    every span record and is written through the ordinary
    :func:`~repro.obs.export.write_trace` bundle.

    Raises ``ValueError`` when the store has no readable span records, or
    holds the ``traces/`` directory of an older version.
    """

    refuse_trace_shards(store_dir)
    with span("trace.merge", store=str(store_dir)):
        records, skips = _read_spans(store_dir)
        if not records:
            raise ValueError(f"no span records in the worker streams under "
                             f"{Path(store_dir) / 'telemetry'}")
        origin = min(float(record["epoch_start_s"]) for record in records)
        info = _merge_info(records, skips, records)
        host = Tracer(trace_id=(info["trace_ids"][0]
                                if info["trace_ids"] else None))
        # Anchor the synthetic host at the earliest span and mark the
        # records as foreign even if one stream came from this very pid:
        # determinism requires the output to depend on records alone.
        host.epoch_s = origin
        host.pid = -1
        host.adopt(_to_frame(record, origin) for record in records)

    from repro.obs.export import write_trace

    paths = write_trace(output, host, config=config,
                        extra={"merged_shards": info["shards"],
                               "skipped_lines": sum(skips.values())})
    return paths, info
