"""Trace export: Chrome trace-event JSON, flat span JSONL, run manifest.

Three views of one :class:`~repro.obs.trace.Tracer`:

* :func:`chrome_trace` -- the Chrome trace-event format (``traceEvents``
  with complete ``"ph": "X"`` events, microsecond ``ts``/``dur``), which
  loads directly in Perfetto / ``chrome://tracing``.  A tracer that
  adopted foreign records (a fleet run) additionally gets ``"ph": "M"``
  ``process_name``/``thread_name`` metadata events and a *total content
  ordering* of its events, so the same span set exports byte-identically
  regardless of how it was sharded across processes.
* :func:`spans_jsonl` -- one flat JSON object per span (the
  ``Span.to_dict`` schema), for grep/jq-style analysis.
* :func:`run_manifest` -- what produced the trace: config fingerprint,
  schema versions, per-phase timing totals and a metrics snapshot.

:func:`write_trace` writes all three next to each other
(``out.json`` + ``out.spans.jsonl`` + ``out.manifest.json``) and is what
the ``--trace`` CLI flag calls.  :func:`validate_chrome_trace` is the
schema check used by the tests and the CI ``obs-smoke`` job.

None of this touches experiment data: traces are a side channel, and the
canonical store export stays byte-identical with tracing enabled (CI
enforces this against the committed golden export).
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
from pathlib import Path
from typing import Dict, List, Optional

from repro.io.appendlog import atomic_write_text
from repro.io.jsonfile import SCHEMA_VERSION
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.trace import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_trace",
    "config_fingerprint",
    "filename_safe",
    "run_manifest",
    "spans_jsonl",
    "validate_chrome_trace",
    "write_trace",
]

#: Version of the span/manifest schemas (independent of the store's
#: row ``SCHEMA_VERSION``; bump when the exported shapes change).
#: v2: spans may carry ``parent_ref``/``owner``/``trace_id`` (distributed
#: traces), the manifest carries ``trace_id``, and fleet Chrome traces
#: carry ``process_name``/``thread_name`` metadata events.
TRACE_SCHEMA_VERSION = 2

#: Keys every Chrome trace event emitted here must carry.
_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")

#: Metadata event names the merger emits (the only ``ph: "M"`` kinds the
#: validator accepts).
_METADATA_NAMES = ("process_name", "thread_name")


def config_fingerprint(payload: object) -> str:
    """SHA-256 over the canonical JSON of a run's configuration."""

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _span_event(record: Dict[str, object]) -> Dict[str, object]:
    """One span record as a complete (``ph: "X"``) Chrome trace event."""

    args = dict(record.get("attrs") or {})
    args["span_id"] = record["span_id"]
    if record.get("parent_id") is not None:
        args["parent_id"] = record["parent_id"]
    if record.get("parent_ref"):
        args["parent_ref"] = record["parent_ref"]
    if record.get("owner"):
        args["owner"] = record["owner"]
    name = str(record["name"])
    return {
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "X",
        "ts": round(float(record.get("start_s") or 0.0) * 1e6, 3),
        "dur": round(float(record.get("duration_s") or 0.0) * 1e6, 3),
        "pid": record["pid"],
        "tid": record["tid"],
        "args": args,
    }


def _fleet_metadata_events(records) -> List[Dict[str, object]]:
    """Stable ``process_name``/``thread_name`` metadata for a fleet trace.

    One ``process_name`` per pid (the worker's ``owner`` when its records
    carry one, else ``pid-<pid>``) and one ``thread_name`` per
    ``(pid, tid)``, both in sorted order -- a pure function of the record
    set, so merged traces stay byte-identical however they were sharded.
    """

    labels: Dict[int, str] = {}
    threads = set()
    for record in records:
        pid = record["pid"]
        owner = record.get("owner")
        if pid not in labels and isinstance(owner, str) and owner:
            labels[pid] = owner
        threads.add((pid, record["tid"]))
    events: List[Dict[str, object]] = []
    for pid in sorted({pid for pid, _ in threads}):
        events.append({"name": "process_name", "ph": "M", "ts": 0.0,
                       "pid": pid, "tid": 0,
                       "args": {"name": labels.get(pid, f"pid-{pid}")}})
    for pid, tid in sorted(threads):
        events.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                       "pid": pid, "tid": tid,
                       "args": {"name": f"tid-{tid}"}})
    return events


def _event_sort_key(event: Dict[str, object]):
    return (event["ts"], event["pid"], event["tid"],
            event["args"].get("span_id", 0),
            json.dumps(event, sort_keys=True, default=str))


def chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """The tracer's spans in Chrome trace-event JSON (Perfetto-loadable).

    A single-process tracer exports its spans in completion order, exactly
    as before distributed tracing.  A tracer holding foreign records (or
    records spanning several pids) exports the *fleet* form: metadata
    events first, then every span event in a total content ordering
    (start time, pid, tid, span id, canonical JSON) -- the
    ``fold_timeline`` discipline, so a given span set merges to the same
    bytes regardless of the shard split it arrived through.
    """

    records = tracer.records()
    fleet = bool(tracer.foreign) or len({rec["pid"] for rec in records}) > 1
    events = [_span_event(record) for record in records]
    if fleet:
        events.sort(key=_event_sort_key)
        events = _fleet_metadata_events(records) + events
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_schema": TRACE_SCHEMA_VERSION,
            "trace_id": tracer.trace_id,
            "epoch_s": tracer.epoch_s,
            "hostname": socket.gethostname(),
        },
    }


def spans_jsonl(tracer: Tracer) -> str:
    """Flat span JSONL text (one ``Span.to_dict`` object per line)."""

    lines = [json.dumps(record, sort_keys=True, default=str)
             for record in tracer.records()]
    return "".join(line + "\n" for line in lines)


def run_manifest(tracer: Tracer, *,
                 metrics: Optional[MetricsRegistry] = None,
                 config: Optional[object] = None,
                 extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The per-run manifest: fingerprint, schema versions, phase timings."""

    metrics = metrics if metrics is not None else registry()
    manifest: Dict[str, object] = {
        "trace_schema": TRACE_SCHEMA_VERSION,
        "store_schema_version": SCHEMA_VERSION,
        "config_fingerprint": config_fingerprint(config),
        "created_epoch_s": tracer.epoch_s,
        "hostname": socket.gethostname(),
        "pid": tracer.pid,
        "trace_id": tracer.trace_id,
        "num_spans": len(tracer.spans) + len(tracer.foreign),
        "phase_timings": tracer.phase_timings(),
        "metrics": metrics.snapshot(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def filename_safe(name: str) -> str:
    """``name`` with every character outside ASCII ``[A-Za-z0-9._-]``
    replaced by ``_``.

    Owner identities (host plus pid) name each worker's event stream,
    store writer and lease temp files; one rule keeps those names portable
    and in agreement with each other.
    """

    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def write_trace(path, tracer: Tracer, *,
                metrics: Optional[MetricsRegistry] = None,
                config: Optional[object] = None,
                extra: Optional[Dict[str, object]] = None) -> Dict[str, Path]:
    """Write the trace bundle for one run; returns the three paths.

    ``out.json`` gets the Chrome trace; the span JSONL and the manifest go
    to ``out.spans.jsonl`` and ``out.manifest.json`` beside it.  Every
    file lands through :func:`~repro.io.appendlog.atomic_write_text`, so
    a crashed run's partial trace is always a *valid* trace of the spans
    that finished (the ``--trace`` flush-on-failure path depends on it).
    """

    path = Path(path)
    stem = path.name[:-len(".json")] if path.name.endswith(".json") \
        else path.name
    spans_path = path.with_name(f"{stem}.spans.jsonl")
    manifest_path = path.with_name(f"{stem}.manifest.json")
    payload = chrome_trace(tracer)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=str) + "\n")
    atomic_write_text(spans_path, spans_jsonl(tracer))
    manifest = run_manifest(tracer, metrics=metrics, config=config,
                            extra=extra)
    atomic_write_text(manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True,
                                 default=str) + "\n")
    return {"trace": path, "spans": spans_path, "manifest": manifest_path}


def validate_chrome_trace(payload: Dict[str, object]) -> int:
    """Check a Chrome-trace payload's schema; returns the event count.

    Raises ``ValueError`` naming the first violation.  Used by the span
    round-trip tests and the CI ``obs-smoke`` job to guarantee the emitted
    trace actually loads in Perfetto-compatible viewers.  Accepts the two
    event kinds the exporter emits: complete spans (``ph: "X"``, which
    need a non-negative ``dur``) and the merger's
    ``process_name``/``thread_name`` metadata (``ph: "M"``, which need a
    non-empty ``args.name`` label).
    """

    if not isinstance(payload, dict):
        raise ValueError("chrome trace must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace must carry a 'traceEvents' list")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{position}] is not an object")
        for key in _EVENT_KEYS:
            if key not in event:
                raise ValueError(f"traceEvents[{position}] lacks {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"traceEvents[{position}] has an empty name")
        if event["ph"] == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(
                    f"traceEvents[{position}] ('{event['name']}') has a "
                    f"missing or negative 'dur'")
        elif event["ph"] == "M":
            if event["name"] not in _METADATA_NAMES:
                raise ValueError(
                    f"traceEvents[{position}] has unknown metadata kind "
                    f"'{event['name']}'")
            args = event.get("args")
            label = args.get("name") if isinstance(args, dict) else None
            if not isinstance(label, str) or not label:
                raise ValueError(
                    f"traceEvents[{position}] ('{event['name']}') lacks a "
                    f"non-empty args.name label")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(
                f"traceEvents[{position}] ('{event['name']}') has a "
                f"non-numeric 'ts'")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                raise ValueError(
                    f"traceEvents[{position}] ('{event['name']}') has a "
                    f"non-integer {key!r}")
    return len(events)
