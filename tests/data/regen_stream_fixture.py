"""Regenerate ``stream_fixture.json``: fixed worker records and what the
layout before the one event stream made of them.

The fixture holds fixed lease events and span records, and the outputs
the commit before the one per-worker stream (``5c3a9a1``) produced for
them: the ``repro trace merge`` bundle (Chrome trace, spans JSONL,
manifest), ``telemetry_summary``, ``fold_timeline`` and the ``dse top
--once`` frame.  That commit kept events in ``<store>/telemetry/`` and
spans in ``<store>/traces/``, so this script runs against its tree only:

    git archive 5c3a9a1 | tar -x -C <parent>
    PYTHONPATH=<parent>/src python tests/data/regen_stream_fixture.py

``tests/test_obs_distributed.py::TestStreamFixture`` writes the same
records through the one stream and compares bytes.  The host name in the
merge manifest is pinned to ``fixture-host``; every clock is fixed.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "stream_fixture.json"

#: The fixed "now" of every summary, timeline and frame.
NOW = 1040.0

#: Lease events of three workers: w0 finishes two shards, w1 loses one and
#: finishes another, w2 stalls (flagged at NOW).  Equal stamps across and
#: within owners exercise the total event order.
EVENTS = [
    {"t": 1000.0, "owner": "w0", "event": "worker_start", "mode": "shards",
     "shards": 4, "jobs": 2, "pid": 101},
    {"t": 1000.25, "owner": "w1", "event": "worker_start", "mode": "shards",
     "shards": 4, "jobs": 1, "pid": 202},
    {"t": 1000.5, "owner": "w0", "event": "claim", "work": "shard-1of4"},
    {"t": 1000.75, "owner": "w1", "event": "claim", "work": "shard-2of4"},
    {"t": 1001.0, "owner": "w2", "event": "worker_start", "mode": "shards",
     "shards": 4, "jobs": 1, "pid": 303},
    {"t": 1001.0, "owner": "w2", "event": "claim", "work": "shard-3of4"},
    {"t": 1001.25, "owner": "w0", "event": "renew", "work": "shard-1of4",
     "phase": "sweep.task"},
    {"t": 1002.0, "owner": "w1", "event": "renew", "work": "shard-2of4",
     "phase": "compile.route"},
    {"t": 1002.0, "owner": "w2", "event": "renew", "work": "shard-3of4",
     "phase": "sim.batch.variants"},
    {"t": 1003.0, "owner": "w0", "event": "done", "work": "shard-1of4",
     "points": 4, "replayed": 0, "wall_s": 2.5,
     "counters": {"cache.hits": 3, "cache.misses": 1}},
    {"t": 1003.0, "owner": "w1", "event": "renew", "work": "shard-2of4",
     "phase": "dse.work"},
    {"t": 1003.5, "owner": "w0", "event": "claim", "work": "shard-4of4"},
    {"t": 1004.0, "owner": "w0", "event": "renew", "work": "shard-4of4",
     "phase": "dse.work"},
    {"t": 1007.75, "owner": "w0", "event": "done", "work": "shard-4of4",
     "points": 4, "replayed": 2, "wall_s": 4.25,
     "counters": {"cache.hits": 4}},
    {"t": 1008.0, "owner": "w0", "event": "worker_exit", "completed": 2,
     "lost": 0, "counters": {"cache.hits": 7, "cache.misses": 1}},
    {"t": 1009.5, "owner": "w1", "event": "lease_lost", "work": "shard-2of4"},
    {"t": 1010.0, "owner": "w1", "event": "claim", "work": "shard-2of4"},
    {"t": 1012.5, "owner": "w1", "event": "done", "work": "shard-2of4",
     "points": 2, "replayed": 1, "wall_s": 2.5,
     "counters": {"cache.misses": 2}},
    {"t": 1013.0, "owner": "w1", "event": "worker_exit", "completed": 1,
     "lost": 1, "counters": {"cache.misses": 2}},
]

#: Span records per flushing worker, as a worker's tracer exports them
#: (absolute ``epoch_start_s``; the flush adds ``owner`` and
#: ``schema_version``).  w0 ran a pool child (pid 111); w1 starts a span
#: at the same instant as one of w0's, and a child at its parent's start.
SPANS = {
    "w0": [
        {"name": "dse.work", "span_id": 1, "parent_id": None,
         "parent_ref": "1:1", "pid": 101, "tid": 1,
         "epoch_start_s": 1000.5, "duration_s": 2.5,
         "attrs": {"work": "shard-1of4", "owner": "w0"},
         "trace_id": "fixture-trace"},
        {"name": "dse.evaluate", "span_id": 2, "parent_id": 1, "pid": 101,
         "tid": 1, "epoch_start_s": 1000.625, "duration_s": 2.25,
         "attrs": {"points": 4, "evaluated": 4, "reused": 0},
         "trace_id": "fixture-trace"},
        {"name": "sweep.task", "span_id": 3, "parent_id": 2, "pid": 101,
         "tid": 1, "epoch_start_s": 1000.75, "duration_s": 1.0,
         "attrs": {"app": "QFT", "gates": 2}, "trace_id": "fixture-trace"},
        {"name": "compile", "span_id": 4, "parent_id": 3, "pid": 101,
         "tid": 1, "epoch_start_s": 1000.75, "duration_s": 0.5,
         "attrs": {"circuit": "qft8"}, "trace_id": "fixture-trace"},
        {"name": "dse.work", "span_id": 5, "parent_id": None,
         "parent_ref": "1:1", "pid": 101, "tid": 1,
         "epoch_start_s": 1003.5, "duration_s": 4.25,
         "attrs": {"work": "shard-4of4", "owner": "w0"},
         "trace_id": "fixture-trace"},
        {"name": "sweep.task", "span_id": 1, "parent_id": None,
         "parent_ref": "101:5", "pid": 111, "tid": 7,
         "epoch_start_s": 1003.625, "duration_s": 3.875,
         "attrs": {"app": "BV", "gates": 4}, "trace_id": "fixture-trace"},
    ],
    "w1": [
        {"name": "dse.work", "span_id": 1, "parent_id": None,
         "parent_ref": "1:1", "pid": 202, "tid": 1,
         "epoch_start_s": 1000.75, "duration_s": 8.75,
         "attrs": {"work": "shard-2of4", "owner": "w1"},
         "trace_id": "fixture-trace"},
        {"name": "compile.route", "span_id": 2, "parent_id": 1, "pid": 202,
         "tid": 1, "epoch_start_s": 1000.75, "duration_s": 1.5,
         "attrs": {"policy": "greedy"}, "trace_id": "fixture-trace"},
        {"name": "dse.work", "span_id": 3, "parent_id": None,
         "parent_ref": "1:1", "pid": 202, "tid": 1,
         "epoch_start_s": 1010.0, "duration_s": 2.5,
         "attrs": {"work": "shard-2of4", "owner": "w1"},
         "trace_id": "fixture-trace"},
        {"name": "sweep.task", "span_id": 4, "parent_id": 3, "pid": 202,
         "tid": 1, "epoch_start_s": 1010.0, "duration_s": 2.375,
         "attrs": {"app": "QFT", "gates": 2}, "trace_id": "fixture-trace"},
    ],
}


def tracer_of(records):
    """A tracer holding ``records`` as adopted foreign spans.

    With ``epoch_s`` 0.0 a flush writes ``epoch_start_s`` exactly as
    given: it adds the record's ``start_s`` to the tracer's epoch.
    """

    from repro.obs.trace import Tracer

    tracer = Tracer(trace_id="fixture-trace")
    tracer.epoch_s = 0.0
    for record in records:
        record = dict(record)
        record["start_s"] = record.pop("epoch_start_s")
        tracer.foreign.append(record)
    return tracer


class FixedClock:
    """A lease clock stub that reads whatever ``t`` was set to."""

    def __init__(self, t: float) -> None:
        self.t = t

    def now(self) -> float:
        return self.t


def main() -> int:
    from repro.obs import reset_registry

    socket.gethostname = lambda: "fixture-host"
    reset_registry()
    work = Path(tempfile.mkdtemp(prefix="stream_fixture_"))
    os.chdir(work)
    try:
        return _write_fixture(clock=FixedClock(0.0))
    finally:
        os.chdir(FIXTURE.parent)
        shutil.rmtree(work, ignore_errors=True)


def _write_fixture(clock: FixedClock) -> int:
    from repro.cli import main as repro_main
    from repro.dse.dispatch import (
        WorkerTelemetry,
        read_telemetry,
        telemetry_summary,
    )
    from repro.obs.distributed import TraceShardWriter
    from repro.obs.timeline import FleetMonitor, fold_timeline, render_top

    logs = {}
    for record in EVENTS:
        fields = {key: value for key, value in record.items()
                  if key not in ("t", "owner", "event")}
        clock.t = record["t"]
        log = logs.setdefault(record["owner"], WorkerTelemetry(
            "store", record["owner"], clock=clock))
        log.emit(record["event"], **fields)
    for log in logs.values():
        log.close()
    for owner, records in SPANS.items():
        with TraceShardWriter("store", owner) as writer:
            writer.flush(tracer_of(records))

    if repro_main(["trace", "merge", "--store", "store",
                   "--output", "merged.json"]) != 0:
        return 1
    clock.t = NOW
    monitor = FleetMonitor("store", clock=clock)
    try:
        frame = render_top(monitor.snapshot(), window=monitor.window)
    finally:
        monitor.close()
    parent = {
        "trace": Path("merged.json").read_text(),
        "spans_jsonl": Path("merged.spans.jsonl").read_text(),
        "manifest": Path("merged.manifest.json").read_text(),
        "telemetry_summary": telemetry_summary("store", now=NOW),
        "fold_timeline": fold_timeline(read_telemetry("store"),
                                       until_t=NOW),
        "top_frame": frame,
    }
    FIXTURE.write_text(json.dumps({"now": NOW, "events": EVENTS,
                                   "spans": SPANS, "parent": parent},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
