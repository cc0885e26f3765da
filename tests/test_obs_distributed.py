"""Tests for fleet-wide distributed tracing (repro.obs.distributed).

Covers the fleet-tracing guarantees: the trace context propagates into
pool children (``sweep.task`` spans no longer vanish for ``--jobs 2``) and
into dispatched worker subprocesses via the environment; workers flush
span records crash-safely into their one event stream beside the lease
events, and the records merge deterministically -- the same span set
produces a byte-identical Chrome trace regardless of how it was split
across worker streams, and the same bytes the separate trace shards of
the layout before produced; torn or corrupt stream lines are skipped with
the store's ``StoreCorruptionWarning`` discipline while the merged trace
still validates and profiles; and the profiler resolves cross-process
``parent_ref`` links into one fleet critical path.
"""

from __future__ import annotations

import json
import os
import socket
import warnings
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse import DesignSpace, Dispatcher
from repro.dse.dispatch import (
    FleetView,
    LeaseClock,
    WorkerTelemetry,
    run_worker,
)
from repro.dse.store import StoreCorruptionWarning
from repro.obs import (
    SHARD_SCHEMA_VERSION,
    SPAN_EVENT,
    TraceContext,
    adopt_shards,
    build_profile,
    chrome_trace,
    current_span_name,
    current_span_ref,
    disable_tracing,
    enable_tracing,
    render_top,
    reset_registry,
    span,
    validate_chrome_trace,
    write_merged_trace,
)
from repro.obs.distributed import (
    ENV_TRACE_ID,
    ENV_TRACE_PARENT,
    drain_records,
    export_records,
)
from repro.obs.timeline import TelemetryReader, fold_timeline, top_snapshot
from repro.toolflow import ArchitectureConfig, SweepTask
from repro.toolflow.parallel import run_tasks


@pytest.fixture(autouse=True)
def _clean_obs_state():
    disable_tracing()
    reset_registry()
    yield
    disable_tracing()
    reset_registry()


def _make_spans(tracer):
    with span("dse.shard", shard="s0"):
        with span("sweep.task"):
            pass
    return tracer


def _read_spans(store):
    """The span records of a store's streams and skipped lines per stream,
    as the merge reads them."""

    reader = TelemetryReader(store)
    reader.poll()
    return reader.spans, reader.skip_counts()


def read_telemetry(store):
    """The lease events of a store's streams, as the fleet view reads them."""

    reader = TelemetryReader(store)
    reader.poll()
    return reader.events


def telemetry_summary(store, *, now=None):
    """The per-worker rows of one fleet-view tick, aged at ``now``."""

    clock = None if now is None else LeaseClock(now_fn=lambda: now)
    return FleetView(store, clock=clock).tick()["workers"]


# --------------------------------------------------------------------------- #
# Trace context propagation
# --------------------------------------------------------------------------- #
class TestTraceContext:
    def test_env_round_trip(self):
        tracer = enable_tracing()
        with span("dse.dispatch"):
            ctx = TraceContext.from_tracer(tracer,
                                           parent_ref=current_span_ref())
            env = {}
            ctx.stamp(env)
            assert env[ENV_TRACE_ID] == tracer.trace_id
            assert env[ENV_TRACE_PARENT] == f"{tracer.pid}:1"
        back = TraceContext.from_env(env)
        assert back == ctx

    def test_from_env_absent(self):
        assert TraceContext.from_env({}) is None
        assert TraceContext.from_env({ENV_TRACE_ID: ""}) is None

    def test_stamp_clears_stale_parent(self):
        env = {ENV_TRACE_PARENT: "9:9"}
        TraceContext(trace_id="t").stamp(env)
        assert ENV_TRACE_PARENT not in env

    def test_arm_is_idempotent(self):
        ctx = TraceContext(trace_id="root-x", parent_ref="7:3")
        tracer = ctx.arm()
        assert tracer.trace_id == "root-x"
        assert tracer.parent_ref == "7:3"
        assert ctx.arm() is tracer

    def test_fresh_tracer_restarts_parent_chain(self):
        # A forked pool child inherits the parent's ContextVar; a fresh
        # tracer must not attribute new spans to another process's span.
        enable_tracing()
        with span("outer"):
            tracer = enable_tracing()
            with span("inner"):
                pass
        assert tracer.spans[0].parent_id is None

    def test_current_span_name_tracks_open_span(self):
        assert current_span_name() is None
        enable_tracing()
        assert current_span_name() is None
        with span("dse.shard"):
            with span("sweep.task"):
                assert current_span_name() == "sweep.task"
            assert current_span_name() == "dse.shard"
        assert current_span_name() is None


# --------------------------------------------------------------------------- #
# Pool children (the --jobs 2 regression)
# --------------------------------------------------------------------------- #
class TestPoolChildSpans:
    def test_jobs2_sweep_ships_task_spans_home(self, qft8):
        config = ArchitectureConfig(topology="L3", trap_capacity=6)
        tasks = [SweepTask(qft8, config),
                 SweepTask(qft8, config.with_updates(trap_capacity=8))]
        tracer = enable_tracing()
        with span("sweep", points=len(tasks)):
            run_tasks(tasks, jobs=2)
        disable_tracing()
        assert [s.name for s in tracer.spans] == ["sweep"]
        names = {r["name"] for r in tracer.foreign}
        assert "sweep.task" in names  # regression: these used to vanish
        assert {r["trace_id"] for r in tracer.foreign} == {tracer.trace_id}
        roots = [r for r in tracer.foreign if r.get("parent_id") is None]
        assert roots and all(r["parent_ref"] == f"{tracer.pid}:1"
                             for r in roots)
        # The fleet critical path descends from the parent's sweep span
        # into a pool child's task.
        profile = build_profile(tracer.records())
        path_names = [step["name"] for step in profile["critical_path"]]
        assert path_names[0] == "sweep"
        assert "sweep.task" in path_names
        assert len({step["pid"] for step in profile["critical_path"]}) == 2

    def test_untraced_jobs2_sweep_ships_nothing(self, qft8):
        config = ArchitectureConfig(topology="L3", trap_capacity=6)
        tasks = [SweepTask(qft8, config),
                 SweepTask(qft8, config.with_updates(trap_capacity=8))]
        run_tasks(tasks, jobs=2)  # no tracer armed: must not blow up
        assert disable_tracing() is None


# --------------------------------------------------------------------------- #
# Shard write / read round trip
# --------------------------------------------------------------------------- #
class TestTraceShards:
    def test_export_records_schema(self):
        tracer = enable_tracing(trace_id="root-1", parent_ref="5:2")
        _make_spans(tracer)
        records = export_records(tracer, owner="w0")
        assert len(records) == 2
        for record in records:
            assert record["schema_version"] == SHARD_SCHEMA_VERSION
            assert record["trace_id"] == "root-1"
            assert record["owner"] == "w0"
            assert "epoch_start_s" in record and "start_s" not in record
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["parent_ref"] for r in roots] == ["5:2"]
        kids = [r for r in records if r["parent_id"] is not None]
        assert all("parent_ref" not in r for r in kids)

    def test_drain_records_clears_and_keeps_ids_unique(self):
        tracer = enable_tracing()
        _make_spans(tracer)
        first = drain_records(tracer)
        assert tracer.spans == [] and tracer.foreign == []
        _make_spans(tracer)
        second = drain_records(tracer)
        ids = [r["span_id"] for r in first + second]
        assert len(ids) == len(set(ids))

    def test_writer_flush_and_read_round_trip(self, tmp_path):
        tracer = enable_tracing()
        _make_spans(tracer)
        with WorkerTelemetry(tmp_path, "worker/0") as stream:
            stream.emit("claim", work="s0")
            assert stream.flush_spans(tracer) == 2
            stream.emit("done", work="s0")
        assert stream.path == tmp_path / "telemetry" / "worker_0.jsonl"
        records, skips = _read_spans(tmp_path)
        assert skips == {}
        assert [r["name"] for r in records] == ["dse.shard", "sweep.task"]
        assert {(r["event"], r["owner"]) for r in records} == \
            {(SPAN_EVENT, "worker/0")}
        # The lease events of the same stream are read apart.
        assert [e["event"] for e in read_telemetry(tmp_path)] == \
            ["claim", "done"]

    def test_non_ascii_owner_names_shard_like_its_telemetry(self, tmp_path):
        """A worker's spans and events share one stream file."""

        tracer = enable_tracing()
        _make_spans(tracer)
        with WorkerTelemetry(tmp_path, "höst-pid7") as stream:
            stream.emit("worker_start", pid=7)
            stream.flush_spans(tracer)
        assert [path.name for path in (tmp_path / "telemetry").iterdir()] \
            == ["h_st-pid7.jsonl"]
        assert len(_read_spans(tmp_path)[0]) == 2

    @staticmethod
    def _appended_by_second_flush(store, first, more=3):
        tracer = enable_tracing()
        writer = WorkerTelemetry(store, "w0")
        try:
            for _ in range(first):
                with span("sweep.task"):
                    pass
            writer.flush_spans(tracer)
            path = writer.path
            before, inode = path.read_bytes(), path.stat().st_ino
            for _ in range(more):
                with span("sweep.task"):
                    pass
            writer.flush_spans(tracer)
            after = path.read_bytes()
            assert path.stat().st_ino == inode  # appended, not replaced
            assert after[:len(before)] == before
            assert len(tracer.spans) == first + more  # spans stay put
        finally:
            writer.close()
        return [json.loads(line)["span_id"]
                for line in after[len(before):].splitlines()]

    def test_flush_appends_only_the_new_spans(self, tmp_path):
        # Per-flush cost is constant in run length: the second flush adds
        # exactly the spans closed since the first, however many came before.
        assert self._appended_by_second_flush(tmp_path / "a", 2) == [3, 4, 5]
        assert self._appended_by_second_flush(tmp_path / "b", 200) == \
            [201, 202, 203]

    def test_flush_none_and_empty_are_noops(self, tmp_path):
        writer = WorkerTelemetry(tmp_path, "w0")
        assert writer.flush_spans(None) == 0
        assert writer.flush_spans(enable_tracing()) == 0
        assert not (tmp_path / "telemetry").exists()

    def test_read_missing_directory(self, tmp_path):
        assert _read_spans(tmp_path) == ([], {})


# --------------------------------------------------------------------------- #
# Deterministic merging
# --------------------------------------------------------------------------- #
def _span_record(name, span_id, pid, start, *, parent=None, ref=None,
                 owner=None):
    record = {"name": name, "span_id": span_id, "parent_id": parent,
              "pid": pid, "tid": 1, "epoch_start_s": start,
              "duration_s": 0.5, "attrs": {}, "event": SPAN_EVENT,
              "trace_id": "root-t", "schema_version": SHARD_SCHEMA_VERSION}
    if ref:
        record["parent_ref"] = ref
    if owner:
        record["owner"] = owner
    return record


def _write_stream(store, name, records):
    directory = Path(store) / "telemetry"
    directory.mkdir(parents=True, exist_ok=True)
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    (directory / name).write_text(text)


FLEET_RECORDS = [
    _span_record("dse.shard", 1, 100, 10.0, owner="w0"),
    _span_record("sweep.task", 2, 100, 10.1, parent=1, owner="w0"),
    _span_record("dse.shard", 1, 200, 10.2, owner="w1"),
    _span_record("sweep.task", 2, 200, 10.3, parent=1, owner="w1"),
]


class TestMergeDeterminism:
    def test_merge_is_independent_of_shard_split(self, tmp_path):
        split_a = tmp_path / "a"
        _write_stream(split_a, "w0.jsonl", FLEET_RECORDS[:2])
        _write_stream(split_a, "w1.jsonl", FLEET_RECORDS[2:])
        split_b = tmp_path / "b"
        _write_stream(split_b, "odd.jsonl", FLEET_RECORDS[::2][::-1])
        _write_stream(split_b, "even.jsonl", FLEET_RECORDS[1::2])
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        write_merged_trace(split_a, out_a)
        write_merged_trace(split_b, out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        spans_a = out_a.with_name("a.spans.jsonl").read_bytes()
        spans_b = out_b.with_name("b.spans.jsonl").read_bytes()
        assert spans_a == spans_b

    def test_merged_trace_validates_with_metadata(self, tmp_path):
        _write_stream(tmp_path, "w0.jsonl", FLEET_RECORDS)
        out = tmp_path / "out.json"
        _, info = write_merged_trace(tmp_path, out)
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == 4 + 2 + 2
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["args"]["name"]) for e in metadata}
        assert ("process_name", 100, "w0") in names
        assert ("process_name", 200, "w1") in names
        assert payload["otherData"]["trace_id"] == "root-t"
        assert info["spans"] == 4 and len(info["pids"]) == 2

    def test_merge_empty_store_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no span records"):
            write_merged_trace(tmp_path, tmp_path / "out.json")

    def test_adopt_shards_drops_own_pid(self, tmp_path):
        own = enable_tracing()
        mixed = FLEET_RECORDS + [
            _span_record("dse.dispatch", 9, os.getpid(), 9.9, owner="me")]
        _write_stream(tmp_path, "w0.jsonl", mixed)
        info = adopt_shards(own, tmp_path)
        assert info["spans"] == 4  # the own-pid record was dropped
        assert {r["pid"] for r in own.foreign} == {100, 200}
        assert [s.name for s in own.spans] == ["trace.merge"]


# --------------------------------------------------------------------------- #
# Crash path: torn and corrupt stream lines
# --------------------------------------------------------------------------- #
class TestShardCorruption:
    def test_torn_tail_skipped_silently(self, tmp_path):
        _write_stream(tmp_path, "w0.jsonl", FLEET_RECORDS[:2])
        stream = tmp_path / "telemetry" / "w0.jsonl"
        stream.write_text(stream.read_text()
                          + json.dumps(FLEET_RECORDS[2])[:25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn tail must not warn
            records, skips = _read_spans(tmp_path)
        assert len(records) == 2
        assert skips == {"w0.jsonl": 1}

    def test_mid_file_corruption_warns(self, tmp_path):
        stream = tmp_path / "telemetry" / "w0.jsonl"
        stream.parent.mkdir(parents=True)
        lines = [json.dumps(FLEET_RECORDS[0], sort_keys=True),
                 "{not json",
                 json.dumps({"name": "x", "event": SPAN_EVENT}),  # no pid...
                 json.dumps(FLEET_RECORDS[1], sort_keys=True)]
        stream.write_text("\n".join(lines) + "\n")
        with pytest.warns(StoreCorruptionWarning) as caught:
            records, skips = _read_spans(tmp_path)
        assert len(records) == 2
        assert skips == {"w0.jsonl": 2}
        assert any("w0.jsonl:2" in str(w.message) for w in caught)

    def test_future_schema_version_skipped(self, tmp_path):
        future = dict(FLEET_RECORDS[0],
                      schema_version=SHARD_SCHEMA_VERSION + 1)
        _write_stream(tmp_path, "w0.jsonl", [FLEET_RECORDS[1], future])
        with pytest.warns(StoreCorruptionWarning, match="newer than"):
            records, skips = _read_spans(tmp_path)
        assert len(records) == 1
        assert skips == {"w0.jsonl": 1}

    @pytest.mark.parametrize("entry", ["read_trace_shards", "read_telemetry",
                                       "telemetry_summary"])
    def test_binary_torn_line_is_skipped(self, tmp_path, entry):
        # A partial binary copy leaves invalid UTF-8 mid-stream: the line
        # is skipped and the records of both kinds on both sides still read
        # -- the trace shard's span records, the events and their summary.
        path = tmp_path / "telemetry" / "w0.jsonl"
        events = [{"t": float(t), "owner": "w0", "event": "claim",
                   "work": f"s{t}"} for t in (1, 2)]
        path.parent.mkdir(parents=True)
        path.write_bytes(json.dumps(FLEET_RECORDS[0]).encode() + b"\n"
                         + json.dumps(events[0]).encode() + b"\n"
                         + b"\xff\xfe\x00garbage\n"
                         + json.dumps(FLEET_RECORDS[1]).encode() + b"\n"
                         + json.dumps(events[1]).encode() + b"\n")
        with pytest.warns(StoreCorruptionWarning, match="w0.jsonl:3"):
            if entry == "read_trace_shards":
                spans, skips = _read_spans(tmp_path)
                assert skips == {"w0.jsonl": 1}
                count = len(spans)
            elif entry == "read_telemetry":
                count = len(read_telemetry(tmp_path))
            else:
                count = telemetry_summary(tmp_path)["w0"]["claims"]
        assert count == 2

    def test_torn_store_still_merges_and_profiles(self, tmp_path):
        _write_stream(tmp_path, "w0.jsonl", FLEET_RECORDS)
        stream = tmp_path / "telemetry" / "w0.jsonl"
        stream.write_text(stream.read_text() + '{"name": "torn')
        out = tmp_path / "out.json"
        paths, info = write_merged_trace(tmp_path, out)
        assert sum(info["skipped"].values()) == 1
        validate_chrome_trace(json.loads(out.read_text()))
        spans = [json.loads(line) for line in
                 paths["spans"].read_text().splitlines()]
        profile = build_profile(spans)
        assert profile["num_spans"] == 4
        assert [s["name"] for s in profile["critical_path"]] == \
            ["dse.shard", "sweep.task"]


# --------------------------------------------------------------------------- #
# Cross-process profiling
# --------------------------------------------------------------------------- #
class TestFleetProfile:
    def test_parent_ref_links_across_pids(self):
        spans = [
            {"name": "dse.dispatch", "span_id": 1, "parent_id": None,
             "pid": 1, "tid": 1, "start_s": 0.0, "duration_s": 4.0,
             "attrs": {}},
            {"name": "dse.shard", "span_id": 1, "parent_id": None,
             "parent_ref": "1:1", "pid": 2, "tid": 1, "start_s": 0.5,
             "duration_s": 3.0, "attrs": {}},
            {"name": "sweep.task", "span_id": 2, "parent_id": 1,
             "pid": 2, "tid": 1, "start_s": 0.6, "duration_s": 2.0,
             "attrs": {}},
        ]
        profile = build_profile(spans)
        assert profile["wall_s"] == 4.0  # only the dispatch span is a root
        assert [(s["name"], s["pid"]) for s in profile["critical_path"]] == \
            [("dse.dispatch", 1), ("dse.shard", 2), ("sweep.task", 2)]
        tree_paths = {node["path"] for node in profile["tree"]}
        assert "dse.dispatch;dse.shard;sweep.task" in tree_paths

    def test_colliding_span_ids_stay_separate_per_pid(self):
        spans = [
            {"name": "dse.shard", "span_id": 1, "parent_id": None,
             "pid": pid, "tid": 1, "start_s": 0.0, "duration_s": 1.0,
             "attrs": {}}
            for pid in (1, 2)
        ] + [
            {"name": "sweep.task", "span_id": 2, "parent_id": 1,
             "pid": pid, "tid": 1, "start_s": 0.1, "duration_s": 0.5,
             "attrs": {}}
            for pid in (1, 2)
        ]
        profile = build_profile(spans)
        assert profile["names"]["sweep.task"]["count"] == 2
        node = {n["path"]: n for n in profile["tree"]}
        assert node["dse.shard;sweep.task"]["count"] == 2

    def test_bad_parent_ref_treated_as_root(self):
        spans = [{"name": "dse.shard", "span_id": 1, "parent_id": None,
                  "parent_ref": "not-a-ref:x", "pid": 2, "tid": 1,
                  "start_s": 0.0, "duration_s": 1.0, "attrs": {}}]
        profile = build_profile(spans)
        assert profile["wall_s"] == 1.0


# --------------------------------------------------------------------------- #
# End to end: traced dispatch, live phase, CLI merge
# --------------------------------------------------------------------------- #
def _tiny_space():
    return DesignSpace.from_dict({
        "apps": ["QFT"], "qubits": [6], "topologies": ["L3"],
        "capacities": [6, 8], "gates": ["FM"], "reorders": ["GS"],
    })


class TestTracedDispatch:
    def test_worker_joins_env_trace_and_flushes_shard(self, tmp_path,
                                                      monkeypatch):
        dispatcher = Dispatcher(_tiny_space(), tmp_path, workers=1, shards=1)
        dispatcher.prepare()
        monkeypatch.setenv(ENV_TRACE_ID, "root-env")
        monkeypatch.setenv(ENV_TRACE_PARENT, "1:1")
        run_worker(tmp_path, owner="w0")
        disable_tracing()  # run_worker armed this process's tracer
        records, skips = _read_spans(tmp_path)
        assert skips == {}
        assert {r["trace_id"] for r in records} == {"root-env"}
        assert {r["owner"] for r in records} == {"w0"}
        roots = [r for r in records if r["parent_id"] is None]
        assert roots and all(r["parent_ref"] == "1:1" for r in roots)
        assert "dse.work" in {r["name"] for r in records}

    def test_dispatch_merges_fleet_trace(self, tmp_path):
        tracer = enable_tracing()
        summary = Dispatcher(_tiny_space(), tmp_path, workers=2,
                             shards=2).run(timeout_s=300)
        disable_tracing()
        assert summary["complete"]
        info = summary["trace"]
        assert info["spans"] == len(tracer.foreign) > 0
        assert info["trace_ids"] == [tracer.trace_id]
        # The spans arrived from worker subprocesses, not this process.
        assert os.getpid() not in {r["pid"] for r in tracer.foreign}
        payload = chrome_trace(tracer)
        validate_chrome_trace(payload)
        assert any(e["ph"] == "M" for e in payload["traceEvents"])
        profile = build_profile(tracer.records())
        path_names = [s["name"] for s in profile["critical_path"]]
        assert path_names[0] == "dse.dispatch"
        assert "dse.work" in path_names

    def test_untraced_dispatch_writes_no_shards(self, tmp_path):
        summary = Dispatcher(_tiny_space(), tmp_path, workers=1,
                             shards=1).run(timeout_s=300)
        assert summary["complete"]
        assert "trace" not in summary
        assert _read_spans(tmp_path) == ([], {})
        assert {"worker_start", "claim", "done", "worker_exit"} <= \
            {event["event"] for event in read_telemetry(tmp_path)}
        assert not (tmp_path / "traces").exists()

    def test_trace_merge_cli(self, tmp_path, capsys):
        _write_stream(tmp_path / "store", "w0.jsonl", FLEET_RECORDS)
        out = tmp_path / "merged.json"
        code = main(["trace", "merge", "--store", str(tmp_path / "store"),
                     "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "4 spans from 2 process(es)" in text
        validate_chrome_trace(json.loads(out.read_text()))

    def test_trace_merge_cli_empty_store(self, tmp_path, capsys):
        code = main(["trace", "merge", "--store", str(tmp_path),
                     "--output", str(tmp_path / "out.json")])
        assert code == 1
        assert "cannot merge" in capsys.readouterr().err

    def test_trace_merge_refuses_an_old_traces_directory(self, tmp_path,
                                                         capsys):
        # Older versions wrote spans to <store>/traces/<owner>.jsonl; this
        # one reads only the worker streams, so it refuses such a store by
        # name rather than merge the streams and drop the old spans.
        store = tmp_path / "store"
        _write_stream(store, "w0.jsonl", FLEET_RECORDS)
        (store / "traces").mkdir()
        (store / "traces" / "w0.jsonl").write_text(
            json.dumps(FLEET_RECORDS[0]) + "\n")
        with pytest.raises(ValueError, match="traces.*older version"):
            write_merged_trace(store, tmp_path / "out.json")
        code = main(["trace", "merge", "--store", str(store),
                     "--output", str(tmp_path / "out.json")])
        assert code == 1
        assert "older version" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def _run_worker(self, store, *, traced, monkeypatch):
        Dispatcher(_tiny_space(), store, workers=1, shards=2).prepare()
        if traced:
            monkeypatch.setenv(ENV_TRACE_ID, "root-env")
        else:
            monkeypatch.delenv(ENV_TRACE_ID, raising=False)
        run_worker(store, owner="w0")
        disable_tracing()

    def test_traced_worker_writes_one_stream_per_owner(self, tmp_path,
                                                       monkeypatch):
        self._run_worker(tmp_path, traced=True, monkeypatch=monkeypatch)
        assert [path.name for path in (tmp_path / "telemetry").iterdir()] \
            == ["w0.jsonl"]
        assert not (tmp_path / "traces").exists()
        assert _read_spans(tmp_path)[0]  # the spans are in that one file

    def test_traced_stream_counts_events_like_an_untraced_run(
            self, tmp_path, monkeypatch):
        # Read every line of telemetry/*.jsonl and count it by ``event``,
        # as perfbench's layer collector does: span records add a "span"
        # count and leave every lease-event count as an untraced run's.
        def counts(store):
            kinds = Counter()
            for path in sorted((store / "telemetry").glob("*.jsonl")):
                for line in path.read_text().splitlines():
                    if line.strip():
                        kinds[json.loads(line).get("event")] += 1
            return kinds

        self._run_worker(tmp_path / "traced", traced=True,
                         monkeypatch=monkeypatch)
        self._run_worker(tmp_path / "untraced", traced=False,
                         monkeypatch=monkeypatch)
        traced, untraced = counts(tmp_path / "traced"), \
            counts(tmp_path / "untraced")
        assert traced.pop(SPAN_EVENT) > 0 and SPAN_EVENT not in untraced
        assert traced == untraced
        assert {kind: untraced[kind] for kind in
                ("claim", "renew", "done", "worker_start", "worker_exit")} \
            == {"claim": 2, "renew": 2, "done": 2, "worker_start": 1,
                "worker_exit": 1}


class TestStreamFixture:
    """Fed the same records, the one stream reads to the parent's bytes.

    ``tests/data/stream_fixture.json`` holds fixed lease events and span
    records, and what the layout before the one stream made of them:
    events in ``telemetry/<owner>.jsonl``, spans in ``traces/<owner>.jsonl``.
    It was produced once by ``tests/data/regen_stream_fixture.py`` run
    against a copy of that commit (``git archive 5c3a9a1 | tar -x -C
    <parent>``, then ``PYTHONPATH=<parent>/src python
    tests/data/regen_stream_fixture.py``).  Here the same records go
    through :class:`WorkerTelemetry` into one stream per worker, and the
    ``repro trace merge`` bundle, the worker rows of a :class:`FleetView`
    tick (``telemetry_summary``), ``fold_timeline`` (less the ``compacted``
    key, always empty there) and the view's ``dse top --once`` frame must
    equal the parent's byte for byte.
    """

    class FixedClock:
        def __init__(self, t):
            self.t = t

        def now(self):
            return self.t

    def test_same_records_merge_and_fold_to_the_parents_bytes(
            self, tmp_path, monkeypatch):
        fixture = json.loads((Path(__file__).parent / "data"
                              / "stream_fixture.json").read_text())
        parent = fixture["parent"]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(socket, "gethostname", lambda: "fixture-host")
        clock = self.FixedClock(0.0)
        streams = {}
        for record in fixture["events"]:
            clock.t = record["t"]
            stream = streams.setdefault(record["owner"], WorkerTelemetry(
                "store", record["owner"], clock=clock))
            stream.emit(record["event"], **{
                key: value for key, value in record.items()
                if key not in ("t", "owner", "event")})
        for owner, records in fixture["spans"].items():
            tracer = enable_tracing(trace_id="fixture-trace")
            tracer.epoch_s = 0.0  # so epoch_start_s is written as given
            tracer.adopt(dict({key: value for key, value in record.items()
                               if key != "epoch_start_s"},
                              start_s=record["epoch_start_s"])
                         for record in records)
            streams[owner].flush_spans(tracer)
        disable_tracing()
        for stream in streams.values():
            stream.close()
        assert sorted(path.name for path in Path("store").iterdir()) == \
            ["telemetry"]
        assert sorted(path.name for path in
                      Path("store", "telemetry").iterdir()) == \
            ["w0.jsonl", "w1.jsonl", "w2.jsonl"]

        assert main(["trace", "merge", "--store", "store",
                     "--output", "merged.json"]) == 0
        assert Path("merged.json").read_text() == parent["trace"]
        assert Path("merged.spans.jsonl").read_text() == \
            parent["spans_jsonl"]
        assert Path("merged.manifest.json").read_text() == parent["manifest"]

        now = fixture["now"]
        assert json.dumps(telemetry_summary("store", now=now),
                          sort_keys=True) == \
            json.dumps(parent["telemetry_summary"], sort_keys=True)
        expected = dict(parent["fold_timeline"])
        assert expected.pop("compacted") == {}
        assert json.dumps(fold_timeline(read_telemetry("store"),
                                        until_t=now), sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        clock.t = now
        assert render_top(top_snapshot(FleetView("store", clock=clock))) == \
            parent["top_frame"]


class TestLivePhase:
    def test_phase_in_telemetry_summary(self, tmp_path):
        from repro.dse.dispatch import WorkerTelemetry

        telemetry = WorkerTelemetry(tmp_path, "w0")
        telemetry.emit("worker_start", pid=1)
        telemetry.emit("renew", work="shard-0", phase="dse.shard")
        row = telemetry_summary(tmp_path)["w0"]
        assert row["phase"] == "dse.shard"
        telemetry.emit("done", work="shard-0")
        telemetry.close()
        row = telemetry_summary(tmp_path)["w0"]
        assert row["phase"] is None  # the work unit's span closed with it

    def test_render_top_shows_phase(self):
        snapshot = {
            "store": "s", "progress": {},
            "workers": {"w0": {"alive": True, "last_seen_age_s": 1.0,
                               "done": 1, "lost": 0, "claims": 2,
                               "phase": "dse.shard"}},
            "timeline": None, "stragglers": {}, "ttl_s": 30.0,
        }
        frame = render_top(snapshot)
        assert "in dse.shard" in frame
