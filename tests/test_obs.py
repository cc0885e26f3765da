"""Tests for the observability layer (repro.obs) and its integrations.

Covers the ISSUE's hard guarantees: the disabled tracer is a shared no-op
(instrumented hot paths stay free when tracing is off), span traces
round-trip through the Chrome trace-event / JSONL / manifest exports,
metric deltas merge deterministically for any ``--jobs`` value, and a
``--trace``'d ``dse run`` leaves the canonical store export byte-identical
to the committed golden file.  Also here: the fake-clock tests for the
lease-clock fix (one injectable time source for lease stamps *and* age
checks) and the dispatched fleet's worker-telemetry files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse import DesignSpace, DSERunner, ExperimentStore
from repro.dse.dispatch import (
    FleetView,
    LeaseClock,
    WorkerTelemetry,
    WorkLedger,
)
from repro.dse.store import StoreCorruptionWarning
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryReader,
    chrome_trace,
    config_fingerprint,
    current_tracer,
    disable_tracing,
    enable_tracing,
    registry,
    reset_registry,
    span,
    spans_jsonl,
    validate_chrome_trace,
    write_trace,
)
from repro.toolflow import ProgramCache, SweepTask
from repro.toolflow.parallel import execute_task, run_tasks

#: The golden space as ``dse run`` flags -- must match
#: ``tests/data/regen_store_export.py`` (8 points, QFT+BV at 8 qubits).
GOLDEN_RUN_FLAGS = [
    "--apps", "QFT,BV", "--qubits", "8", "--topologies", "L3",
    "--capacities", "6,8", "--gates", "AM1,FM", "--reorders", "GS",
]

GOLDEN_EXPORT = Path(__file__).parent / "data" / "golden_store_export.json"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Each test starts with tracing off and a fresh process-wide registry."""

    disable_tracing()
    reset_registry()
    yield
    disable_tracing()
    reset_registry()


# --------------------------------------------------------------------------- #
class TestDisabledTracing:
    def test_span_is_one_shared_noop_object(self):
        assert current_tracer() is None
        first = span("compile", circuit="qft8")
        second = span("sim.simulate")
        # The disabled fast path allocates nothing: every call site gets the
        # same do-nothing singleton back.
        assert first is second
        with first as entered:
            assert entered is first
        assert first.set(gates=3) is first

    def test_disabled_blocks_record_nothing(self):
        with span("compile"):
            with span("compile.route"):
                pass
        tracer = enable_tracing()
        assert tracer.spans == []
        disable_tracing()

    def test_enable_disable_lifecycle(self):
        tracer = enable_tracing()
        assert current_tracer() is tracer
        assert disable_tracing() is tracer
        assert current_tracer() is None
        assert disable_tracing() is None  # idempotent when already off


# --------------------------------------------------------------------------- #
class TestSpanRoundTrip:
    def _traced(self):
        """A small two-level trace with an annotated inner span."""

        tracer = enable_tracing()
        with span("compile", circuit="qft8") as outer:
            with span("compile.route", policy="greedy") as inner:
                inner.set(shuttles=7)
        disable_tracing()
        return tracer, outer, inner

    def test_nesting_follows_the_call_stack(self):
        tracer, outer, inner = self._traced()
        # Spans record on exit, so the inner span lands first.
        assert [item.name for item in tracer.spans] == ["compile.route",
                                                        "compile"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attrs == {"policy": "greedy", "shuttles": 7}
        assert 0.0 <= inner.duration_s <= outer.duration_s

    def test_escaping_exception_is_recorded(self):
        tracer = enable_tracing()
        with pytest.raises(ValueError):
            with span("sim.simulate"):
                raise ValueError("boom")
        disable_tracing()
        assert tracer.spans[0].attrs["error"] == "ValueError: boom"

    def test_chrome_trace_validates_and_survives_json(self):
        tracer, outer, inner = self._traced()
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == len(tracer.spans)
        # The exported file must still validate after a JSON round-trip --
        # what the CI obs-smoke job checks on the written artefact.
        reparsed = json.loads(json.dumps(payload, default=str))
        assert validate_chrome_trace(reparsed) == len(tracer.spans)
        by_name = {event["name"]: event for event in payload["traceEvents"]}
        assert by_name["compile"]["cat"] == "compile"
        assert by_name["compile.route"]["cat"] == "compile"
        assert by_name["compile.route"]["args"]["parent_id"] == outer.span_id
        assert by_name["compile.route"]["args"]["shuttles"] == 7
        assert payload["otherData"]["trace_schema"] == TRACE_SCHEMA_VERSION

    def test_spans_jsonl_round_trips_the_span_schema(self):
        tracer, _, _ = self._traced()
        lines = spans_jsonl(tracer).splitlines()
        assert [json.loads(line) for line in lines] == \
            [item.to_dict(tracer.origin_s) for item in tracer.spans]

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})
        event = {"name": "x", "cat": "x", "ph": "X", "ts": 0.0,
                 "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [dict(event, dur=-1.0)]})
        with pytest.raises(ValueError, match="pid"):
            validate_chrome_trace({"traceEvents": [
                dict(event, dur=1.0, pid="not-an-int")]})

    def test_write_trace_bundle(self, tmp_path):
        tracer, _, _ = self._traced()
        config = {"command": "dse run", "qubits": 8}
        paths = write_trace(tmp_path / "out.json", tracer, config=config)
        assert paths["trace"] == tmp_path / "out.json"
        assert paths["spans"] == tmp_path / "out.spans.jsonl"
        assert paths["manifest"] == tmp_path / "out.manifest.json"
        assert validate_chrome_trace(
            json.loads(paths["trace"].read_text())) == len(tracer.spans)
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["trace_schema"] == TRACE_SCHEMA_VERSION
        assert manifest["num_spans"] == len(tracer.spans)
        assert manifest["config_fingerprint"] == config_fingerprint(config)
        assert manifest["phase_timings"]["compile"]["count"] == 1
        assert manifest["phase_timings"]["compile.route"]["count"] == 1

    def test_config_fingerprint_is_canonical(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_pipeline_emits_the_documented_spans(self, qft8, small_config):
        tracer = enable_tracing()
        try:
            execute_task(SweepTask(qft8, small_config, gates=("AM1", "FM")),
                         ProgramCache())
        finally:
            disable_tracing()
        names = {item.name for item in tracer.spans}
        assert {"sweep.task", "compile", "compile.lower", "compile.map",
                "compile.route", "compile.validate", "sim.batch.plan",
                "sim.batch.variants"} <= names
        # Compile stages parent under the compile span, which parents under
        # the sweep task -- the nesting a Perfetto view shows.
        by_id = {item.span_id: item for item in tracer.spans}
        compile_span = next(item for item in tracer.spans
                            if item.name == "compile")
        route = next(item for item in tracer.spans
                     if item.name == "compile.route")
        assert route.parent_id == compile_span.span_id
        assert by_id[compile_span.parent_id].name == "sweep.task"


# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits").inc()
        reg.counter("cache.hits").inc(4)
        reg.gauge("queue.depth").set(3.0)
        lat = reg.histogram("dse.propose.latency_s")
        for value in (0.5, 0.1, 0.9):
            lat.observe(value)
        assert reg.counters() == {"cache.hits": 5}
        assert lat.count == 3 and lat.min == 0.1 and lat.max == 0.9
        assert lat.mean == pytest.approx(0.5)
        snap = reg.snapshot()
        assert snap["gauges"] == {"queue.depth": 3.0}
        assert snap["histograms"]["dse.propose.latency_s"]["count"] == 3

    def test_delta_reports_only_movement(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(7)
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        reg.counter("a").inc(3)
        reg.counter("b")  # registered but never moved
        delta = reg.delta(before)
        assert delta["counters"] == {"a": 3}
        assert delta["histograms"] == {}  # no new observations

    def test_worker_delta_merges_exactly(self):
        """The pool protocol: snapshot -> work -> delta -> parent merge."""

        parent = MetricsRegistry()
        parent.counter("cache.hits").inc(2)
        worker = MetricsRegistry()
        worker.counter("cache.hits").inc(7)  # pre-task worker state
        before = worker.snapshot()
        worker.counter("cache.hits").inc(3)
        worker.histogram("wall_s").observe(0.25)
        worker.gauge("depth").set(4.0)
        parent.merge(worker.delta(before))
        assert parent.counters() == {"cache.hits": 5}
        assert parent.gauge("depth").value == 4.0
        assert parent.histogram("wall_s").count == 1

    def test_histogram_min_max_fold_across_workers(self):
        parent = MetricsRegistry()
        for low, high in ((0.2, 0.4), (0.1, 0.3)):
            worker = MetricsRegistry()
            before = worker.snapshot()
            worker.histogram("wall_s").observe(low)
            worker.histogram("wall_s").observe(high)
            parent.merge(worker.delta(before))
        folded = parent.histogram("wall_s")
        assert folded.count == 4
        assert folded.min == 0.1 and folded.max == 0.4
        assert folded.total == pytest.approx(1.0)

    def test_counter_dict_drives_prefixed_counters(self):
        reg = MetricsRegistry()
        view = reg.dict_view("cache.batch.")
        view["plans"] = view.get("plans", 0) + 1
        view["variants"] = 4
        assert reg.counters() == {"cache.batch.plans": 1,
                                  "cache.batch.variants": 4}
        assert dict(view) == {"plans": 1, "variants": 4}
        assert len(view) == 2
        with pytest.raises(KeyError):
            view["missing"]
        del view["variants"]
        assert reg.counters() == {"cache.batch.plans": 1}

    def test_reset_registry_replaces_the_global(self):
        registry().counter("x").inc()
        fresh = reset_registry()
        assert fresh is registry()
        assert registry().counters() == {}

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_sweep_counters_identical_for_any_jobs(self, small_suite,
                                                   small_config, jobs):
        """Delta-merge determinism: jobs=N reports the same counters as
        jobs=1 (integer deltas merged in task order cannot drift)."""

        tasks = [SweepTask(circuit, small_config, gates=("AM1", "FM"))
                 for circuit in small_suite.values()]
        serial = ProgramCache()
        run_tasks(tasks, jobs=1, cache=serial)
        pooled = ProgramCache()
        run_tasks(tasks, jobs=jobs, cache=pooled)

        def moved(cache):
            # Zero-valued series may be registered on one path and not the
            # other (merges only fold nonzero deltas); the reported counts
            # are what must agree.
            return {name: value
                    for name, value in cache.metrics.counters().items()
                    if value}

        assert moved(pooled) == moved(serial)
        assert serial.metrics.counters()["cache.misses"] == len(tasks)
        assert serial.stats() == {**pooled.stats(), "entries": len(tasks)}


# --------------------------------------------------------------------------- #
class _FakeTime:
    """A controllable wall clock for LeaseClock(now_fn=...)."""

    def __init__(self, start: float = 1_000_000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


class TestLeaseClock:
    def test_touch_and_age_use_one_time_source(self, tmp_path):
        fake = _FakeTime()
        clock = LeaseClock(now_fn=fake)
        target = tmp_path / "lease"
        target.write_text("x")  # real-clock mtime, far from fake.t
        clock.touch(target)
        assert clock.age(target) == pytest.approx(0.0)
        fake.t += 5.0
        assert clock.age(target) == pytest.approx(5.0)

    def test_age_never_negative(self, tmp_path):
        fake = _FakeTime()
        clock = LeaseClock(now_fn=fake)
        target = tmp_path / "lease"
        target.write_text("x")
        clock.touch(target)
        fake.t -= 10.0  # clock skew: the stamp is "in the future"
        assert clock.age(target) == 0.0

    def test_fresh_lease_holds_under_fake_clock(self, tmp_path):
        fake = _FakeTime()
        leases = WorkLedger(tmp_path / "leases", ttl_s=10.0,
                            clock=LeaseClock(now_fn=fake))
        assert leases.claim("shard-1", "worker-a") is True
        fake.t += 9.9  # one tick from expiry: still held
        assert leases.claim("shard-1", "worker-b") is False
        status, owner, age = leases.status_of("shard-1")
        assert (status, owner) == ("active", "worker-a")
        assert age == pytest.approx(9.9)

    def test_renewal_resets_the_fake_clock_expiry(self, tmp_path):
        fake = _FakeTime()
        leases = WorkLedger(tmp_path / "leases", ttl_s=10.0,
                            clock=LeaseClock(now_fn=fake))
        assert leases.claim("shard-1", "worker-a")
        fake.t += 9.0
        assert leases.renew("shard-1", "worker-a") is True
        fake.t += 9.0  # 18s after claim, 9s after renewal: still fresh
        status, _, age = leases.status_of("shard-1")
        assert status == "active"
        assert age == pytest.approx(9.0)

    def test_expiry_and_takeover_follow_the_fake_clock(self, tmp_path):
        fake = _FakeTime()
        leases = WorkLedger(tmp_path / "leases", ttl_s=10.0,
                            clock=LeaseClock(now_fn=fake))
        assert leases.claim("shard-1", "dead-worker")
        fake.t += 10.5
        assert leases.status_of("shard-1")[0] == "expired"
        assert leases.claim("shard-1", "survivor") is True
        assert leases.owner_of("shard-1") == "survivor"
        # The takeover restamped the lease at the fake "now": fresh again.
        assert leases.status_of("shard-1")[0] == "active"
        assert leases.renew("shard-1", "dead-worker") is False

    def test_ledgers_thread_the_clock_through(self, tmp_path):
        fake = _FakeTime()
        clock = LeaseClock(now_fn=fake)
        ledger = WorkLedger(tmp_path / "leases", ttl_s=5.0, clock=clock)
        assert ledger.clock is clock
        assert ledger.claim("shard-1of2", "worker-a")
        fake.t += 6.0
        assert ledger.status_of("shard-1of2")[0] == "expired"
        store_ledger = WorkLedger.for_store(tmp_path / "store", clock=clock)
        assert store_ledger.clock is clock

    def test_default_clock_is_wall_time(self, tmp_path):
        leases = WorkLedger(tmp_path / "leases", ttl_s=3600.0)
        assert leases.claim("shard-1", "worker-a")
        status, _, age = leases.status_of("shard-1")
        assert status == "active"
        assert 0.0 <= age < 60.0


# --------------------------------------------------------------------------- #
class TestWorkerTelemetry:
    def _emit_lifecycle(self, store_dir, owner, fake, *, exit_marker=True):
        telemetry = WorkerTelemetry(store_dir, owner,
                                    clock=LeaseClock(now_fn=fake))
        telemetry.emit("worker_start", mode="shards", pid=123)
        fake.t += 1.0
        telemetry.emit("claim", work="shard-1of2")
        fake.t += 1.0
        telemetry.emit("renew", work="shard-1of2")
        fake.t += 1.0
        telemetry.emit("done", work="shard-1of2", points=4, replayed=1,
                       wall_s=2.5)
        if exit_marker:
            fake.t += 1.0
            telemetry.emit("worker_exit", completed=1, lost=0)
        telemetry.close()
        return telemetry

    def test_events_land_in_the_telemetry_subdir(self, tmp_path):
        fake = _FakeTime()
        telemetry = self._emit_lifecycle(tmp_path, "host:1234", fake)
        assert telemetry.path.parent == tmp_path / "telemetry"
        # Owner names are sanitised into file names, and telemetry must not
        # pollute the store's own *.jsonl row glob (it lives one level down).
        assert ":" not in telemetry.path.name
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_read_telemetry_orders_and_tolerates_garbage(self, tmp_path):
        fake = _FakeTime()
        telemetry = self._emit_lifecycle(tmp_path, "worker-a", fake)
        with telemetry.path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # a live writer's in-flight append
        reader = TelemetryReader(tmp_path)
        reader.poll()
        events = reader.events
        assert [event["event"] for event in events] == \
            ["worker_start", "claim", "renew", "done", "worker_exit"]
        assert [event["t"] for event in events] == \
            sorted(event["t"] for event in events)

    def test_summary_folds_one_row_per_worker(self, tmp_path):
        fake = _FakeTime()
        self._emit_lifecycle(tmp_path, "worker-a", fake)
        self._emit_lifecycle(tmp_path, "worker-b", fake, exit_marker=False)
        fake.t += 10.0
        view = FleetView(tmp_path, clock=LeaseClock(now_fn=fake))
        workers = view.tick()["workers"]
        assert set(workers) == {"worker-a", "worker-b"}
        row = workers["worker-a"]
        assert (row["claims"], row["renewals"], row["done"],
                row["lost"]) == (1, 1, 1, 0)
        assert (row["points"], row["replayed"]) == (4, 1)
        assert row["wall_s"] == pytest.approx(2.5)
        assert row["alive"] is False
        assert row["last_event"] == "worker_exit"
        # worker-b never wrote its exit marker: it reads as alive with a
        # growing last-seen age (a crashed worker's signature).
        assert workers["worker-b"]["alive"] is True
        assert workers["worker-b"]["last_seen_age_s"] == pytest.approx(10.0)

    def test_summary_of_an_undispatched_store_is_empty(self, tmp_path):
        assert FleetView(tmp_path).tick()["workers"] == {}

    def test_status_workers_cli_prints_the_fleet(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(DesignSpace(apps=("BV",), qubits=(8,),
                                  topologies=("L3",), capacities=(6,),
                                  gates=("FM",)), store=store).evaluate_space()
        fake = _FakeTime()
        self._emit_lifecycle(store_dir, "worker-a", fake)
        assert main(["dse", "status", "--store", str(store_dir),
                     "--workers"]) == 0
        out = capsys.readouterr().out
        assert "Workers (1):" in out
        assert "worker-a" in out
        assert "1 done / 0 lost of 1 claims" in out
        assert "4 evaluated + 1 replayed" in out


# --------------------------------------------------------------------------- #
class TestStoreSkipAccounting:
    def _store_with_corruption(self, tmp_path):
        store_dir = tmp_path / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(DesignSpace(apps=("BV",), qubits=(8,),
                                  topologies=("L3",), capacities=(6,),
                                  gates=("FM",)), store=store).evaluate_space()
        # Two corrupt lines: the warning for a file's *last* skipped line is
        # deferred (it may be a live writer's tail), so only runs with a
        # line after the corruption warn immediately.
        with (store_dir / "results.jsonl").open("a") as handle:
            handle.write("this is not json\n")
            handle.write("neither is this\n")
        return store_dir

    def test_skips_count_per_file_and_in_the_registry(self, tmp_path):
        store_dir = self._store_with_corruption(tmp_path)
        reset_registry()
        with pytest.warns(StoreCorruptionWarning):
            store = ExperimentStore(store_dir)
        assert store.skipped_lines == 2
        assert store.skip_counts() == {"results.jsonl": 2}
        # Mirrored into the process-wide registry, so the --trace manifest
        # surfaces corruption without catching warnings.
        assert registry().counters()["store.lines_skipped"] == 2
        store.close()

    def test_status_cli_names_the_corrupt_file(self, tmp_path, capsys):
        store_dir = self._store_with_corruption(tmp_path)
        with pytest.warns(StoreCorruptionWarning):
            assert main(["dse", "status", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "skipped 2 truncated/corrupt lines" in out
        assert "results.jsonl" in out.split("skipped 2", 1)[1]


# --------------------------------------------------------------------------- #
class TestTracedRunByteIdentity:
    def test_traced_dse_run_export_matches_golden(self, tmp_path):
        """--trace must not perturb experiment data: the canonical export of
        a traced run is byte-identical to the committed golden export."""

        store_dir = tmp_path / "store"
        trace_path = tmp_path / "trace.json"
        assert main(["dse", "run", *GOLDEN_RUN_FLAGS,
                     "--store", str(store_dir),
                     "--trace", str(trace_path)]) == 0
        assert current_tracer() is None  # the CLI uninstalled its tracer

        payload = json.loads(trace_path.read_text())
        events = validate_chrome_trace(payload)
        assert events > 0
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"dse.evaluate", "compile", "sim.batch.variants"} <= names

        manifest = json.loads(
            (tmp_path / "trace.manifest.json").read_text())
        assert manifest["num_spans"] == events
        assert manifest["metrics"]["counters"]["dse.points.evaluated"] == 8
        assert (tmp_path / "trace.spans.jsonl").exists()

        output = tmp_path / "export.json"
        assert main(["dse", "export", "--store", str(store_dir),
                     "--output", str(output)]) == 0
        assert output.read_bytes() == GOLDEN_EXPORT.read_bytes()
