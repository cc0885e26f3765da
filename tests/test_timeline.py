"""Tests for the fleet timeline and the worker-stream reader (repro.obs.timeline).

The ISSUE's determinism bar: the same telemetry event set must fold into
byte-identical series -- and render a byte-identical ``dse top`` frame --
no matter how the events were split across worker files or what order the
files are read in.  Everything here drives the injectable
:class:`LeaseClock` with a fake clock; no test sleeps or spawns a fleet.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse import DesignSpace
from repro.dse.dispatch import (
    DEFAULT_TTL_S,
    FleetView,
    LeaseClock,
    WorkerTelemetry,
    write_manifest,
)
from repro.dse.store import StoreCorruptionWarning
from repro.obs.timeline import (
    DEFAULT_BUCKET_S,
    TelemetryReader,
    detect_stragglers,
    fold_timeline,
    render_top,
    rolling_rates,
    top_snapshot,
)
from repro.visualize.ascii_chart import ascii_sparkline


class FakeClock(LeaseClock):
    """A LeaseClock the test advances by hand."""

    def __init__(self, start: float = 1000.0) -> None:
        super().__init__(now_fn=lambda: self.t)
        self.t = start

    def advance(self, seconds: float) -> None:
        self.t += seconds


def read_telemetry(store_dir):
    """Every lease event of a store: one poll of a fresh reader."""

    reader = TelemetryReader(store_dir)
    reader.poll()
    return reader.events


def synthetic_fleet(tmp_path, *, workers=3, rounds=4, clock=None):
    """Emit a deterministic fleet history; returns the clock used."""

    clock = clock or FakeClock()
    logs = [WorkerTelemetry(tmp_path, f"w{i}", clock=clock)
            for i in range(workers)]
    for log in logs:
        log.emit("worker_start", mode="shards", shards=workers * rounds,
                 jobs=1, pid=1)
    for round_index in range(rounds):
        for worker_index, log in enumerate(logs):
            clock.advance(1.0)
            log.emit("claim", work=f"s{round_index}-{worker_index}")
            clock.advance(2.0)
            log.emit("done", work=f"s{round_index}-{worker_index}",
                     points=4 + worker_index, replayed=1, wall_s=2.0,
                     counters={"cache.hits": 3, "cache.misses": 1})
    for log in logs:
        log.close()
    return clock


# --------------------------------------------------------------------------- #
class TestFoldTimeline:
    def test_series_shape_and_totals(self, tmp_path):
        clock = synthetic_fleet(tmp_path)
        events = read_telemetry(tmp_path)
        timeline = fold_timeline(events, bucket_s=5.0)
        assert timeline["bucket_s"] == 5.0
        assert sorted(timeline["workers"]) == ["w0", "w1", "w2"]
        fleet_points = sum(b["points"] for b in timeline["fleet"])
        per_worker = {owner: sum(b["points"] for b in series)
                      for owner, series in timeline["workers"].items()}
        # 4 rounds x (4, 5, 6) points per worker.
        assert per_worker == {"w0": 16, "w1": 20, "w2": 24}
        assert fleet_points == 60
        hits = sum(b["cache_hits"] for b in timeline["fleet"])
        misses = sum(b["cache_misses"] for b in timeline["fleet"])
        assert (hits, misses) == (36, 12)
        assert sum(b["claims"] for b in timeline["fleet"]) == 12
        assert sorted(timeline) == ["bucket_s", "fleet", "num_buckets",
                                    "origin_t", "workers"]

    def test_until_t_extends_with_empty_buckets(self, tmp_path):
        clock = synthetic_fleet(tmp_path)
        events = read_telemetry(tmp_path)
        short = fold_timeline(events, bucket_s=5.0)
        extended = fold_timeline(events, bucket_s=5.0,
                                 until_t=clock.now() + 40.0)
        assert extended["num_buckets"] > short["num_buckets"]
        tail = extended["fleet"][short["num_buckets"]:]
        assert all(b["points"] == 0 for b in tail)
        # The anchored prefix is identical: origin is content-derived.
        assert extended["fleet"][:short["num_buckets"]] == short["fleet"]

    def test_empty_events(self):
        timeline = fold_timeline([])
        assert timeline["num_buckets"] == 0
        assert timeline["fleet"] == []
        assert rolling_rates(timeline) == {}

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            fold_timeline([], bucket_s=0.0)


# --------------------------------------------------------------------------- #
class TestTimelineDeterminism:
    """Same event set => byte-identical series, any split, any read order."""

    def test_fold_is_invariant_to_event_order(self, tmp_path):
        synthetic_fleet(tmp_path)
        events = read_telemetry(tmp_path)
        baseline = json.dumps(fold_timeline(events, bucket_s=5.0),
                              sort_keys=True)
        for rotation in (1, 7, len(events) - 1):
            shuffled = events[rotation:] + list(reversed(events[:rotation]))
            assert json.dumps(fold_timeline(shuffled, bucket_s=5.0),
                              sort_keys=True) == baseline

    def test_fold_is_invariant_to_file_split(self, tmp_path):
        # The same history emitted as 1 worker file vs split across 4:
        # identical event *content* must fold identically, so we emit one
        # owner's events through differently-named telemetry writers.
        clock_a = FakeClock()
        a_dir = tmp_path / "one"
        log = WorkerTelemetry(a_dir, "w0", clock=clock_a)
        for i in range(12):
            clock_a.advance(1.0)
            log.emit("done", work=f"s{i}", points=2, replayed=0, wall_s=1.0)
        log.close()

        clock_b = FakeClock()
        b_dir = tmp_path / "many"
        logs = [WorkerTelemetry(b_dir, "w0", clock=clock_b) for _ in range(4)]
        # Same owner, same events, but interleaved across four files (the
        # single-writer rule is per real worker; the test just needs the
        # directory union to carry identical records).
        for i in range(12):
            clock_b.advance(1.0)
            logs[i % 4].emit("done", work=f"s{i}", points=2, replayed=0,
                             wall_s=1.0)
        for log in logs:
            log.close()
        fold_a = fold_timeline(read_telemetry(a_dir), bucket_s=5.0)
        fold_b = fold_timeline(read_telemetry(b_dir), bucket_s=5.0)
        assert json.dumps(fold_a, sort_keys=True) == \
            json.dumps(fold_b, sort_keys=True)

    def test_top_frame_is_byte_identical(self, tmp_path):
        clock = synthetic_fleet(tmp_path)
        events = read_telemetry(tmp_path)
        workers = FleetView(tmp_path, clock=clock).tick()["workers"]
        frames = []
        for rotation in (0, 5):
            shuffled = events[rotation:] + events[:rotation]
            timeline = fold_timeline(shuffled, bucket_s=5.0,
                                     until_t=clock.now())
            snapshot = {"store": "fleet", "workers": workers,
                        "timeline": timeline,
                        "stragglers": detect_stragglers(
                            workers, ttl_s=60.0, timeline=timeline)}
            frames.append(render_top(snapshot))
        assert frames[0] == frames[1]
        assert "workers (3):" in frames[0]


# --------------------------------------------------------------------------- #
class TestTelemetryReader:
    def test_incremental_poll_matches_full_read(self, tmp_path):
        clock = FakeClock()
        reader = TelemetryReader(tmp_path)
        assert reader.poll() == 0
        log = WorkerTelemetry(tmp_path, "w0", clock=clock)
        log.emit("worker_start", pid=1)
        assert reader.poll() == 1
        for i in range(5):
            clock.advance(1.0)
            log.emit("done", work=f"s{i}", points=1, replayed=0, wall_s=0.5)
        log.close()
        assert reader.poll() == 5
        assert reader.poll() == 0  # nothing new: stat-skip path
        expected = read_telemetry(tmp_path)
        assert json.dumps(reader.events, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_torn_tail_line_is_deferred(self, tmp_path):
        clock = FakeClock()
        log = WorkerTelemetry(tmp_path, "w0", clock=clock)
        log.emit("worker_start", pid=1)
        log.close()
        reader = TelemetryReader(tmp_path)
        assert reader.poll() == 1
        # A live writer's partial append: no trailing newline yet.
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write('{"t": 1001.0, "owner": "w0", "event": "cl')
        assert reader.poll() == 0
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write('aim", "work": "s0"}\n')
        assert reader.poll() == 1
        assert reader.events[-1]["event"] == "claim"

    def test_old_rotation_summary_row_is_skipped_by_name(self, tmp_path):
        # Older versions rotated a worker's telemetry and folded old
        # segments into one "summary" row in <owner>.seg0.jsonl.  Nothing
        # folds such a row any more: it is skipped with a warning naming
        # it, and the live events around it still read.
        clock = FakeClock()
        with WorkerTelemetry(tmp_path, "w0", clock=clock) as log:
            log.emit("worker_start", pid=1)
            clock.advance(1.0)
            log.emit("done", work="s1", points=2, replayed=0, wall_s=1.0)
        (tmp_path / "telemetry" / "w0.seg0.jsonl").write_text(json.dumps(
            {"t": 0.0, "owner": "w0", "event": "summary", "done": 5,
             "points": 40, "folded": 12, "folded_through": 2},
            sort_keys=True) + "\n")
        with pytest.warns(StoreCorruptionWarning,
                          match=r"w0\.seg0\.jsonl:1: an event: \"summary\""):
            row = FleetView(tmp_path, clock=clock).tick()["workers"]["w0"]
        assert (row["done"], row["points"], row["last_event"]) == \
            (1, 2, "done")
        with pytest.warns(StoreCorruptionWarning, match="summary"):
            events = read_telemetry(tmp_path)
        assert [event["event"] for event in events] == ["worker_start",
                                                        "done"]


# --------------------------------------------------------------------------- #
class TestStragglerDetection:
    def _workers(self, ages, *, alive=True):
        return {f"w{i}": {"alive": alive, "last_seen_age_s": age,
                          "done": 1, "lost": 0, "claims": 1}
                for i, age in enumerate(ages)}

    def test_stalled_worker_flagged_before_lease_expiry(self):
        ttl = 60.0
        workers = self._workers([1.0, 2.0, 40.0])
        flags = detect_stragglers(workers, ttl_s=ttl)
        assert list(flags) == ["w2"]
        # 40s is past half the TTL (the flag) but short of the TTL itself
        # (the lease is still active): early warning, not post-mortem.
        assert 40.0 < ttl
        assert "stalled" in flags["w2"][0]

    def test_exited_workers_never_flagged(self):
        workers = self._workers([500.0, 600.0], alive=False)
        assert detect_stragglers(workers, ttl_s=60.0) == {}

    def test_slow_worker_flagged_by_mad(self, tmp_path):
        clock = FakeClock()
        logs = [WorkerTelemetry(tmp_path, f"w{i}", clock=clock)
                for i in range(4)]
        for round_index in range(10):
            clock.advance(5.0)
            for worker_index, log in enumerate(logs):
                points = 1 if worker_index == 3 else 20
                log.emit("done", work=f"s{round_index}", points=points,
                         replayed=0, wall_s=1.0)
        for log in logs:
            log.close()
        timeline = fold_timeline(read_telemetry(tmp_path), bucket_s=5.0,
                                 until_t=clock.now())
        workers = {f"w{i}": {"alive": True, "last_seen_age_s": 0.0}
                   for i in range(4)}
        flags = detect_stragglers(workers, ttl_s=600.0, timeline=timeline)
        assert list(flags) == ["w3"]
        assert "slow" in flags["w3"][0]

    def test_uniform_fleet_not_flagged(self, tmp_path):
        clock = synthetic_fleet(tmp_path)
        timeline = fold_timeline(read_telemetry(tmp_path), bucket_s=5.0,
                                 until_t=clock.now())
        workers = {f"w{i}": {"alive": True, "last_seen_age_s": 0.0}
                   for i in range(3)}
        # w0/w1/w2 do 4/5/6 points per round -- a real spread, but within
        # the MAD floor; nobody deserves a flag.
        assert detect_stragglers(workers, ttl_s=600.0,
                                 timeline=timeline) == {}

    def test_small_fleets_skip_the_rate_test(self):
        workers = self._workers([0.0, 0.0])
        timeline = fold_timeline([])
        assert detect_stragglers(workers, ttl_s=60.0,
                                 timeline=timeline) == {}

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            detect_stragglers({}, ttl_s=0.0)


# --------------------------------------------------------------------------- #
class TestFleetView:
    def test_snapshot_of_undispatched_store(self, tmp_path):
        clock = synthetic_fleet(tmp_path)
        view = FleetView(tmp_path, clock=clock)
        snapshot = top_snapshot(view)
        assert view.ttl_s == DEFAULT_TTL_S
        assert sorted(snapshot["workers"]) == ["w0", "w1", "w2"]
        frame = render_top(snapshot)
        assert "workers (3):" in frame

    def test_snapshot_is_fake_clock_driven(self, tmp_path):
        clock = FakeClock()
        log = WorkerTelemetry(tmp_path, "w0", clock=clock)
        log.emit("worker_start", pid=1)
        clock.advance(1.0)
        log.emit("claim", work="s0")
        log.close()
        view = FleetView(tmp_path, ttl_s=10.0, clock=clock)
        assert top_snapshot(view)["stragglers"] == {}
        clock.advance(6.0)  # past half the ttl, before the ttl
        flagged = top_snapshot(view)["stragglers"]
        assert list(flagged) == ["w0"]
        assert "stalled" in flagged["w0"][0]

    def test_manifest_written_after_the_view_opened_is_read(self, tmp_path):
        # `dse top` started before `dse dispatch` wrote the manifest: the
        # view keeps looking, and the first tick that finds it shows the
        # run's total and judges stalls against the run's lease TTL.
        view = FleetView(tmp_path, clock=FakeClock())
        assert top_snapshot(view)["progress"] == {"points_done": 0}
        space = DesignSpace(apps=("QFT", "BV"), qubits=(8,),
                            topologies=("L3",), capacities=(6, 8),
                            gates=("AM1", "FM"))
        write_manifest(tmp_path, space, shards=2, ttl_s=4.0)
        snapshot = top_snapshot(view)
        assert snapshot["progress"]["points_total"] == 8
        assert view.ttl_s == 4.0
        assert "-- 0/8 points (8 pending) | shards 0 done" in \
            render_top(dict(snapshot, store="s"))


# --------------------------------------------------------------------------- #
class TestSparkline:
    def test_levels_and_scaling(self):
        assert ascii_sparkline([]) == ""
        assert ascii_sparkline([0, 0]) == "  "
        line = ascii_sparkline([0, 1, 5, 10])
        assert len(line) == 4
        assert line[0] == " "
        assert line[-1] == "@"

    def test_pure_ascii(self):
        line = ascii_sparkline(list(range(20)))
        assert all(ord(c) < 128 for c in line)
