"""Tests for the work-ledger dispatcher (repro.dse.dispatch).

Covers the lease lifecycle the dispatcher is built on -- claim contention,
heartbeat renewal, expiry-based reclaim of a killed worker's shard -- plus
the worker loop, the dispatch manifest (and its refusal of stores whose
ledger has another layout or belongs to an earlier run, or that keep
spans in an older version's ``traces/`` directory), the ETA estimate,
the CLI surface, and the acceptance scenario: a 3-worker dispatched run of
a 48-point space with one worker SIGKILLed mid-run whose merged store
exports byte-identically to a single-process run of the same space.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse import (
    DSERunner,
    DesignSpace,
    Dispatcher,
    ExperimentStore,
    LeaseLost,
    Shard,
    WorkLedger,
    estimate_eta_s,
    read_manifest,
    run_proposer,
    run_worker,
    write_manifest,
)
from repro.dse.dispatch import WorkerTelemetry, fill_store
from repro.obs.timeline import TelemetryReader

#: A fast 4-point space evaluated entirely with 8-qubit circuits.
TINY_SPACE = dict(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                  capacities=(6,), gates=("AM1", "FM"), reorders=("GS",))

def _backdate(path: Path, by_s: float = 3600.0) -> None:
    """Rewind a lease file's mtime, simulating a worker that stopped
    heartbeating ``by_s`` seconds ago (e.g. SIGKILLed)."""

    past = time.time() - by_s
    os.utime(path, (past, past))


def _export(store_dir: Path, output: Path) -> bytes:
    assert main(["dse", "export", "--store", str(store_dir),
                 "--output", str(output)]) == 0
    return output.read_bytes()


# --------------------------------------------------------------------------- #
class TestWorkLedger:
    """The lease lifecycle over shard items ``shard-<i>of<N>``."""

    def test_claim_contention_single_winner(self, tmp_path):
        ledger = WorkLedger(tmp_path / "leases")
        assert ledger.claim("shard-1of3", "worker-a") is True
        assert ledger.claim("shard-1of3", "worker-b") is False
        assert ledger.owner_of("shard-1of3") == "worker-a"
        assert ledger.status_of("shard-1of3")[0] == "active"

    def test_heartbeat_renewal_defers_expiry(self, tmp_path):
        ledger = WorkLedger(tmp_path / "leases", ttl_s=10.0)
        assert ledger.claim("shard-1of1", "worker-a")
        _backdate(ledger.lease_path("shard-1of1"), by_s=9.5)  # one tick left
        assert ledger.renew("shard-1of1", "worker-a") is True
        status, _, age = ledger.status_of("shard-1of1")
        assert status == "active"
        assert age < 1.0  # the heartbeat reset the clock

    def test_expired_lease_is_reclaimed_by_takeover(self, tmp_path):
        ledger = WorkLedger(tmp_path / "leases", ttl_s=5.0)
        assert ledger.claim("shard-1of2", "dead-worker")
        _backdate(ledger.lease_path("shard-1of2"))
        assert ledger.status_of("shard-1of2")[0] == "expired"
        assert ledger.claim("shard-1of2", "survivor") is True
        assert ledger.owner_of("shard-1of2") == "survivor"
        # The dead worker's heartbeat now fails: it must stop working.
        assert ledger.renew("shard-1of2", "dead-worker") is False
        assert ledger.renew("shard-1of2", "survivor") is True

    def test_fresh_lease_cannot_be_taken_over(self, tmp_path):
        ledger = WorkLedger(tmp_path / "leases", ttl_s=3600.0)
        assert ledger.claim("shard-1of1", "worker-a")
        assert ledger.claim("shard-1of1", "worker-b") is False
        assert ledger.owner_of("shard-1of1") == "worker-a"

    def test_release_marks_done_and_blocks_reclaim(self, tmp_path):
        store_dir = tmp_path / "store"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=2)
        ledger = WorkLedger.for_store(store_dir, ttl_s=5.0)
        assert ledger.claim("shard-2of2", "worker-a")
        ledger.release("shard-2of2", "worker-a", done=True)
        assert ledger.status_of("shard-2of2")[0] == "done"
        assert not ledger.lease_path("shard-2of2").exists()
        # Done shards are never claimable again, even for another owner.
        assert ledger.claim("shard-2of2", "worker-b") is False
        assert ledger.status_counts()["done"] == 1
        assert not ledger.all_done()

    def test_renew_without_lease_fails(self, tmp_path):
        ledger = WorkLedger(tmp_path / "leases")
        assert ledger.renew("shard-1of1", "worker-a") is False

    def test_read_paths_do_not_create_the_directory(self, tmp_path):
        # `dse status --eta` inspects the ledger of stores it only queries
        # (possibly on a read-only mount): reads must not mkdir.
        lease_dir = tmp_path / "leases"
        ledger = WorkLedger(lease_dir)
        assert ledger.status_counts() == {"open": 0, "active": 0,
                                          "expired": 0, "done": 0}
        assert ledger.owner_of("shard-1of2") is None
        assert ledger.read_complete() is None
        assert not ledger.all_done()
        assert not lease_dir.exists()
        assert ledger.claim("shard-1of2", "worker-a")  # first write creates it
        assert lease_dir.exists()

    def test_next_claim_partitions_workers(self, tmp_path):
        store_dir = tmp_path / "store"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=3)
        ledger = WorkLedger.for_store(store_dir)
        claimed = [ledger.claim_next(owner) for owner in ("a", "b", "c")]
        assert sorted(claimed) == ["shard-1of3", "shard-2of3", "shard-3of3"]
        for name in claimed:
            assert ledger.read_item(name)["shards"] == 3
        assert ledger.claim_next("d") is None  # everything leased

    def test_states_and_counts(self, tmp_path):
        store_dir = tmp_path / "store"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=4)
        ledger = WorkLedger.for_store(store_dir, ttl_s=5.0)
        ledger.claim("shard-1of4", "a")
        ledger.claim("shard-2of4", "b")
        _backdate(ledger.lease_path("shard-2of4"))
        ledger.claim("shard-3of4", "c")
        ledger.release("shard-3of4", "c", done=True)
        assert ledger.status_counts() == {"open": 1, "active": 1,
                                          "expired": 1, "done": 1}

    def test_index_and_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1"):
            write_manifest(tmp_path / "store", DesignSpace(**TINY_SPACE),
                           shards=0)
        with pytest.raises(ValueError, match="positive"):
            WorkLedger(tmp_path / "leases", ttl_s=0.0)
        with pytest.raises(ValueError, match="1..2"):
            Shard(3, 2)


# --------------------------------------------------------------------------- #
class TestManifest:
    def test_round_trip(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        path = write_manifest(tmp_path / "store", space, shards=4,
                              ttl_s=12.0)
        assert path.name == "dispatch.json"
        manifest = read_manifest(tmp_path / "store")
        assert manifest["shards"] == 4
        assert manifest["ledger"] == "work-items"
        assert manifest["ttl_s"] == 12.0
        assert "jobs" not in manifest
        assert DesignSpace.from_dict(manifest["space"]) == space

    def test_manifest_asking_for_a_worker_pool_is_refused_by_name(
            self, tmp_path):
        # Older versions ran a process pool of ``jobs`` inside each worker;
        # this one has none, so such a manifest is refused, not half-run.
        store = tmp_path / "store"
        path = write_manifest(store, DesignSpace(**TINY_SPACE), shards=2)
        manifest = json.loads(path.read_text())
        for jobs, refused in ((1, False), (2, True)):
            path.write_text(json.dumps(dict(manifest, jobs=jobs)))
            if refused:
                with pytest.raises(ValueError, match="process pool of 2 jobs"):
                    read_manifest(store)
            else:
                assert read_manifest(store)["jobs"] == 1

    def test_reprepare_same_space_retunes_ttl(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        write_manifest(tmp_path / "store", space, shards=4, ttl_s=12.0)
        write_manifest(tmp_path / "store", space, shards=4, ttl_s=30.0)
        assert read_manifest(tmp_path / "store")["ttl_s"] == 30.0

    def test_conflicting_redefinition_rejected(self, tmp_path):
        write_manifest(tmp_path / "store", DesignSpace(**TINY_SPACE), shards=4)
        with pytest.raises(ValueError, match="different dispatch"):
            write_manifest(tmp_path / "store", DesignSpace(**TINY_SPACE),
                           shards=8)
        other = dict(TINY_SPACE, capacities=(8,))
        with pytest.raises(ValueError, match="different dispatch"):
            write_manifest(tmp_path / "store", DesignSpace(**other), shards=4)

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ValueError, match="no dispatch manifest"):
            read_manifest(tmp_path / "store")

    def test_new_manifest_refuses_earlier_done_markers(self, tmp_path):
        # Deleting the manifest must not redefine a run in place: the new
        # run would trust the old run's done markers and report complete
        # without evaluating a single one of its own points.
        store_dir = tmp_path / "store"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=2)
        run_worker(store_dir, owner="first")
        (store_dir / "dispatch.json").unlink()
        other = DesignSpace(**dict(TINY_SPACE, capacities=(8,)))
        with pytest.raises(ValueError, match="fresh store directory"):
            Dispatcher(other, store_dir, workers=1, shards=2).prepare()
        assert not (store_dir / "dispatch.json").exists()

    def test_shard_items_are_written_with_the_manifest(self, tmp_path):
        store_dir = tmp_path / "store"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=5)
        ledger = WorkLedger.for_store(store_dir)
        assert ledger.work_names() == [f"shard-{i}of5" for i in range(1, 6)]
        assert [{key: ledger.read_item(name)[key]
                 for key in ("shard", "shards")}
                for name in ledger.work_names()] == \
            [{"shard": i, "shards": 5} for i in range(1, 6)]
        assert ledger.read_complete() is not None
        assert ledger.status_counts()["open"] == 5

    def test_new_manifest_refuses_stale_ledger_state(self, tmp_path):
        # An adaptive run's done markers, items and complete marker must
        # not carry over into a new run in the same store: its joining
        # workers would find the run already complete and evaluate nothing.
        store_dir = tmp_path / "adaptive"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), mode="adaptive",
                       strategy={"name": "bayes", "seed": 0,
                                 "metric": "fidelity", "batch_size": 2},
                       ttl_s=60.0)
        worker = threading.Thread(target=run_worker, args=(store_dir,),
                                  kwargs=dict(owner="threaded-worker"))
        worker.start()
        run_proposer(store_dir, poll_s=0.02)
        worker.join(timeout=120.0)
        assert not worker.is_alive()
        (store_dir / "dispatch.json").unlink()
        other = DesignSpace(**dict(TINY_SPACE, capacities=(8,)))
        with pytest.raises(ValueError, match="fresh store directory"):
            write_manifest(store_dir, other, mode="adaptive",
                           strategy={"name": "bayes", "seed": 0})
        assert not (store_dir / "dispatch.json").exists()
        # A grid run's leftover shard items, done or not, are refused too:
        # a new shard count would otherwise see the old run's items.
        store_dir = tmp_path / "grid"
        write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=2)
        (store_dir / "dispatch.json").unlink()
        with pytest.raises(ValueError, match="fresh store directory"):
            write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=3)

    def test_store_of_an_older_ledger_layout_is_refused_by_name(
            self, tmp_path, capsys):
        # A store written before the one work ledger: a shards manifest
        # with the compile partition marker but no ledger marker, and done
        # markers in the old layout.  Refused everywhere, never half-read.
        store_dir = tmp_path / "store"
        path = write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=2)
        older = json.loads(path.read_text())
        del older["ledger"]
        older["partition"] = "compile"
        path.write_text(json.dumps(older))
        for name in list((store_dir / "leases").iterdir()):
            name.unlink()
        (store_dir / "leases" / "shard-1of2.done").write_text("{}\n")
        with pytest.raises(ValueError, match="older version"):
            read_manifest(store_dir)
        with pytest.raises(ValueError, match="older version"):
            write_manifest(store_dir, DesignSpace(**TINY_SPACE), shards=2)
        with pytest.raises(SystemExit, match="older version"):
            main(["dse", "worker", "--store", str(store_dir),
                  "--owner", "cli-worker"])
        assert len(ExperimentStore(store_dir)) == 0
        capsys.readouterr()
        # The read-only views degrade to what they can show.
        assert main(["dse", "status", "--store", str(store_dir),
                     "--eta"]) == 1
        assert "older version" in capsys.readouterr().err
        assert main(["dse", "top", "--store", str(store_dir), "--once"]) == 0
        assert "repro dse top" in capsys.readouterr().out

    def test_store_with_an_old_traces_directory_is_refused_by_name(
            self, tmp_path, capsys):
        # Older versions wrote each traced worker's spans to
        # <store>/traces/<owner>.jsonl; this one keeps them in the worker
        # streams.  Joining, resuming or estimating such a store is
        # refused by name, as for an older ledger layout.
        store_dir = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        write_manifest(store_dir, space, shards=2)
        (store_dir / "traces").mkdir()
        (store_dir / "traces" / "w0.jsonl").write_text("{}\n")
        with pytest.raises(ValueError, match="traces.*older version"):
            read_manifest(store_dir)
        with pytest.raises(ValueError, match="older version"):
            write_manifest(store_dir, space, shards=2)
        with pytest.raises(ValueError, match="older version"):
            run_worker(store_dir, owner="solo")
        with pytest.raises(SystemExit, match="older version"):
            main(["dse", "worker", "--store", str(store_dir),
                  "--owner", "cli-worker"])
        assert len(ExperimentStore(store_dir)) == 0
        assert not (store_dir / "telemetry").exists()
        capsys.readouterr()
        assert main(["dse", "status", "--store", str(store_dir),
                     "--eta"]) == 1
        assert "older version" in capsys.readouterr().err

    def test_legacy_shards_manifest_is_refused(self, tmp_path):
        # A manifest without the ledger-layout marker was written by an
        # older version, whose ledger this one cannot read; its done
        # markers would certify the wrong work, so neither re-preparing nor
        # joining may resume.
        store_dir = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        path = write_manifest(store_dir, space, shards=2)
        legacy = json.loads(path.read_text())
        del legacy["ledger"]
        path.write_text(json.dumps(legacy))
        with pytest.raises(ValueError, match="older version"):
            write_manifest(store_dir, space, shards=2)
        with pytest.raises(ValueError, match="older version"):
            run_worker(store_dir, owner="solo")
        assert len(ExperimentStore(store_dir)) == 0


# --------------------------------------------------------------------------- #
class TestEta:
    def test_nothing_pending_is_zero(self):
        assert estimate_eta_s(0, [1.0], 4) == 0.0

    def test_no_timings_is_unknown_not_zero(self):
        assert estimate_eta_s(10, [], 2) is None

    def test_mean_rate_split_across_workers(self):
        assert estimate_eta_s(4, [2.0, 4.0], 2) == pytest.approx(6.0)
        assert estimate_eta_s(4, [2.0, 4.0], 1) == pytest.approx(12.0)
        # Zero active workers never divides by zero.
        assert estimate_eta_s(4, [3.0], 0) == pytest.approx(12.0)


# --------------------------------------------------------------------------- #
class TestWorkerLoop:
    def test_single_worker_completes_all_shards(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=3, ttl_s=60.0)
        summary = run_worker(store_dir, owner="solo")
        assert sorted(summary["completed"]) == ["shard-1of3", "shard-2of3",
                                                "shard-3of3"]
        assert summary["lost"] == []
        assert WorkLedger.for_store(store_dir).all_done()
        assert len(ExperimentStore(store_dir)) == space.size
        # Shard items carry no strategy, so their rows carry no provenance.
        assert [row.get("provenance") for row in
                ExperimentStore(store_dir).rows()] == [None] * space.size

    # A point-fingerprint partition keeps TINY_SPACE's gate pairs together
    # at 3 shards but splits one at 5, so both counts are checked.
    @pytest.mark.parametrize("shards", [3, 5])
    def test_worker_compiles_once_and_batches_every_gate_fanout(
            self, tmp_path, shards):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=shards, ttl_s=60.0)
        run_worker(store_dir, owner="solo")
        reader = TelemetryReader(store_dir)
        reader.poll()
        (exit_event,) = [event for event in reader.events
                         if event["event"] == "worker_exit"]
        counters = exit_event["counters"]
        # Shards hold whole compilations: no point fell back to the serial
        # simulate(), and each distinct program compiled exactly once.
        assert counters["cache.batch.variants"] == space.size
        compilations = {(point.app, point.qubits,
                         replace(point.config, gate="FM"))
                        for point in space.points()}
        assert counters["cache.misses"] == len(compilations)

    def test_dead_workers_expired_shard_is_reclaimed_and_finished(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=3, ttl_s=5.0)
        ledger = WorkLedger.for_store(store_dir, ttl_s=5.0)
        # A worker claimed shard 2, then was SIGKILLed: the lease stops
        # renewing and ages past the TTL.
        assert ledger.claim("shard-2of3", "dead-worker")
        _backdate(ledger.lease_path("shard-2of3"))
        summary = run_worker(store_dir, owner="survivor")
        assert "shard-2of3" in summary["completed"]
        assert ledger.all_done()
        assert len(ExperimentStore(store_dir)) == space.size

    def test_reclaimed_shard_replays_partial_results(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=1, ttl_s=5.0)
        ledger = WorkLedger.for_store(store_dir, ttl_s=5.0)
        # The dead worker evaluated (and flushed) part of its shard before
        # dying; the reclaiming worker must replay those rows, not redo them.
        with ExperimentStore(store_dir, writer="shard-1of1") as store:
            partial = DSERunner(space, store=store, shard=Shard(1, 1))
            partial.evaluate(list(space.points())[:2])
        assert ledger.claim("shard-1of1", "dead-worker")
        _backdate(ledger.lease_path("shard-1of1"))
        run_worker(store_dir, owner="survivor")
        merged = ExperimentStore(store_dir)
        assert len(merged) == space.size
        # Every fingerprint appears exactly once across the shard files.
        lines = []
        for path in sorted(store_dir.glob("*.jsonl")):
            lines += [json.loads(line)["fingerprint"]
                      for line in path.read_text().splitlines() if line]
        assert len(lines) == len(set(lines)) == space.size

    def test_failing_item_is_released_for_an_immediate_retry(self, tmp_path):
        """A point that fails (24 qubits on an 8-ion L3) gives its item
        back as the error propagates, so a respawned worker retries it at
        once instead of waiting out the lease TTL."""

        space = DesignSpace(apps=("QFT",), qubits=(24,), topologies=("L3",),
                            capacities=(8,), gates=("FM",), reorders=("GS",))
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=1, ttl_s=60.0)
        with pytest.raises(RuntimeError, match="no trap .* has free space"):
            run_worker(store_dir, owner="doomed")
        assert WorkLedger.for_store(store_dir).status_of("shard-1of1") == \
            ("open", None, None)

    def test_failing_item_leaves_a_failed_event_naming_its_error(
            self, tmp_path):
        """The worker's stream says which item failed and why, so the
        dispatcher can report it once the worker is gone."""

        space = DesignSpace(apps=("QFT",), qubits=(24,), topologies=("L3",),
                            capacities=(8,), gates=("FM",), reorders=("GS",))
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=1, ttl_s=60.0)
        with pytest.raises(RuntimeError):
            run_worker(store_dir, owner="doomed")
        reader = TelemetryReader(store_dir)
        reader.poll()
        failed = [event for event in reader.events
                  if event["event"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["work"] == "shard-1of1"
        assert failed[0]["error"].startswith(
            "RuntimeError: no trap in the device has free space")

    def test_incomplete_fill_names_the_last_failed_item(self, tmp_path,
                                                        monkeypatch):
        """``--jobs N``'s error names what failed, and offers a resume only
        for a store that outlives the command."""

        store_dir = tmp_path / "store"

        def run(dispatcher):
            with WorkerTelemetry(store_dir, "w0") as log:
                log.emit("failed", work="shard-2of2", error="RuntimeError: x")
            return {"complete": False}

        monkeypatch.setattr(Dispatcher, "run", run)
        space = DesignSpace(**TINY_SPACE)
        with pytest.raises(SystemExit) as temporary:
            fill_store(space, store_dir, workers=2, resumable=False)
        assert str(temporary.value) == (
            "error: the 2 local workers stopped before the run was complete; "
            "work item shard-2of2 failed with RuntimeError: x")
        with pytest.raises(SystemExit, match="the same command resumes it"):
            fill_store(space, store_dir, workers=2, resumable=True)

    def test_heartbeat_lease_lost_aborts_mid_evaluation(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        beats = []

        def heartbeat():
            beats.append(1)
            raise LeaseLost("reclaimed")

        with ExperimentStore(tmp_path / "store") as store:
            runner = DSERunner(space, store=store, heartbeat=heartbeat)
            with pytest.raises(LeaseLost):
                runner.evaluate_space()
        # The rows persisted before the abort survive for the new owner.
        assert beats == [1]
        assert 0 < len(ExperimentStore(tmp_path / "store")) < space.size


# --------------------------------------------------------------------------- #
class TestDispatcherLocal:
    def test_dispatched_run_matches_serial_export(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(tmp_path / "serial") as store:
            DSERunner(space, store=store).evaluate_space()
        serial = _export(tmp_path / "serial", tmp_path / "serial.json")

        dispatcher = Dispatcher(space, tmp_path / "dispatched", workers=2,
                                shards=3, ttl_s=30.0, poll_s=0.1)
        summary = dispatcher.run(timeout_s=120.0)
        assert summary["complete"] is True
        assert summary["points"] == space.size
        dispatched = _export(tmp_path / "dispatched",
                             tmp_path / "dispatched.json")
        assert dispatched == serial

    def test_dispatcher_wakes_when_its_worker_exits(self, tmp_path):
        # The dispatcher waits on its workers rather than sleeping poll_s,
        # so a long poll interval does not delay the end of the run.
        dispatcher = Dispatcher(DesignSpace(**TINY_SPACE), tmp_path / "store",
                                workers=1, shards=2, poll_s=20.0)
        summary = dispatcher.run(timeout_s=120.0)
        assert summary["complete"] is True
        assert summary["elapsed_s"] < 10.0

    def test_progress_tick_reads_only_new_stream_records(self, tmp_path):
        # One reader serves every tick: a tick with nothing appended reads
        # no telemetry bytes, and the next reads just the new record.
        dispatcher = Dispatcher(DesignSpace(**TINY_SPACE), tmp_path / "store",
                                workers=1)
        with WorkerTelemetry(tmp_path / "store", "w0") as stream:
            stream.emit("worker_start", pid=1)
            assert dispatcher.progress()["workers"]["w0"]["alive"] is True
            stats = dispatcher.view.reader.scan_stats
            read = stats["bytes_read"]
            dispatcher.progress()
            assert stats["bytes_read"] == read
            end = stream.append({"t": 1.0, "owner": "w0", "event": "claim",
                                 "work": "s0"})
            assert dispatcher.progress()["workers"]["w0"]["claims"] == 1
        assert stats["bytes_read"] == end
        assert stats["full_scans"] == 1

    def test_kill_one_worker_shard_reclaimed_export_identical(self):
        """The acceptance scenario: 48 points, 3 workers, one SIGKILLed.

        The killed worker's leased shard must be reclaimed through lease
        expiry by the survivors, and the merged store must export
        byte-identically to a single-process run of the same space.  The
        scenario lives in ``examples/dse_distributed.py --smoke`` (also the
        CI ``dispatch-smoke`` job); this test drives that single source of
        truth rather than duplicating it.
        """

        import subprocess
        import sys

        repo_root = Path(__file__).resolve().parents[1]
        env = os.environ.copy()
        src = str(repo_root / "src")
        env["PYTHONPATH"] = (src if "PYTHONPATH" not in env
                             else src + os.pathsep + env["PYTHONPATH"])
        result = subprocess.run(
            [sys.executable, str(repo_root / "examples" / "dse_distributed.py"),
             "--smoke"],
            capture_output=True, text=True, env=env, timeout=600.0)
        assert result.returncode == 0, \
            f"smoke failed:\n{result.stdout}\n{result.stderr}"
        assert "SIGKILLed worker" in result.stdout
        assert "byte-identical to the serial run" in result.stdout


# --------------------------------------------------------------------------- #
class TestDispatchCli:
    def test_print_only_writes_manifest_and_commands(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["dse", "dispatch", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6",
                     "--gates", "AM1,FM", "--store", str(store),
                     "--workers", "2", "--shards", "3",
                     "--print-only"]) == 0
        out = capsys.readouterr().out
        assert "4 points -> 3 leased shards" in out
        assert out.count("repro dse worker --store") == 2
        manifest = read_manifest(store)
        assert manifest["shards"] == 3

    def test_worker_cli_joins_prepared_dispatch(self, capsys, tmp_path):
        store = tmp_path / "store"
        write_manifest(store, DesignSpace(**TINY_SPACE), shards=2, ttl_s=60.0)
        assert main(["dse", "worker", "--store", str(store),
                     "--owner", "cli-worker"]) == 0
        out = capsys.readouterr().out
        assert "worker cli-worker" in out
        assert len(ExperimentStore(store)) == 4

    def test_worker_cli_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no dispatch manifest"):
            main(["dse", "worker", "--store", str(tmp_path / "store")])

    def test_status_eta_from_manifest(self, capsys, tmp_path):
        store = tmp_path / "store"
        write_manifest(store, DesignSpace(**TINY_SPACE), shards=2, ttl_s=60.0)
        run_worker(store, owner="solo")
        assert main(["dse", "status", "--store", str(store), "--eta"]) == 0
        out = capsys.readouterr().out
        assert "rows carry wall_s" in out
        assert "ETA: 0 pending points" in out

    def test_status_eta_with_space_and_workers(self, capsys, tmp_path):
        store = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(store) as open_store:
            DSERunner(space, store=open_store).evaluate(
                list(space.points())[:2])
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space.to_dict()))
        assert main(["dse", "status", "--store", str(store), "--eta",
                     "--space", str(space_file), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2/4 points completed, 2 pending" in out
        assert "ETA: 2 pending points / 2 active worker(s)" in out

    @pytest.mark.parametrize("run", ["grid", "bayes", "bayes-complete",
                                     "ladder"])
    def test_top_progress_and_eta_agree_on_planned_points(
            self, capsys, tmp_path, monkeypatch, run):
        # One rule plans the points: a grid its space, a bayes run its
        # budget (4 of these 8 points) until its complete marker makes it
        # the stored rows, a ladder nothing (unknown).  The dse top header,
        # Dispatcher.progress() and dse status --eta all read it.
        space = DesignSpace(apps=("QFT", "BV"), qubits=(8,),
                            topologies=("L3",), capacities=(6, 8),
                            gates=("AM1", "FM"))
        strategy = {"grid": None,
                    "bayes": {"name": "bayes", "seed": 0, "batch_size": 2},
                    "ladder": {"name": "adaptive-halving", "seed": 0}}
        monkeypatch.chdir(tmp_path)
        dispatcher = Dispatcher(space, "store", workers=1, strategy=strategy[
            "bayes" if run == "bayes-complete" else run])
        dispatcher.prepare()
        with ExperimentStore("store") as store:
            DSERunner(space, store=store).evaluate(list(space.points())[:2])
        if run == "bayes-complete":
            dispatcher.ledger.write_complete({"batches": 1, "evaluations": 2,
                                              "best": None})
        total, pending = {"grid": (8, 6), "bayes": (4, 2),
                          "bayes-complete": (2, 0), "ladder": (None, None)}[run]
        progress = dispatcher.progress()
        assert (progress["points_total"], progress["points_pending"]) == \
            (total, pending)
        capsys.readouterr()
        assert main(["dse", "top", "--store", "store", "--once"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert main(["dse", "status", "--store", "store", "--eta"]) == 0
        eta = capsys.readouterr().out
        if total is None:
            assert "-- 2/? points | shards" in header
            assert "no fixed evaluation budget" in eta
        else:
            assert f"-- 2/{total} points" + (
                f" ({pending} pending)" if pending else "") + " | shards" \
                in header
            assert f"ETA: {pending} pending points" in eta

    def test_status_eta_without_space_or_manifest_fails(self, capsys, tmp_path):
        store = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(store) as open_store:
            DSERunner(space, store=open_store).evaluate(
                list(space.points())[:1])
        assert main(["dse", "status", "--store", str(store), "--eta"]) == 1
        assert "provide --space" in capsys.readouterr().err
