"""Tests for the design-space exploration subsystem.

Covers the contracts the subsystem is built around:

* spaces validate, enumerate deterministically and fingerprint stably;
* the store survives kills (truncated trailing line), dedups, and merges
  shard files by directory union;
* a killed-and-resumed run recomputes nothing and is bit-identical to a
  one-shot run;
* every strategy is deterministic under a fixed seed for any ``jobs`` value.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.dse import (
    CoordinateDescent,
    DSERunner,
    DesignPoint,
    DesignSpace,
    ExhaustiveGrid,
    ExperimentStore,
    RandomSampling,
    Shard,
    StoreCorruptionWarning,
    SuccessiveHalving,
    best_record,
    make_strategy,
    pareto_frontier,
    point_from_spec,
    record_to_row,
    row_to_record,
)
from repro.io.fingerprint import design_point_fingerprint, result_fingerprint
from repro.toolflow import ArchitectureConfig
from repro.toolflow.parallel import ProgramCache
from repro.toolflow.runner import run_experiment


@pytest.fixture
def mini_space():
    """2 apps x 2 capacities x 2 gates on a small linear device (8 points)."""

    return DesignSpace(apps=("QFT", "BV"), topologies=("L3",),
                       capacities=(6, 8), gates=("AM1", "FM"), reorders=("GS",))


@pytest.fixture
def mini_circuits(qft8, bv8):
    return {"QFT": qft8, "BV": bv8}


def _rows(records):
    return [record.as_row() for record in records]


# --------------------------------------------------------------------------- #
class TestDesignSpace:
    def test_size_and_enumeration_order(self, mini_space):
        assert mini_space.size == 8
        points = list(mini_space.points())
        assert len(points) == 8
        # Default order: capacity-major, app next, gate innermost.
        labels = [(p.config.trap_capacity, p.app, p.config.gate) for p in points]
        assert labels == [(6, "QFT", "AM1"), (6, "QFT", "FM"),
                          (6, "BV", "AM1"), (6, "BV", "FM"),
                          (8, "QFT", "AM1"), (8, "QFT", "FM"),
                          (8, "BV", "AM1"), (8, "BV", "FM")]

    def test_custom_order(self):
        space = DesignSpace(apps=("QFT",), capacities=(6, 8), reorders=("GS", "IS"),
                            order=("topology", "reorder", "capacity", "buffer",
                                   "qubits", "app", "gate"))
        combos = [(p.config.reorder, p.config.trap_capacity) for p in space.points()]
        assert combos == [("GS", 6), ("GS", 8), ("IS", 6), ("IS", 8)]

    def test_validation_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="empty"):
            DesignSpace(apps=())
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpace(apps=("QFT", "QFT"))
        with pytest.raises(ValueError, match="gate"):
            DesignSpace(apps=("QFT",), gates=("XY",))
        with pytest.raises(ValueError, match="reorder"):
            DesignSpace(apps=("QFT",), reorders=("ZZ",))
        with pytest.raises(ValueError, match="at least 2"):
            DesignSpace(apps=("QFT",), capacities=(1,))
        with pytest.raises(ValueError, match="permutation"):
            DesignSpace(apps=("QFT",), order=("app", "gate"))

    def test_spec_round_trip(self, mini_space):
        rebuilt = DesignSpace.from_dict(mini_space.to_dict())
        assert rebuilt == mini_space
        assert [p for p in rebuilt.points()] == [p for p in mini_space.points()]

    def test_from_dict_promotes_scalars(self):
        space = DesignSpace.from_dict({"apps": "QFT", "capacities": 6,
                                       "topologies": "L3"})
        assert space.apps == ("QFT",)
        assert space.capacities == (6,)

    def test_from_dict_rejects_future_schema(self):
        with pytest.raises(ValueError, match="newer"):
            DesignSpace.from_dict({"apps": ["QFT"], "schema_version": 999})

    def test_from_dict_rejects_unknown_keys(self):
        # A typo must fail loudly, not silently sweep paper-scale defaults.
        with pytest.raises(ValueError, match="unknown keys.*capacity"):
            DesignSpace.from_dict({"apps": ["QFT"], "capacity": [6, 8]})

    def test_point_spec_round_trip(self, mini_space):
        point = next(mini_space.points())
        rebuilt = point_from_spec(json.loads(json.dumps(point.spec())))
        assert rebuilt == point
        assert rebuilt.config.model == point.config.model


class TestFingerprints:
    def test_stable_and_knob_sensitive(self, qft8):
        config = ArchitectureConfig(topology="L3", trap_capacity=6)
        base = design_point_fingerprint(qft8, config)
        assert base == design_point_fingerprint(qft8, config)
        for changed in (config.with_updates(trap_capacity=8),
                        config.with_updates(gate="AM1"),
                        config.with_updates(reorder="IS"),
                        config.with_updates(topology="G2x2"),
                        config.with_updates(buffer_ions=1)):
            assert design_point_fingerprint(qft8, changed) != base

    def test_model_params_are_keyed(self, qft8):
        config = ArchitectureConfig(topology="L3", trap_capacity=6)
        hot = replace(config.model.heating, k1=1.0)
        changed = config.with_updates(model=replace(config.model, heating=hot))
        assert design_point_fingerprint(qft8, changed) != \
            design_point_fingerprint(qft8, config)

    def test_circuit_structure_is_keyed(self, qft8, bv8):
        config = ArchitectureConfig(topology="L3", trap_capacity=6)
        assert design_point_fingerprint(qft8, config) != \
            design_point_fingerprint(bv8, config)


# --------------------------------------------------------------------------- #
class TestExperimentStore:
    def _row(self, fingerprint, app="qft8"):
        return {"schema_version": 1, "fingerprint": fingerprint,
                "point": {"app": "QFT", "qubits": None,
                          "config": {"topology": "L3", "trap_capacity": 6,
                                     "gate": "FM", "reorder": "GS",
                                     "buffer_ions": 2}},
                "application": app, "program_ops": 3, "shuttles": 1,
                "metrics": {"duration_us": 10.0, "duration_s": 1e-5,
                            "fidelity": 0.5, "log_fidelity": -0.69,
                            "computation_s": 1e-5, "communication_s": 0.0,
                            "max_motional_energy": 0.0,
                            "mean_background_error": 0.0,
                            "mean_motional_error": 0.0,
                            "num_shuttles": 1.0, "num_ms_gates": 2.0}}

    def test_in_memory_dedup(self):
        store = ExperimentStore()
        assert store.add(self._row("aa")) is True
        assert store.add(self._row("aa")) is False
        assert len(store) == 1
        assert "aa" in store

    def test_persist_and_reload(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            store.add(self._row("aa"))
            store.add(self._row("bb"))
        reloaded = ExperimentStore(tmp_path / "store")
        assert len(reloaded) == 2
        assert reloaded.get("aa")["application"] == "qft8"

    def test_torn_line_mid_file_is_skipped_with_warning(self, tmp_path):
        # A partially copied shard file can tear a line *anywhere*, not just
        # at the tail; rows after the tear must still load.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        lines = [json.dumps(self._row("aa")),
                 '{"schema_version": 1, "fingerprint": "bb", "poi',  # torn
                 json.dumps(self._row("cc"))]
        (store_dir / "shard-1of2.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.warns(StoreCorruptionWarning, match="torn or corrupt"):
            store = ExperimentStore(store_dir)
        assert sorted(store.fingerprints()) == ["aa", "cc"]
        assert store.skipped_lines == 1

    def test_valid_json_but_incomplete_row_is_skipped(self, tmp_path):
        # A tear can also produce parseable JSON that is not a usable row
        # (not an object, or an object missing replay-critical keys); the
        # loader must skip-and-warn, not blow up later in row_to_record.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        lines = ["[1, 2, 3]",
                 '{"schema_version": 1, "fingerprint": "bb"}',
                 json.dumps(self._row("aa"))]
        (store_dir / "results.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.warns(StoreCorruptionWarning):
            store = ExperimentStore(store_dir)
        assert store.fingerprints() == ["aa"]
        assert store.skipped_lines == 2
        assert [record.application for record in store.records()] == ["qft8"]

    def test_malformed_schema_version_is_skipped_not_fatal(self, tmp_path):
        # A corrupt line can garble the version field into parseable-but-
        # nonsense JSON; that is line corruption (skip + warn), not a reason
        # to abort the directory.  Genuinely newer versions stay fatal (see
        # test_newer_schema_rejected).
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        bad = dict(self._row("bb"), schema_version="two")
        lines = [json.dumps(bad), json.dumps(self._row("aa"))]
        (store_dir / "results.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.warns(StoreCorruptionWarning, match="malformed"):
            store = ExperimentStore(store_dir)
        assert store.fingerprints() == ["aa"]
        assert store.skipped_lines == 1

    def test_binary_garbage_in_file_does_not_abort_load(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        with open(store_dir / "results.jsonl", "wb") as handle:
            handle.write(json.dumps(self._row("aa")).encode() + b"\n")
            handle.write(b"\xff\xfe garbage \x00\n")
            handle.write(json.dumps(self._row("bb")).encode() + b"\n")
        with pytest.warns(StoreCorruptionWarning):
            store = ExperimentStore(store_dir)
        assert sorted(store.fingerprints()) == ["aa", "bb"]

    def test_unterminated_complete_trailing_row_survives_append(self, tmp_path):
        # A kill can land between writing a full row and its newline.  The
        # loader accepts the row, so the writer-open healing must terminate
        # it -- not truncate it away, which would lose the point forever
        # (dedup stops the replayed row from ever being rewritten).
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "results.jsonl").write_text(
            json.dumps(self._row("aa")) + "\n" + json.dumps(self._row("bb")))
        store = ExperimentStore(store_dir)
        assert sorted(store.fingerprints()) == ["aa", "bb"]
        store.add(self._row("cc"))
        store.close()
        reloaded = ExperimentStore(store_dir)
        assert sorted(reloaded.fingerprints()) == ["aa", "bb", "cc"]
        assert reloaded.skipped_lines == 0

    def test_torn_fragment_is_dropped_on_append(self, tmp_path):
        # A genuine fragment (unparseable tail) holds no recoverable row;
        # the writer-open healing removes it so later loads stay clean.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "results.jsonl").write_text(
            json.dumps(self._row("aa")) + "\n" + '{"fingerprint": "bb", "tor')
        store = ExperimentStore(store_dir)
        assert store.fingerprints() == ["aa"]
        store.add(self._row("cc"))
        store.close()
        reloaded = ExperimentStore(store_dir)
        assert sorted(reloaded.fingerprints()) == ["aa", "cc"]
        assert reloaded.skipped_lines == 0  # the scar is gone, not skipped

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            store.add(self._row("aa"))
            store.add(self._row("bb"))
        path = store.writer_path
        # Simulate a kill mid-append: a half-written JSON line at the tail.
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "fingerprint": "cc", "trunc')
        recovered = ExperimentStore(tmp_path / "store")
        assert len(recovered) == 2
        assert recovered.skipped_lines == 1
        assert "cc" not in recovered

    def test_directory_union_merges_shards(self, tmp_path):
        with ExperimentStore(tmp_path / "store", writer="shard-1of2") as one:
            one.add(self._row("aa"))
        with ExperimentStore(tmp_path / "store", writer="shard-2of2") as two:
            two.add(self._row("bb"))
        merged = ExperimentStore(tmp_path / "store")
        assert sorted(merged.fingerprints()) == ["aa", "bb"]
        assert merged.source_counts() == {"shard-1of2.jsonl": 1,
                                          "shard-2of2.jsonl": 1}

    def test_merge_from_other_store(self, tmp_path):
        source = ExperimentStore()
        source.add(self._row("aa"))
        source.add(self._row("bb"))
        with ExperimentStore(tmp_path / "store") as target:
            target.add(self._row("aa"))
            assert target.merge_from(source) == 1
        assert len(ExperimentStore(tmp_path / "store")) == 2

    def test_newer_schema_rejected(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        row = self._row("aa")
        row["schema_version"] = 999
        (store_dir / "results.jsonl").write_text(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="newer"):
            ExperimentStore(store_dir)

    def test_mixed_version_store_round_trip(self, tmp_path):
        # Schema v1 rows (PR 2 stores) carry no wall_s; they must load,
        # replay and report next to v2 rows, and their missing timing must
        # stay *absent* (unknown), never default to zero.
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        old_row = self._row("aa")  # schema_version 1, no wall_s
        assert old_row["schema_version"] == 1
        (store_dir / "pr2-era.jsonl").write_text(json.dumps(old_row) + "\n")
        new_row = dict(self._row("bb"), schema_version=2, wall_s=0.25,
                       application="bv8")
        with ExperimentStore(store_dir) as store:
            store.add(new_row)
        reloaded = ExperimentStore(store_dir)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 0
        # ETA math sees exactly the one recorded timing.
        assert reloaded.wall_timings() == [0.25]
        by_fp = {fp: row_to_record(reloaded.get(fp)) for fp in ("aa", "bb")}
        assert by_fp["aa"].wall_s is None
        assert by_fp["bb"].wall_s == 0.25
        # Replaying a v1 record into another store must not invent a timing.
        replay_row = record_to_row("aa", by_fp["aa"].point, by_fp["aa"])
        assert "wall_s" not in replay_row
        replay_new = record_to_row("bb", by_fp["bb"].point, by_fp["bb"])
        assert replay_new["wall_s"] == 0.25
        # ... and the canonical export treats both generations alike: no
        # timings, no per-row schema stamps (a resumed PR2-era store must
        # export byte-identically to a fresh run of the same space).
        for row in reloaded.export_rows():
            assert "wall_s" not in row
            assert "schema_version" not in row

    def test_mixed_version_store_status_cli(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "pr2-era.jsonl").write_text(
            json.dumps(self._row("aa")) + "\n")
        with ExperimentStore(store_dir) as store:
            store.add(dict(self._row("bb"), schema_version=2, wall_s=0.5))
        assert main(["dse", "status", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 evaluated points" in out
        assert "Timings: 1/2 rows carry wall_s" in out


# --------------------------------------------------------------------------- #
class TestDSERunner:
    def test_records_match_direct_runs(self, mini_space, mini_circuits):
        runner = DSERunner(mini_space, circuits=mini_circuits)
        records = runner.evaluate_space()
        for point, record in zip(mini_space.points(), records):
            direct = run_experiment(mini_circuits[point.app], point.config)
            assert record.application == direct.application
            assert record.config == direct.config
            assert result_fingerprint(record.result) == \
                result_fingerprint(direct.result)

    def test_gate_fanout_shares_compilations(self, mini_space, mini_circuits):
        runner = DSERunner(mini_space, circuits=mini_circuits)
        runner.evaluate_space()
        # 8 points but only 4 (app x capacity) compilations: the two gate
        # variants of each pair fold into one task, which the batch engine
        # evaluates in a single pass per compilation.  Each task stores both
        # gates of the space, so its compilation is released at once.
        stats = runner.cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 4, 0)
        assert stats["batch_plans"] == 4
        assert stats["batch_variants"] == 8

    def test_jobs_do_not_change_results(self, mini_space, mini_circuits):
        serial = DSERunner(mini_space, circuits=mini_circuits).evaluate_space()
        parallel = DSERunner(mini_space, circuits=mini_circuits,
                             jobs=2).evaluate_space()
        assert _rows(serial) == _rows(parallel)

    def test_duplicate_points_alias_in_batch(self, mini_space, mini_circuits):
        point = next(mini_space.points())
        runner = DSERunner(mini_space, circuits=mini_circuits)
        records = runner.evaluate([point, point])
        assert runner.stats["evaluated"] == 1
        assert records[0] is records[1]

    def test_qubit_override_requires_builder(self, mini_space, mini_circuits):
        runner = DSERunner(mini_space, circuits=mini_circuits)
        point = next(mini_space.points()).with_qubits(10)
        with pytest.raises(ValueError, match="default application builder"):
            runner.evaluate([point])

    def test_default_builder_builds_named_apps(self):
        space = DesignSpace(apps=("BV",), qubits=(10,), topologies=("L3",),
                            capacities=(6,))
        records = DSERunner(space).evaluate_space()
        assert records[0].application == "bv10"

    def test_rows_record_wall_timings(self, mini_space, mini_circuits,
                                      tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            records = DSERunner(mini_space, store=store,
                                circuits=mini_circuits).evaluate_space()
        # Every fresh evaluation times itself ...
        assert all(record.wall_s > 0 for record in records)
        reloaded = ExperimentStore(tmp_path / "store")
        assert len(reloaded.wall_timings()) == mini_space.size
        # ... the timing replays with the row ...
        assert all(record.wall_s > 0 for record in reloaded.records())
        # ... but never reaches report rows or canonical exports (it
        # describes the run, not the design point).
        assert all("wall_s" not in record.as_row() for record in records)
        assert all("wall_s" not in row for row in reloaded.export_rows())


class TestResumeAndShard:
    """The ISSUE's acceptance semantics: kill/resume and shard splits."""

    def test_killed_run_resumes_without_recompute_bit_identical(
            self, mini_space, mini_circuits, tmp_path):
        points = list(mini_space.points())

        # One-shot reference run.
        with ExperimentStore(tmp_path / "oneshot") as reference_store:
            reference = DSERunner(mini_space, store=reference_store,
                                  circuits=mini_circuits).evaluate_space()

        # Partial run "killed" after 3 points, plus a torn trailing write.
        with ExperimentStore(tmp_path / "resumed") as partial_store:
            DSERunner(mini_space, store=partial_store,
                      circuits=mini_circuits).evaluate(points[:3])
        with open(partial_store.writer_path, "a") as handle:
            handle.write('{"schema_version": 1, "fingerprint": "torn...')

        # Resume: only the 5 missing points execute.
        resumed_store = ExperimentStore(tmp_path / "resumed")
        assert len(resumed_store) == 3
        runner = DSERunner(mini_space, store=resumed_store,
                           circuits=mini_circuits)
        resumed = runner.evaluate_space()
        resumed_store.close()
        assert runner.stats == {"evaluated": 5, "reused": 3, "skipped": 0}

        # Bit-identical to the one-shot run: same record rows in order, and
        # byte-identical canonical store content (export_rows strips the
        # per-run wall_s timings, which legitimately differ between runs).
        assert _rows(resumed) == _rows(reference)

        def canonical(store):
            return json.dumps(store.export_rows(), sort_keys=True)

        assert canonical(ExperimentStore(tmp_path / "resumed")) == \
            canonical(ExperimentStore(tmp_path / "oneshot"))

    def test_second_run_recomputes_nothing(self, mini_space, mini_circuits,
                                           tmp_path):
        with ExperimentStore(tmp_path / "store") as store:
            DSERunner(mini_space, store=store,
                      circuits=mini_circuits).evaluate_space()
        rerun = DSERunner(mini_space, store=ExperimentStore(tmp_path / "store"),
                          circuits=mini_circuits)
        rerun.evaluate_space()
        assert rerun.stats["evaluated"] == 0
        assert rerun.cache.stats()["misses"] == 0

    def test_shards_partition_points(self, mini_space, mini_circuits):
        full = DSERunner(mini_space, circuits=mini_circuits).evaluate_space()
        points = list(mini_space.points())
        assert len({point.config.gate for point in points}) == 2
        cache = ProgramCache()  # shared: only the partition is under test
        for count in range(1, 6):
            owner_of = {}
            for index in range(1, count + 1):
                runner = DSERunner(mini_space, circuits=mini_circuits,
                                   shard=Shard(index, count), cache=cache)
                records = runner.evaluate_space()
                for position, record in enumerate(records):
                    if record is None:
                        continue
                    # Every point belongs to exactly one shard.
                    assert position not in owner_of
                    owner_of[position] = index
                    assert record.as_row() == full[position].as_row()
            assert sorted(owner_of) == list(range(len(points)))
            # Changing only the gate never moves a point to another shard.
            shards_of = {}
            for position, point in enumerate(points):
                compilation = (point.app, point.qubits,
                               replace(point.config, gate="FM"))
                shards_of.setdefault(compilation, set()).add(owner_of[position])
            assert all(len(owners) == 1 for owners in shards_of.values())

    def test_sharded_stores_union_to_full_run(self, mini_space, mini_circuits,
                                              tmp_path):
        for index in (1, 2):
            with ExperimentStore(tmp_path / "store") as store:
                DSERunner(mini_space, store=store, circuits=mini_circuits,
                          shard=Shard(index, 2)).evaluate_space()
        merged = ExperimentStore(tmp_path / "store")
        assert len(merged) == mini_space.size
        assert len(merged.source_counts()) == 2
        # A reader of the merged directory replays everything, computes nothing.
        replay = DSERunner(mini_space, store=merged, circuits=mini_circuits)
        replay.evaluate_space()
        assert replay.stats == {"evaluated": 0, "reused": 8, "skipped": 0}

    def test_shard_parse_and_validation(self):
        shard = Shard.parse("2/4")
        assert (shard.index, shard.count) == (2, 4)
        with pytest.raises(ValueError):
            Shard.parse("0/4")
        with pytest.raises(ValueError):
            Shard.parse("5/4")
        with pytest.raises(ValueError):
            Shard.parse("nope")

    def test_shard_parse_range_errors_not_masked(self):
        # A well-formed i/N with an out-of-range index must surface the
        # real bound violation, not the generic format message.
        with pytest.raises(ValueError, match=r"shard index must be in 1\.\.4"):
            Shard.parse("0/4")
        with pytest.raises(ValueError, match=r"shard index must be in 1\.\.4"):
            Shard.parse("5/4")
        with pytest.raises(ValueError, match="at least 1"):
            Shard.parse("1/0")
        # Format errors keep the generic message, chained to the parse error.
        with pytest.raises(ValueError, match="form i/N") as excinfo:
            Shard.parse("nope")
        assert isinstance(excinfo.value.__cause__, ValueError)
        with pytest.raises(ValueError, match="form i/N"):
            Shard.parse("1/2/3")

    def test_adaptive_strategy_refuses_shard(self, mini_space, mini_circuits):
        runner = DSERunner(mini_space, circuits=mini_circuits, shard=Shard(1, 2))
        with pytest.raises(ValueError, match="cannot be sharded"):
            runner.run(CoordinateDescent())


# --------------------------------------------------------------------------- #
class TestStrategies:
    def test_grid_covers_space(self, mini_space, mini_circuits):
        result = DSERunner(mini_space, circuits=mini_circuits).run(ExhaustiveGrid())
        assert len(result.evaluated) == mini_space.size
        assert result.best is best_record(result.evaluated)

    @pytest.mark.parametrize("strategy_factory", [
        lambda: RandomSampling(4, seed=7),
        lambda: CoordinateDescent(seed=7),
    ])
    def test_seeded_strategies_deterministic_for_any_jobs(
            self, mini_space, mini_circuits, strategy_factory):
        outcomes = []
        for jobs in (1, 2):
            runner = DSERunner(mini_space, circuits=mini_circuits, jobs=jobs)
            result = runner.run(strategy_factory())
            outcomes.append((_rows(result.evaluated), result.best.as_row()))
        assert outcomes[0] == outcomes[1]

    def test_random_sampling_seed_changes_sample(self, mini_space, mini_circuits):
        def sample(seed):
            runner = DSERunner(mini_space, circuits=mini_circuits)
            result = runner.run(RandomSampling(3, seed=seed))
            return [(row["application"], row["capacity"], row["gate"])
                    for row in _rows(result.evaluated)]

        assert sample(0) == sample(0)
        assert any(sample(0) != sample(seed) for seed in (1, 2, 3))

    def test_greedy_reuses_store_across_runs(self, mini_space, mini_circuits):
        runner = DSERunner(mini_space, circuits=mini_circuits)
        first = runner.run(CoordinateDescent(seed=1))
        rerun = DSERunner(mini_space, store=runner.store, circuits=mini_circuits)
        second = rerun.run(CoordinateDescent(seed=1))
        assert rerun.stats["evaluated"] == 0
        assert _rows(first.evaluated) == _rows(second.evaluated)
        assert first.best.as_row() == second.best.as_row()

    @pytest.mark.parametrize("name, knobs, hits, misses, held", [
        ("greedy", {}, 1, 4, 3),
        ("bayes", {"max_evals": 12}, 2, 7, 7),
        ("ehvi", {"max_evals": 12, "objectives": ("fidelity", "runtime")},
         2, 4, 2),
        ("random", {"samples": 12}, 0, 7, 7),
    ])
    def test_cache_holds_only_compilations_with_unstored_gates(
            self, qft8, bv8, name, knobs, hits, misses, held):
        """Adaptive runs keep every cache hit, and the cache ends up holding
        exactly the compilations some gate of which has no stored row."""

        space = DesignSpace(apps=("QFT", "BV"), topologies=("L3",),
                            capacities=(6, 8), gates=("AM1", "AM2", "PM", "FM"),
                            reorders=("GS", "IS"))
        runner = DSERunner(space, circuits={"QFT": qft8, "BV": bv8})
        runner.run(make_strategy(name, seed=1, **knobs))
        cache = runner.cache
        assert (cache.hits, cache.misses, len(cache)) == (hits, misses, held)

        stored_gates = {}
        for point in space.points():
            compilation = replace(point, config=point.config.with_updates(gate="FM"))
            gates = stored_gates.setdefault(compilation, set())
            if runner.store.get(runner.fingerprint(point)) is not None:
                gates.add(point.config.gate)
        unfinished = [point for point, gates in stored_gates.items()
                      if gates and gates != set(space.gates)]
        assert len(unfinished) == held
        # Every unfinished compilation is still held: asking for it hits.
        for point in unfinished:
            cache.get_or_compile(runner.circuit_for(point.app, point.qubits),
                                 point.config)
        assert (cache.hits, cache.misses) == (hits + held, misses)

    def test_successive_halving_narrows_to_full_scale(self):
        space = DesignSpace(apps=("QFT", "BV"), qubits=(16,), topologies=("L3",),
                            capacities=(6, 8), gates=("FM",), reorders=("GS",))
        runner = DSERunner(space)
        result = runner.run(SuccessiveHalving(proxy_qubits=8))
        assert result.best is not None
        # The winner is evaluated at the true size, not the proxy size.
        assert result.best.as_row()["application"].endswith("16")
        kept = [entry["candidates"] for entry in result.trace]
        assert kept == sorted(kept, reverse=True)

    def test_halving_is_deterministic(self):
        space = DesignSpace(apps=("BV",), qubits=(16,), topologies=("L3",),
                            capacities=(6, 8), gates=("AM1", "FM"),
                            reorders=("GS",))
        results = [DSERunner(space, jobs=jobs).run(
            SuccessiveHalving(seed=5, proxy_qubits=8)) for jobs in (1, 2)]
        assert _rows(results[0].evaluated) == _rows(results[1].evaluated)
        assert results[0].best.as_row() == results[1].best.as_row()

    def test_make_strategy(self):
        assert make_strategy("grid").name == "grid"
        assert make_strategy("random", samples=3).name == "random"
        assert make_strategy("greedy", seed=2).name == "greedy"
        assert make_strategy("halving").name == "halving"
        with pytest.raises(ValueError, match="--samples"):
            make_strategy("random")
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("magic")


# --------------------------------------------------------------------------- #
class _StubRecord:
    def __init__(self, app, duration_s, fidelity):
        self.application = app
        self.duration_seconds = duration_s
        self.fidelity = fidelity

    def as_row(self):
        return {"application": self.application,
                "duration_s": self.duration_seconds, "fidelity": self.fidelity}


class TestPareto:
    def test_frontier_drops_dominated(self):
        records = [
            _StubRecord("a", 1.0, 0.9),   # frontier (fast + reliable)
            _StubRecord("a", 2.0, 0.8),   # dominated by the first
            _StubRecord("a", 0.5, 0.5),   # frontier (fastest)
            _StubRecord("a", 3.0, 0.95),  # frontier (most reliable)
            _StubRecord("a", 3.5, 0.95),  # dominated (same fidelity, slower)
        ]
        frontier = pareto_frontier(records)
        assert [(r.duration_seconds, r.fidelity) for r in frontier] == \
            [(0.5, 0.5), (1.0, 0.9), (3.0, 0.95)]

    def test_frontier_tie_on_runtime_keeps_most_reliable(self):
        records = [_StubRecord("a", 1.0, 0.7), _StubRecord("a", 1.0, 0.9)]
        assert pareto_frontier(records) == [records[1]]

    def test_best_record_tie_breaks_to_first(self):
        records = [_StubRecord("a", 1.0, 0.9), _StubRecord("b", 2.0, 0.9)]
        assert best_record(records, "fidelity") is records[0]
        assert best_record(records, "runtime") is records[0]

    def test_real_records_frontier(self, mini_space, mini_circuits):
        records = DSERunner(mini_space, circuits=mini_circuits).evaluate_space()
        frontier = pareto_frontier(records)
        assert frontier
        durations = [record.duration_seconds for record in frontier]
        fidelities = [record.fidelity for record in frontier]
        assert durations == sorted(durations)
        assert fidelities == sorted(fidelities)
