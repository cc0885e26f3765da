"""Tests for the parallel sweep executor and the compiled-program cache."""

from __future__ import annotations

import pytest

from repro.dse import DSERunner
from repro.io.fingerprint import result_fingerprint
from repro.toolflow import ArchitectureConfig, ProgramCache, SweepTask
from repro.toolflow.parallel import execute_task
from repro.toolflow.runner import run_experiment, run_gate_variants
from repro.toolflow.sweep import microarchitecture_space


def _record_identity(record):
    return (record.application, record.config, record.program_size,
            record.num_shuttles, result_fingerprint(record.result))


def _stats(hits=0, misses=0, entries=0, batch_plans=0, batch_plan_reuses=0,
           batch_variants=0, batch_timelines=0, batch_timeline_hits=0):
    """Expected ``ProgramCache.stats()`` dictionary."""

    return {"hits": hits, "misses": misses, "entries": entries,
            "batch_plans": batch_plans, "batch_plan_reuses": batch_plan_reuses,
            "batch_variants": batch_variants, "batch_timelines": batch_timelines,
            "batch_timeline_hits": batch_timeline_hits}


class TestProgramCache:
    def test_miss_then_hit(self, qft8, small_config):
        cache = ProgramCache()
        program_a, _ = cache.get_or_compile(qft8, small_config)
        program_b, _ = cache.get_or_compile(qft8, small_config)
        assert program_a is program_b
        assert cache.stats() == _stats(hits=1, misses=1, entries=1)

    def test_gate_not_part_of_key(self, qft8, small_config):
        """AM1/FM configs share one compilation; devices carry each gate."""

        cache = ProgramCache()
        program_a, device_a = cache.get_or_compile(qft8, small_config.with_updates(gate="AM1"))
        program_b, device_b = cache.get_or_compile(qft8, small_config.with_updates(gate="FM"))
        assert program_a is program_b
        assert cache.hits == 1 and cache.misses == 1
        assert device_a.gate.value == "AM1"
        assert device_b.gate.value == "FM"

    def test_compile_relevant_knobs_are_keyed(self, qft8, small_config):
        cache = ProgramCache()
        cache.get_or_compile(qft8, small_config)
        cache.get_or_compile(qft8, small_config.with_updates(trap_capacity=8))
        cache.get_or_compile(qft8, small_config.with_updates(reorder="IS"))
        assert cache.stats() == _stats(misses=3, entries=3)

    def test_hit_carries_requested_physical_model(self, qft8, small_config):
        """A cache hit must simulate under the *requested* model parameters.

        The model is excluded from the key (it never affects compilation),
        so the hit path has to swap it onto the returned device.
        """

        from dataclasses import replace

        hot_heating = replace(small_config.model.heating, k1=1.0)
        hot_config = small_config.with_updates(
            model=replace(small_config.model, heating=hot_heating))
        cache = ProgramCache()
        cold_direct = run_experiment(qft8, small_config)
        hot_direct = run_experiment(qft8, hot_config)
        cache.get_or_compile(qft8, small_config)  # prime with the cold model
        hot_cached = execute_task(SweepTask(qft8, hot_config), cache)[0]
        assert cache.hits == 1
        assert result_fingerprint(hot_cached.result) == result_fingerprint(hot_direct.result)
        assert result_fingerprint(hot_cached.result) != result_fingerprint(cold_direct.result)

    def test_cached_record_matches_direct_run(self, qft8, small_config):
        cache = ProgramCache()
        direct = run_experiment(qft8, small_config)
        cache.get_or_compile(qft8, small_config)  # prime
        via_cache = execute_task(SweepTask(qft8, small_config), cache)[0]
        assert cache.hits == 1
        assert _record_identity(direct) == _record_identity(via_cache)


class TestSweepTaskExecution:
    def test_single_point_matches_run_experiment(self, qaoa8, small_config):
        direct = run_experiment(qaoa8, small_config)
        via_task = execute_task(SweepTask(qaoa8, small_config), ProgramCache())[0]
        assert _record_identity(direct) == _record_identity(via_task)

    def test_gate_fanout_matches_run_gate_variants(self, qft8, small_config):
        gates = ("AM1", "PM", "FM")
        direct = list(run_gate_variants(qft8, small_config, gates=gates).values())
        via_task = execute_task(SweepTask(qft8, small_config, gates=gates),
                                ProgramCache())
        assert [_record_identity(r) for r in direct] == \
               [_record_identity(r) for r in via_task]


class _FakeClock:
    """Deterministic ``perf_counter`` stand-in: each call advances by 1.0."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


class TestWallClockAccounting:
    """``wall_s`` must equal the record's compile share plus its sim share.

    The timing calls are replaced with a fake counter that advances one
    second per call, so each measured interval is exactly 1.0 and the
    apportioning arithmetic can be pinned without real-time flakiness.
    """

    def test_single_point_wall_is_compile_plus_sim(self, qft8, small_config,
                                                   monkeypatch):
        monkeypatch.setattr("repro.toolflow.parallel.perf_counter", _FakeClock())
        record = execute_task(SweepTask(qft8, small_config), ProgramCache())[0]
        # One interval for compile, one for simulate.
        assert record.wall_s == 2.0

    def test_single_point_wall_on_cache_hit(self, qft8, small_config,
                                            monkeypatch):
        cache = ProgramCache()
        cache.get_or_compile(qft8, small_config)  # prime: the task will hit
        monkeypatch.setattr("repro.toolflow.parallel.perf_counter", _FakeClock())
        record = execute_task(SweepTask(qft8, small_config), cache)[0]
        assert cache.hits == 1
        # Same accounting identity on the hit path; the compile interval now
        # times only the memo lookup.
        assert record.wall_s == 2.0

    def test_hit_path_is_cheaper_than_miss_path(self, qft8, small_config):
        """Real-clock sanity: a hit's wall_s drops the compile cost."""

        cache = ProgramCache()
        miss = execute_task(SweepTask(qft8, small_config), cache)[0]
        hit = execute_task(SweepTask(qft8, small_config), cache)[0]
        assert cache.stats()["hits"] == 1
        assert 0.0 < hit.wall_s <= miss.wall_s

    def test_batch_fanout_apportions_evenly(self, qft8, small_config,
                                            monkeypatch):
        monkeypatch.setattr("repro.toolflow.parallel.perf_counter", _FakeClock())
        gates = ("AM1", "AM2", "PM", "FM")
        records = execute_task(SweepTask(qft8, small_config, gates=gates),
                               ProgramCache())
        # compile interval 1.0 and one batch interval 1.0, each split 4 ways.
        assert [r.wall_s for r in records] == [0.5] * 4
        assert sum(r.wall_s for r in records) == 2.0


class TestBatchCounters:
    def test_gate_fanout_counts_batch_activity(self, qft8, small_config):
        cache = ProgramCache()
        gates = ("AM1", "AM2", "PM", "FM")
        execute_task(SweepTask(qft8, small_config, gates=gates), cache)
        stats = cache.stats()
        assert stats["batch_plans"] == 1
        assert stats["batch_variants"] == 4
        # Every timeline walk is either built fresh or deduped.
        assert stats["batch_timelines"] + stats["batch_timeline_hits"] == 4
        assert stats["batch_timelines"] >= 1

    def test_plan_reused_across_tasks(self, qft8, small_config):
        cache = ProgramCache()
        task = SweepTask(qft8, small_config, gates=("AM1", "FM"))
        execute_task(task, cache)
        execute_task(task, cache)
        stats = cache.stats()
        assert stats["batch_plans"] == 1
        assert stats["batch_plan_reuses"] == 1
        assert stats["batch_variants"] == 4
        # Second task's timelines come entirely from the plan's dedup cache.
        assert stats["batch_timelines"] == 2
        assert stats["batch_timeline_hits"] == 2


class TestRunTasks:
    @pytest.fixture
    def tasks(self, small_suite, small_config):
        return [
            SweepTask(circuit, small_config.with_updates(trap_capacity=capacity))
            for capacity in (6, 8)
            for circuit in small_suite.values()
        ]

    def test_serial_results_in_task_order(self, tasks):
        cache = ProgramCache()
        per_task = [execute_task(task, cache) for task in tasks]
        assert len(per_task) == len(tasks)
        for task, records in zip(tasks, per_task):
            assert len(records) == 1
            assert records[0].application == task.circuit.name
            assert records[0].config == task.config

    def test_jobs_one_is_graceful_fallback(self, tasks):
        """One process runs every task and honours a shared cache."""

        cache = ProgramCache()
        for task in tasks:
            execute_task(task, cache)
        assert cache.misses == len(tasks)
        for task in tasks:
            execute_task(task, cache)
        assert cache.hits == len(tasks)

    def test_invalid_jobs_rejected(self, capsys):
        """``--jobs`` takes positive integers only."""

        from repro.cli import build_parser

        for argv in (["sweep", "--figure", "8"], ["dse", "run", "--apps", "QFT"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--jobs", "0"])
        capsys.readouterr()


class TestSweepIntegration:
    def test_microarchitecture_cache_hit_counters(self, small_suite):
        """Each (app, capacity, reorder) compiles once and is released once
        its gates are stored; a shared store replays a repeated sweep."""

        from repro.dse.store import CachedResult, ExperimentStore

        base = ArchitectureConfig(topology="L3", trap_capacity=6)
        cache = ProgramCache()
        store = ExperimentStore()

        def sweep(gates, store=None):
            space = microarchitecture_space(small_suite, (6,), gates,
                                            ("GS",), base)
            return DSERunner(space, store=store, circuits=small_suite,
                             cache=cache).evaluate_space()

        def first_sweep():
            return sweep(("AM1", "FM"), store)

        first = first_sweep()
        # Each app's 2-gate fan-out runs through the batch engine: one plan,
        # two variants, two distinct duration vectors (AM1 vs FM never
        # collide), no timeline dedup within the pair.  Both gates of the
        # sweep are then stored, so no compilation stays held.
        assert cache.stats() == _stats(
            misses=len(small_suite), entries=0,
            batch_plans=len(small_suite), batch_variants=2 * len(small_suite),
            batch_timelines=2 * len(small_suite))
        sweep(("PM",))
        # A single-gate point is a fan-out of one gate: one more plan,
        # variant and timeline per app.  The first sweep released its
        # programs, so this one compiles them again.
        assert cache.stats() == _stats(
            misses=2 * len(small_suite), entries=0,
            batch_plans=2 * len(small_suite),
            batch_variants=3 * len(small_suite),
            batch_timelines=3 * len(small_suite))
        # Re-running the first sweep on its store compiles nothing: every
        # point replays from the store.
        again = first_sweep()
        assert cache.misses == 2 * len(small_suite)
        assert all(isinstance(record.result, CachedResult) for record in again)
        assert [record.as_row() for record in again] == \
               [record.as_row() for record in first]
