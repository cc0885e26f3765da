"""DSE subsystem benchmark: store-routed sweeps, resume, and frontiers.

Measures what the exploration layer costs and what it buys, and records the
numbers in ``data/BENCH_dse.json`` so the trajectory is tracked per-PR:

1. **Cold grid run** through a persistent store versus the same points via
   the bare sweep executor -- the store's overhead must stay a small
   fraction of the pipeline time.
2. **Resume**: re-running the space against the populated store must
   recompute nothing and replay orders of magnitude faster than computing.
3. **Store load**: reopening the JSONL directory (the resume startup cost).
4. **Pareto frontier** extraction over every stored record.

The adaptive subsystem gets its own artefact, ``data/BENCH_adaptive.json``:
evaluations-to-best versus the exhaustive grid for the surrogate-guided
strategies, the pure proposer overhead per batch (model fitting +
acquisition scoring, no simulation), and the incremental-reload cost of a
progress tick against a populated store.

The multi-objective subsystem records ``data/BENCH_moo.json``:
evaluations-to-frontier versus the exhaustive grid for EHVI and ParEGO
(how many evaluations until the archive equals the grid's true Pareto
frontier), the pure EHVI proposer overhead per batch, and the exact
hypervolume cost per frontier point (2-D and 3-D).

Default scale is small; set ``REPRO_BENCH_SCALE=paper`` for the full Table II
suite over the paper's capacity sweep.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import pytest

from _common import bench_capacities, bench_scale, bench_suite, record_bench

from repro.dse import DSERunner, DesignSpace, ExperimentStore, pareto_frontier
from repro.toolflow.parallel import ProgramCache, SweepTask, execute_task


def _space_and_suite():
    suite = bench_suite()
    topology = "L6" if bench_scale() == "paper" else "L4"
    space = DesignSpace(apps=tuple(suite), topologies=(topology,),
                        capacities=tuple(bench_capacities()),
                        gates=("AM1", "FM"), reorders=("GS",))
    return space, suite


def test_dse_store_routed_sweep(benchmark):
    """Cold store-routed run vs. the bare executor; then a pure replay."""

    space, suite = _space_and_suite()
    points = list(space.points())

    # Bare executor reference: the same points, no store, no fingerprints.
    def bare():
        cache = ProgramCache()
        return [record for p in points
                for record in execute_task(SweepTask(suite[p.app], p.config),
                                           cache)]

    start = time.perf_counter()
    bare_records = bare()
    bare_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        start = time.perf_counter()
        with ExperimentStore(store_dir) as store:
            runner = DSERunner(space, store=store, circuits=suite)
            records = runner.evaluate_space()
        cold_s = time.perf_counter() - start
        assert len(records) == len(bare_records) == space.size

        start = time.perf_counter()
        reopened = ExperimentStore(store_dir)
        load_s = time.perf_counter() - start

        start = time.perf_counter()
        resumer = DSERunner(space, store=reopened, circuits=suite)
        replayed = resumer.evaluate_space()
        resume_s = time.perf_counter() - start
        assert resumer.stats["evaluated"] == 0, "resume must recompute nothing"
        assert [r.as_row() for r in replayed] == [r.as_row() for r in records]

        start = time.perf_counter()
        frontier = pareto_frontier(reopened.records())
        pareto_s = time.perf_counter() - start
        assert frontier

    overhead = (cold_s - bare_s) / bare_s if bare_s > 0 else 0.0
    print()
    print(f"DSE store-routed sweep (scale={bench_scale()}, {space.size} points):")
    print(f"  bare executor        : {bare_s:8.3f} s")
    print(f"  cold via store       : {cold_s:8.3f} s   "
          f"({100 * overhead:+.1f}% store overhead)")
    print(f"  store reload         : {load_s * 1e3:8.1f} ms ({space.size} rows)")
    print(f"  resume (full replay) : {resume_s * 1e3:8.1f} ms   "
          f"({cold_s / resume_s:.0f}x faster than computing)")
    print(f"  pareto frontier      : {pareto_s * 1e3:8.1f} ms "
          f"({len(frontier)} frontier points)")
    record_bench("dse", "store_routed_sweep", {
        "points": space.size,
        "bare_s": bare_s,
        "cold_s": cold_s,
        "store_overhead_fraction": overhead,
        "store_load_s": load_s,
        "resume_s": resume_s,
        "pareto_s": pareto_s,
        "frontier_points": len(frontier),
    })
    assert resume_s < cold_s, "replay should be cheaper than computing"

    benchmark.pedantic(
        lambda: DSERunner(space, circuits=suite).evaluate_space(),
        rounds=2, iterations=1)


def test_dse_strategy_costs():
    """Evaluated-point counts per strategy (the work adaptivity saves)."""

    from repro.dse import CoordinateDescent, ExhaustiveGrid, RandomSampling

    space, suite = _space_and_suite()
    counts = {}
    timings = {}
    for name, strategy in (
            ("grid", ExhaustiveGrid()),
            ("random", RandomSampling(max(2, space.size // 4), seed=0)),
            ("greedy", CoordinateDescent(seed=0))):
        runner = DSERunner(space, circuits=suite)
        start = time.perf_counter()
        runner.run(strategy)
        timings[name] = time.perf_counter() - start
        counts[name] = runner.stats["evaluated"]

    print()
    print(f"Strategy costs (scale={bench_scale()}, grid = {space.size} points):")
    for name in counts:
        print(f"  {name:8s} {counts[name]:5d} points evaluated "
              f"in {timings[name]:6.3f} s")
    record_bench("dse", "strategy_costs",
                 {name: {"evaluated": counts[name], "wall_s": timings[name]}
                  for name in counts})
    assert counts["greedy"] <= counts["grid"]


def test_dse_adaptive_search():
    """Adaptive strategies: evaluations-to-best vs grid, proposer overhead."""

    from repro.dse import objective_value
    from repro.dse.adaptive.propose import BayesProposer

    space, suite = _space_and_suite()

    grid_runner = DSERunner(space, circuits=suite)
    start = time.perf_counter()
    grid = grid_runner.run()
    grid_s = time.perf_counter() - start
    grid_best = grid.best.as_row()

    # Drive the bayes proposer by hand so propose time (model fitting +
    # acquisition scoring) separates cleanly from evaluation time.
    proposer = BayesProposer(space, seed=5, batch_size=3)
    runner = DSERunner(space, circuits=suite)
    propose_s = 0.0
    evaluate_s = 0.0
    batches = 0
    evals_to_best = None
    while True:
        start = time.perf_counter()
        batch = proposer.next_batch()
        propose_s += time.perf_counter() - start
        if batch is None:
            break
        start = time.perf_counter()
        records = runner.evaluate(list(batch.points))
        evaluate_s += time.perf_counter() - start
        start = time.perf_counter()
        proposer.ingest(batch, [objective_value(r, "fidelity")
                                for r in records])
        propose_s += time.perf_counter() - start
        batches += 1
        if evals_to_best is None and any(
                record.as_row() == grid_best for record in records):
            evals_to_best = proposer.evaluations
    found_best = evals_to_best is not None

    # Incremental-reload cost of one progress tick against the populated
    # grid store (the adaptive proposer's ingest loop pays exactly this).
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        with ExperimentStore(store_dir) as store:
            DSERunner(space, store=store, circuits=suite).evaluate_space()
        watcher = ExperimentStore(store_dir)
        start = time.perf_counter()
        for _ in range(100):
            watcher.reload()
        tick_s = (time.perf_counter() - start) / 100

    print()
    print(f"Adaptive search (scale={bench_scale()}, grid = {space.size} points):")
    print(f"  grid                 : {space.size:4d} evaluations "
          f"in {grid_s:6.3f} s")
    print(f"  bayes (seed 5)       : {proposer.evaluations:4d} evaluations "
          f"in {evaluate_s:6.3f} s"
          + (f", grid best found after {evals_to_best}" if found_best
             else ", grid best NOT found"))
    print(f"  proposer overhead    : {propose_s * 1e3:8.2f} ms total, "
          f"{propose_s / batches * 1e3:6.2f} ms/batch ({batches} batches)")
    print(f"  reload tick (no new) : {tick_s * 1e6:8.1f} us over "
          f"{space.size} stored rows")
    record_bench("adaptive", "search_efficiency", {
        "grid_points": space.size,
        "grid_s": grid_s,
        "bayes_evaluations": proposer.evaluations,
        "bayes_evaluate_s": evaluate_s,
        "bayes_found_grid_best": found_best,
        "bayes_evals_to_best": evals_to_best,
        "proposer_overhead_s": propose_s,
        "proposer_overhead_per_batch_s": propose_s / batches,
        "batches": batches,
        "reload_tick_s": tick_s,
    })
    assert proposer.evaluations <= space.size
    assert batches > 0


def test_dse_moo_frontier_search():
    """MOO strategies: evals-to-frontier vs grid, hypervolume cost/point."""

    from repro.dse import objective_vector, record_frontier
    from repro.dse.moo import EHVIProposer, ParEGOProposer, hypervolume

    space, suite = _space_and_suite()
    objectives = ("fidelity", "runtime")

    grid_runner = DSERunner(space, circuits=suite)
    start = time.perf_counter()
    grid = grid_runner.run()
    grid_s = time.perf_counter() - start
    true_frontier = {
        tuple(sorted(record.as_row().items()))
        for record in record_frontier(grid.evaluated, objectives)}

    def frontier_of(records):
        return {tuple(sorted(record.as_row().items()))
                for record in record_frontier(records, objectives)}

    summary = {}
    for label, proposer in (
            ("ehvi", EHVIProposer(space, seed=7, batch_size=3)),
            ("parego", ParEGOProposer(space, seed=7, batch_size=3))):
        runner = DSERunner(space, circuits=suite)
        propose_s = 0.0
        evaluate_s = 0.0
        batches = 0
        all_records = []
        evals_to_frontier = None
        while True:
            start = time.perf_counter()
            batch = proposer.next_batch()
            propose_s += time.perf_counter() - start
            if batch is None:
                break
            start = time.perf_counter()
            records = runner.evaluate(list(batch.points))
            evaluate_s += time.perf_counter() - start
            all_records.extend(records)
            start = time.perf_counter()
            proposer.ingest(batch, [objective_vector(r, objectives)
                                    for r in records])
            propose_s += time.perf_counter() - start
            batches += 1
            if evals_to_frontier is None and \
                    frontier_of(all_records) == true_frontier:
                evals_to_frontier = proposer.evaluations
        summary[label] = {
            "evaluations": proposer.evaluations,
            "evals_to_frontier": evals_to_frontier,
            "found_frontier": evals_to_frontier is not None,
            "batches": batches,
            "proposer_overhead_s": propose_s,
            "proposer_overhead_per_batch_s": propose_s / batches,
            "evaluate_s": evaluate_s,
        }

    # Exact hypervolume cost per frontier point: the full grid cloud in
    # 2-D (the sweep) and 3-D (the WFG recursion).
    hv_costs = {}
    for dim_label, objs in (("2d", ("fidelity", "runtime")),
                            ("3d", ("fidelity", "runtime",
                                    "shuttles_per_2q"))):
        vectors = [objective_vector(r, objs) for r in grid.evaluated]
        reference = tuple(min(v[d] for v in vectors) - 1.0
                          for d in range(len(objs)))
        start = time.perf_counter()
        rounds = 50
        for _ in range(rounds):
            value = hypervolume(vectors, reference)
        per_call = (time.perf_counter() - start) / rounds
        hv_costs[dim_label] = {
            "points": len(vectors),
            "hypervolume": value,
            "wall_s_per_call": per_call,
            "wall_s_per_point": per_call / len(vectors),
        }

    print()
    print(f"Multi-objective search (scale={bench_scale()}, "
          f"grid = {space.size} points, frontier = {len(true_frontier)}):")
    print(f"  grid                 : {space.size:4d} evaluations "
          f"in {grid_s:6.3f} s")
    for label, stats in summary.items():
        found = (f"frontier recovered after {stats['evals_to_frontier']}"
                 if stats["found_frontier"] else "frontier NOT recovered")
        print(f"  {label:21s}: {stats['evaluations']:4d} evaluations "
              f"in {stats['evaluate_s']:6.3f} s, {found}; "
              f"proposer {stats['proposer_overhead_per_batch_s'] * 1e3:6.2f} "
              f"ms/batch")
    for dim_label, stats in hv_costs.items():
        print(f"  hypervolume {dim_label}       : "
              f"{stats['wall_s_per_call'] * 1e6:8.1f} us/call over "
              f"{stats['points']} points "
              f"({stats['wall_s_per_point'] * 1e6:6.2f} us/point)")
    record_bench("moo", "frontier_search", {
        "grid_points": space.size,
        "grid_s": grid_s,
        "true_frontier_points": len(true_frontier),
        "strategies": summary,
        "hypervolume": hv_costs,
    })
    for stats in summary.values():
        assert stats["evaluations"] <= space.size
        assert stats["batches"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q", "--benchmark-disable"]))
