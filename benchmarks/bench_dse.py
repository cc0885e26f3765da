"""Search-quality benchmark of the adaptive and multi-objective strategies.

The measure is an evaluation count: how many design points each strategy
evaluates before it reaches what the exhaustive grid finds.  The times
recorded beside it are single samples, for context; performance claims are
measured with ``perfbench/``.

The adaptive subsystem records ``data/BENCH_adaptive.json``:
evaluations-to-best versus the exhaustive grid for the surrogate-guided
strategies, the pure proposer overhead per batch (model fitting +
acquisition scoring, no simulation), and the incremental-reload cost of a
progress tick against a populated store.

The multi-objective subsystem records ``data/BENCH_moo.json``:
evaluations-to-frontier versus the exhaustive grid for EHVI and ParEGO
(how many evaluations until the archive equals the grid's true Pareto
frontier), the pure EHVI proposer overhead per batch, and the exact
hypervolume cost per frontier point (2-D and 3-D).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_dse.py -s -q

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

from repro.dse import DSERunner, DesignSpace, ExperimentStore


def _space_and_suite():
    suite = bench_suite()
    topology = "L6" if bench_scale() == "paper" else "L4"
    space = DesignSpace(apps=tuple(suite), topologies=(topology,),
                        capacities=tuple(bench_capacities()),
                        gates=("AM1", "FM"), reorders=("GS",))
    return space, suite


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
    sys.exit(pytest.main([__file__, "-s", "-q"]))
