#!/usr/bin/env python3
"""Design-space exploration quickstart: resumable custom studies.

The paper's contribution is the *design-space study* -- sweeping topology,
trap capacity, gate implementation and communication knobs to find
architectural sweet spots.  This example runs a custom study through the DSE
subsystem:

1. declare a :class:`DesignSpace` (the cross product of sweep axes),
2. evaluate it through a persistent :class:`ExperimentStore` (kill this
   script at any point and re-run it -- completed points replay from disk),
3. compare an adaptive strategy (coordinate descent) against the grid,
4. read off the best point and the fidelity-vs-runtime Pareto frontier.

Run:  python examples/dse_study.py  (store lands in ./dse_study_store/)

The same study, CLI-style (``--jobs 2``: two local work-ledger workers
fill the store, then the run replays it)::

    python -m repro dse run --apps QFT,Adder --qubits 16 \\
        --topologies L4,G2x2 --capacities 6,8,10 --gates AM1,FM \\
        --store dse_study_store --jobs 2
    python -m repro dse pareto --store dse_study_store
"""

from repro.dse import (
    CoordinateDescent,
    DSERunner,
    DesignSpace,
    ExperimentStore,
    pareto_frontier,
)


def main() -> None:
    # 1. The space: 2 apps x 2 topologies x 3 capacities x 2 gates = 24 points.
    space = DesignSpace(
        apps=("QFT", "Adder"),
        qubits=(16,),
        topologies=("L4", "G2x2"),
        capacities=(6, 8, 10),
        gates=("AM1", "FM"),
        reorders=("GS",),
    )
    print(f"Design space: {space.size} points")

    # 2. Exhaustive grid through a persistent store.  Re-running this script
    #    replays every completed point from disk (watch `reused` go up).
    with ExperimentStore("dse_study_store") as store:
        runner = DSERunner(space, store=store)
        records = runner.evaluate_space()
        print(f"Grid: evaluated {runner.stats['evaluated']}, "
              f"replayed {runner.stats['reused']} from the store")

        # 3. An adaptive strategy over the same space costs a fraction of the
        #    grid -- and reuses any point the grid already stored.
        climber = DSERunner(space, store=store)
        result = climber.run(CoordinateDescent(seed=7, metric="fidelity"))
        print(f"Greedy: evaluated {climber.stats['evaluated']} new points, "
              f"replayed {climber.stats['reused']}")

    # 4. Winners.
    best = result.best
    print(f"\nBest point (greedy): {best.application} on {best.config.name}"
          f"  fidelity={best.fidelity:.4e}  runtime={best.duration_seconds:.4f}s")

    print("\nFidelity-vs-runtime Pareto frontier (fastest first):")
    for record in pareto_frontier(records):
        print(f"  {record.application:8s} {record.config.name:18s} "
              f"runtime={record.duration_seconds:.4f}s "
              f"fidelity={record.fidelity:.4e}")


if __name__ == "__main__":
    main()
