#!/usr/bin/env python3
"""Multi-objective DSE: searching the Pareto frontier directly.

The paper's central result is a *trade-off* -- trap capacity, gate
implementation and topology balance gate fidelity against shuttling and
runtime overhead -- and Figures 6-8 read their answers off that frontier.
The scalar strategies (grid/greedy/bayes/...) optimise one number, so the
frontier could previously only be recovered by exhaustive sweeps.  The
``repro.dse.moo`` subsystem searches it directly: an expected-hypervolume-
improvement proposer (``--strategy ehvi``, one surrogate per objective)
and a seeded random-weight Chebyshev scalarization baseline
(``--strategy parego``), both deterministic under a fixed seed, serial
or distributed over propose/evaluate workers (``dse dispatch``, or ``dse
run --jobs N``).

Quickstart (default mode)::

    python examples/dse_moo.py

runs the exhaustive grid on a Figure 8-style space (capacity sweep x 4
gate implementations for a 16-qubit QFT), extracts its true
(fidelity, runtime) frontier, then runs EHVI and ParEGO on the same space
and reports how many evaluations each needed to recover the frontier and
how much hypervolume each accumulated per batch.

Smoke mode (the second step of the ``adaptive-smoke`` CI job)::

    python examples/dse_moo.py --smoke

asserts the subsystem's two headline guarantees end to end, exiting
non-zero on any failure:

1. **Frontier recovery**: seeded ``ehvi`` recovers the exhaustive grid's
   *exact* Pareto frontier using fewer than half of the grid's
   evaluations.
2. **Distributed determinism**: the same strategy dispatched over 3
   propose/evaluate workers -- one SIGKILLed mid-batch, its proposal lease
   reclaimed through expiry -- completes and exports **byte-identically**
   to the serial run.
"""

import argparse
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.cli import main as repro_main
from repro.dse import (
    DesignSpace,
    Dispatcher,
    DSERunner,
    ExperimentStore,
    make_strategy,
    record_frontier,
    records_hypervolume,
)

#: The Figure 8-style space: trap capacity x gate implementation for a
#: 16-qubit QFT on a 3-trap linear device.  24 points whose
#: (fidelity, runtime) frontier has three members: large traps shuttle
#: least (best fidelity) but slow their gates, so capacity trades
#: reliability against runtime.
SPACE = dict(apps=("QFT",), qubits=(16,), topologies=("L3",),
             capacities=(6, 8, 10, 12, 14, 16),
             gates=("AM1", "AM2", "PM", "FM"))

#: The objective vector of the paper's headline trade-off.
OBJECTIVES = ("fidelity", "runtime")

#: The pinned EHVI configuration the smoke test asserts: 9 evaluations
#: (under half of the 24-point grid) recovering the exact 3-point frontier.
EHVI = dict(seed=9, batch_size=3, max_evals=9)


def frontier_key(records):
    """Order-free identity of a frontier (set of architecture tuples)."""

    return sorted((row["application"], row["topology"], row["capacity"],
                   row["gate"], row["reorder"], row["buffer"])
                  for row in (record.as_row() for record in records))


def export_bytes(store_dir: Path, output: Path) -> bytes:
    """Canonical ``dse export`` of a store, via the real CLI."""

    code = repro_main(["dse", "export", "--store", str(store_dir),
                       "--output", str(output)])
    if code != 0:
        raise SystemExit(f"export of {store_dir} failed with exit code {code}")
    return output.read_bytes()


def quickstart(workdir: Path) -> None:
    space = DesignSpace(**SPACE)
    print(f"Design space: {space.size} points (Figure 8-style, 16 qubits)\n")

    grid_runner = DSERunner(space, store=ExperimentStore(workdir / "grid"))
    grid = grid_runner.run(make_strategy("grid"))
    true_frontier = record_frontier(grid.evaluated, OBJECTIVES)
    hv = records_hypervolume(grid.evaluated, OBJECTIVES)
    print(f"grid   : {grid_runner.stats['evaluated']:3d} evaluations -> "
          f"{len(true_frontier)}-point frontier, hypervolume {hv:.6f}")
    for record in true_frontier:
        row = record.as_row()
        print(f"         cap{row['capacity']:2d} {row['gate']:3s} "
              f"fidelity {row['fidelity']:.4e}  runtime {row['duration_s']:.4f} s")

    for name, kwargs in (("ehvi", EHVI),
                         ("parego", dict(seed=4, batch_size=3, max_evals=12))):
        runner = DSERunner(space, store=ExperimentStore(workdir / name))
        result = runner.run(make_strategy(name, objectives=OBJECTIVES, **kwargs))
        recovered = frontier_key(result.frontier) == frontier_key(true_frontier)
        print(f"\n{name:7s}: {runner.stats['evaluated']:3d} evaluations -> "
              f"{len(result.frontier)}-point frontier "
              f"({'the exact grid frontier' if recovered else 'a partial frontier'})")
        for entry in result.trace:
            print(f"         batch {entry['batch']}: {entry['evaluations']:2d} "
                  f"evals, frontier {entry['frontier']}, "
                  f"hypervolume {entry['hypervolume']:.6f}")

    print("\nDistribute the same search with:")
    print("  python -m repro dse dispatch --apps QFT --qubits 16 "
          "--topologies L3 \\\n      --capacities 6,8,10,12,14,16 "
          "--gates AM1,AM2,PM,FM \\\n      --strategy ehvi --objectives "
          "fidelity,runtime --store runs/moo --workers 3")
    print("Inspect the frontier with:  python -m repro dse pareto "
          "--store runs/moo \\\n      --objectives fidelity,runtime "
          "--hypervolume --output cloud.csv")


def smoke(workdir: Path) -> int:
    """CI scenario: frontier recovery + kill-one-worker distributed identity."""

    space = DesignSpace(**SPACE)

    # --- 1. Grid golden: the true Pareto frontier. ------------------------ #
    print(f"[smoke] exhaustive grid over {space.size} points...")
    grid_runner = DSERunner(space, store=ExperimentStore(workdir / "grid"))
    grid = grid_runner.run(make_strategy("grid"))
    true_frontier = frontier_key(record_frontier(grid.evaluated, OBJECTIVES))
    print(f"[smoke] true (fidelity, runtime) frontier: "
          f"{len(true_frontier)} points")

    # --- 2. Serial EHVI run: exact frontier with < half the evaluations. -- #
    serial_store = workdir / "serial"
    with ExperimentStore(serial_store) as store:
        runner = DSERunner(space, store=store)
        result = runner.run(make_strategy("ehvi", objectives=OBJECTIVES,
                                          **EHVI))
    evaluations = runner.stats["evaluated"]
    if evaluations >= space.size // 2:
        print(f"[smoke] FAIL: ehvi used {evaluations} evaluations, not "
              f"under half of the grid ({space.size // 2})")
        return 1
    if frontier_key(result.frontier) != true_frontier:
        print(f"[smoke] FAIL: ehvi frontier {frontier_key(result.frontier)} "
              f"!= grid frontier {true_frontier}")
        return 1
    print(f"[smoke] OK: ehvi(seed={EHVI['seed']}) recovered the exact "
          f"{len(true_frontier)}-point frontier with {evaluations}/"
          f"{space.size} evaluations")
    golden = export_bytes(serial_store, workdir / "serial.json")

    # --- 3. Distributed propose/evaluate with one worker SIGKILLed. ------- #
    import threading

    from repro.dse import run_proposer

    store_dir = workdir / "dispatched"
    strategy = dict(name="ehvi", objectives=list(OBJECTIVES), parts=3, **EHVI)
    # Short TTL + per-heartbeat throttle widen the kill window: the victim
    # dies while its proposal part is leased but not yet done, so a
    # survivor must take the lease over through expiry.
    dispatcher = Dispatcher(space, store_dir, strategy=strategy, workers=3,
                            ttl_s=1.5, throttle_s=0.3, poll_s=0.05,
                            max_respawns=0)
    dispatcher.prepare()
    procs = [dispatcher.spawn_worker() for _ in range(3)]
    victim = procs[0]
    killed_holding = []

    def watch_and_kill():
        suffix = f"pid{victim.pid}"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for name in dispatcher.ledger.work_names():
                owner = dispatcher.ledger.owner_of(name)
                if owner and owner.endswith(suffix):
                    killed_holding.append(name)
            if killed_holding:
                victim.send_signal(signal.SIGKILL)
                victim.wait()
                return
            time.sleep(0.01)

    try:
        killer = threading.Thread(target=watch_and_kill)
        killer.start()
        # The proposer runs in this process while the killer watches; it
        # blocks until every batch is evaluated and the run is complete.
        summary = run_proposer(store_dir, poll_s=0.05)
        killer.join(timeout=60.0)
        deadline = time.monotonic() + 60.0
        for proc in procs[1:]:  # survivors exit once everything is done
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not killed_holding:
        print("[smoke] FAIL: victim worker never claimed a proposal lease")
        return 1
    print(f"[smoke] SIGKILLed worker {victim.pid} holding "
          f"{sorted(set(killed_holding))}")
    if not dispatcher.ledger.all_done():
        print("[smoke] FAIL: dispatched run did not complete every proposal")
        return 1
    for name in set(killed_holding):
        if dispatcher.ledger.status_of(name)[0] != "done":
            print(f"[smoke] FAIL: victim's proposal {name} was never "
                  f"reclaimed and finished")
            return 1
    frontier = summary.get("frontier") or []
    print(f"[smoke] dispatched run complete: {summary['evaluations']} "
          f"evaluations over {summary['batches']} batches, "
          f"{len(frontier)}-point frontier, victim's lease(s) reclaimed")

    dispatched = export_bytes(store_dir, workdir / "dispatched.json")
    if dispatched != golden:
        print("[smoke] FAIL: dispatched export differs from the serial "
              "ehvi export")
        return 1
    print(f"[smoke] OK: dispatched export is byte-identical to the serial "
          f"run ({len(golden)} bytes)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI assertion mode: frontier recovery + "
                             "kill-one-worker distributed determinism; "
                             "exits non-zero on any failure")
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="dse_moo_"))
    try:
        if args.smoke:
            return smoke(workdir)
        quickstart(workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
