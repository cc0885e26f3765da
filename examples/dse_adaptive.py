#!/usr/bin/env python3
"""Adaptive model-based search: surrogate-guided DSE in a fraction of the grid.

The paper's design-space studies answer "which architecture maximises
fidelity?" by sweeping the full grid (Figure 8: gate implementation x trap
capacity).  The adaptive subsystem answers the same question with a
fraction of the evaluations: a surrogate model (random-Fourier-feature
ridge regression or a bagged tree ensemble) is trained online on every
evaluated point, and an expected-improvement acquisition proposes the next
batch.  Everything is deterministic under a fixed seed -- serial *and*
distributed propose/evaluate runs, where workers lease signed proposal
batches off a ledger inside the store directory (``dse dispatch``, or
``dse run --jobs N`` with N local workers), propose the same points.

Quickstart (default mode)::

    python examples/dse_adaptive.py

runs the exhaustive grid on a Figure 8-style space (2 apps x 3 capacities
x 4 gates at 16 qubits), then Bayesian optimization (``--strategy bayes``)
and the surrogate-ranked multi-fidelity ladder (``adaptive-halving``) on
the same space, and reports how many evaluations each needed to find the
grid's best point.

Smoke mode (used by CI)::

    python examples/dse_adaptive.py --smoke

asserts the subsystem's two headline guarantees end to end, exiting
non-zero on any failure:

1. **Sample efficiency**: seeded ``bayes`` reaches the exhaustive grid's
   best point using at most a quarter of the grid's evaluations.
2. **Distributed determinism**: the same strategy dispatched over 3
   propose/evaluate workers -- one SIGKILLed mid-batch, its proposal lease
   reclaimed through expiry -- completes and exports **byte-identically**
   to the serial adaptive run.
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
)

#: The Figure 8-style space: gate implementation x trap capacity for QFT and
#: BV at 16 qubits on a 3-trap linear device.  24 points.
SPACE = dict(apps=("QFT", "BV"), qubits=(16,), topologies=("L3",),
             capacities=(6, 8, 10), gates=("AM1", "AM2", "PM", "FM"))

#: The pinned adaptive configuration the smoke test asserts: 6 evaluations
#: (exactly a quarter of the 24-point grid) finding the grid's best point.
BAYES = dict(seed=3, batch_size=3)


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
    best = grid.best.as_row()
    print(f"grid             : {grid_runner.stats['evaluated']:3d} evaluations "
          f"-> best {best['application']} cap{best['capacity']} {best['gate']} "
          f"(fidelity {best['fidelity']:.4e})")

    for name, kwargs in (("bayes", BAYES),
                         ("adaptive-halving", dict(seed=0, proxy_qubits=8))):
        runner = DSERunner(space, store=ExperimentStore(workdir / name))
        result = runner.run(make_strategy(name, **kwargs))
        row = result.best.as_row()
        found = "the grid best" if row == best else "a different point"
        print(f"{name:17s}: {runner.stats['evaluated']:3d} evaluations "
              f"-> best {row['application']} cap{row['capacity']} "
              f"{row['gate']} (fidelity {row['fidelity']:.4e}, {found})")
        for entry in result.trace:
            print(f"                   {entry}")

    print("\nDistribute the same search with:")
    print("  python -m repro dse dispatch --apps QFT,BV --qubits 16 "
          "--topologies L3 \\\n      --capacities 6,8,10 --gates AM1,AM2,PM,FM "
          "--strategy bayes --store runs/study --workers 3")
    print("Inspect provenance with:  python -m repro dse status "
          "--store runs/study --by-strategy")


def smoke(workdir: Path) -> int:
    """CI scenario: sample efficiency + kill-one-worker distributed identity."""

    space = DesignSpace(**SPACE)

    # --- 1. Grid golden: the true best point. ----------------------------- #
    print(f"[smoke] exhaustive grid over {space.size} points...")
    grid_runner = DSERunner(space, store=ExperimentStore(workdir / "grid"))
    grid_best = grid_runner.run(make_strategy("grid")).best.as_row()

    # --- 2. Serial adaptive run: finds it with <= 1/4 the evaluations. ---- #
    serial_store = workdir / "serial"
    with ExperimentStore(serial_store) as store:
        runner = DSERunner(space, store=store)
        result = runner.run(make_strategy("bayes", **BAYES))
    evaluations = runner.stats["evaluated"]
    budget = space.size // 4
    print(f"[smoke] bayes(seed={BAYES['seed']}) evaluated {evaluations} of "
          f"{space.size} points (budget {budget})")
    if evaluations > budget:
        print(f"[smoke] FAIL: adaptive run used {evaluations} evaluations, "
              f"more than a quarter of the grid ({budget})")
        return 1
    if result.best.as_row() != grid_best:
        print(f"[smoke] FAIL: adaptive best {result.best.as_row()} != "
              f"grid best {grid_best}")
        return 1
    print(f"[smoke] OK: adaptive search found the grid best "
          f"({grid_best['application']} cap{grid_best['capacity']} "
          f"{grid_best['gate']}) with {evaluations}/{space.size} evaluations")
    golden = export_bytes(serial_store, workdir / "serial.json")

    # --- 3. Distributed propose/evaluate with one worker SIGKILLed. ------- #
    import threading

    from repro.dse import run_proposer

    store_dir = workdir / "dispatched"
    strategy = dict(name="bayes", metric="fidelity", parts=3, **BAYES)
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
    print(f"[smoke] dispatched run complete: {summary['evaluations']} "
          f"evaluations over {summary['batches']} batches, victim's "
          f"lease(s) reclaimed")
    # The fleet view plans a finished adaptive run's points as its stored
    # rows, never the grid: done, planned and evaluated agree.
    progress = dispatcher.progress()
    if not (progress["points_done"] == progress["points_total"]
            == summary["evaluations"] and progress["points_pending"] == 0):
        print(f"[smoke] FAIL: fleet view reads {progress['points_done']}/"
              f"{progress['points_total']} points "
              f"({progress['points_pending']} pending) after "
              f"{summary['evaluations']} evaluations")
        return 1
    print(f"[smoke] OK: fleet view reads {progress['points_done']}/"
          f"{progress['points_total']} points, 0 pending")

    dispatched = export_bytes(store_dir, workdir / "dispatched.json")
    if dispatched != golden:
        print("[smoke] FAIL: dispatched export differs from the serial "
              "adaptive export")
        return 1
    print(f"[smoke] OK: dispatched export is byte-identical to the serial "
          f"run ({len(golden)} bytes)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI assertion mode: sample efficiency + "
                             "kill-one-worker distributed determinism; "
                             "exits non-zero on any failure")
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="dse_adaptive_"))
    try:
        if args.smoke:
            return smoke(workdir)
        quickstart(workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
