"""Command-line interface for the QCCD design toolflow.

The CLI mirrors the Python API for the common workflows so that device
designers can explore configurations without writing scripts::

    python -m repro info
    python -m repro table1
    python -m repro table2
    python -m repro run --app QAOA --topology L6 --capacity 20 --gate FM --reorder GS
    python -m repro sweep --figure 6 --small --output fig6.json
    python -m repro sweep --figure 8 --jobs 2 --store runs/fig8
    python -m repro device --topology G2x3 --capacity 20
    python -m repro check --src src/repro         # determinism linter
    python -m repro check --suite                 # verify the golden suite
    python -m repro run --app QFT --check         # verify every compile

Sweeps share one compiled-program cache per invocation, so design points that
differ only in the two-qubit gate implementation are compiled once (and the
program is released once all of them are stored), and ``--store DIR``
persists every evaluated design point, so an interrupted sweep resumes where
it stopped and points that repeat across figures replay instead of
compiling again.  ``--jobs N`` first fills the store (``--store``, else a
temporary directory) through N local workers of the ``dse dispatch`` work
ledger, then runs the serial sweep, which replays every point: the output
is a serial run's, byte for byte.

Custom design-space studies run through the ``dse`` family (quickstart)::

    # Every point of a space, resumably, 2 local ledger workers:
    python -m repro dse run --apps QFT,BV --qubits 16 --topologies L3,G2x2 \\
        --capacities 6,8,10 --store runs/study --jobs 2

    # The same study split across two machines, then merged by file drop:
    python -m repro dse run ... --store runs/study --shard 1/2
    python -m repro dse run ... --store runs/study --shard 2/2

    # Or let the dispatcher lease shards to worker processes: workers
    # heartbeat their lease, a killed worker's shard is reclaimed by the
    # survivors, and the merged store exports byte-identically to a serial
    # run of the same space:
    python -m repro dse dispatch --apps QFT,BV --capacities 14,18,22 \\
        --store runs/study --workers 3
    python -m repro dse dispatch ... --print-only   # remote machines: run
    python -m repro dse worker --store runs/study   # one of these per host

    # Adaptive search instead of the full grid (surrogate-guided Bayesian
    # optimization finds the best point in a fraction of the evaluations):
    python -m repro dse run --space space.json --store runs/study \\
        --strategy bayes --seed 7 --metric fidelity

    # The same adaptive search distributed: the dispatcher runs the
    # proposer, workers lease signed proposal batches off the store's
    # work ledger -- same best point, byte-identical export:
    python -m repro dse dispatch --apps QFT,BV --capacities 14,18,22 \\
        --store runs/study --strategy bayes --workers 3
    python -m repro dse propose --store runs/study   # remote: proposer
    python -m repro dse worker --store runs/study    # remote: per host

    # Multi-objective: search the Pareto frontier (fidelity x runtime, or
    # any subset of fidelity,runtime,comm_fraction,shuttles_per_2q)
    # directly instead of recovering it from the grid -- also
    # dispatchable, with byte-identical exports:
    python -m repro dse run --space space.json --store runs/study \\
        --strategy ehvi --objectives fidelity,runtime --seed 9

    # Inspect, rank, export:
    python -m repro dse status --store runs/study --eta
    python -m repro dse pareto --store runs/study --app qft16
    python -m repro dse pareto --store runs/study --objectives \\
        fidelity,runtime,shuttles_per_2q --hypervolume --output cloud.csv
    python -m repro dse export --store runs/study --output study.json

Every subcommand prints human-readable text; ``--output`` additionally writes
the underlying data as JSON (via :mod:`repro.io`), creating missing parent
directories and exiting non-zero if the file cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager
from typing import List, Optional

# Only what build_parser needs: each _cmd_* imports the layers it runs, so
# a dispatcher, worker or exporter process starts without the rest.
from repro import __version__
from repro.apps import APPLICATION_NAMES


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="L6",
                        help="device topology name, e.g. L6, G2x3, R8 (default: L6)")
    parser.add_argument("--capacity", type=int, default=20,
                        help="ions per trap (default: 20)")
    parser.add_argument("--gate", default="FM", choices=["AM1", "AM2", "PM", "FM"],
                        help="two-qubit gate implementation (default: FM)")
    parser.add_argument("--reorder", default="GS", choices=["GS", "IS"],
                        help="chain reordering method (default: GS)")
    parser.add_argument("--buffer", type=int, default=2,
                        help="buffer slots per trap for incoming shuttles (default: 2)")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return number


def _point_from_args(args, app: Optional[str] = None):
    """``(circuit, config, device)`` of ``run``, ``device`` and ``check``.

    The circuit is ``app`` at ``--qubits`` (``None`` without an app), the
    device is built for it (or for ``--qubits`` ions).  Input the
    validators refuse exits with one ``error:`` line.
    """

    from repro.apps import build_application
    from repro.toolflow.config import ArchitectureConfig

    try:
        circuit = (build_application(app, num_qubits=args.qubits) if app
                   else None)
        config = ArchitectureConfig(
            topology=args.topology, trap_capacity=args.capacity,
            gate=args.gate, reorder=args.reorder, buffer_ions=args.buffer)
        device = config.build_device(
            circuit.num_qubits if circuit else args.qubits)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return circuit, config, device


def _write_json(payload, path) -> bool:
    """Write ``--output`` JSON; report and return ``False`` on failure.

    Parent directories are created as needed; any OS-level write failure
    (unwritable directory, path component that is a file, disk full, ...)
    is reported on stderr instead of crashing with a traceback, and the
    calling subcommand exits non-zero.
    """

    from repro.io import save_json

    try:
        written = save_json(payload, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"\nWrote JSON to {written}")
    return True


def _write_csv(rows, path) -> bool:
    """Write ``--output`` CSV rows; report and return ``False`` on failure.

    Same hardening as :func:`_write_json`: parent directories are created,
    and any OS-level write failure is reported on stderr so the calling
    subcommand can exit non-zero instead of crashing with a traceback.
    """

    import csv
    from pathlib import Path

    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            if rows:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    if rows:
        print(f"\nWrote CSV to {path}")
    else:
        print(f"\nWrote CSV to {path} (no rows -- the file is empty)")
    return True


def _comma_list(text: str):
    """Parse a comma-separated CLI list, dropping empty items."""

    return tuple(item.strip() for item in text.split(",") if item.strip())


def _comma_ints(text: str):
    items = _comma_list(text)
    try:
        return tuple(int(item) for item in items)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


#: Objective names offered by --metric/--objectives (mirrors
#: repro.dse.pareto.OBJECTIVES without importing the dse package at parser
#: build time).
_OBJECTIVES = ("fidelity", "runtime", "comm_fraction", "shuttles_per_2q")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QCCDSim: design toolflow for QCCD trapped-ion quantum computers",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("info", help="summarise the toolflow and its models")
    subparsers.add_parser("table1", help="print the shuttling operation times (Table I)")

    table2 = subparsers.add_parser("table2", help="print the benchmark suite (Table II)")
    table2.add_argument("--small", action="store_true",
                        help="use the reduced 16-qubit suite")

    run = subparsers.add_parser("run", help="compile and simulate one application")
    run.add_argument("--app", required=True, choices=list(APPLICATION_NAMES),
                     help="application name from Table II")
    run.add_argument("--qubits", type=_positive_int, default=None,
                     help="override the application size (total qubits)")
    run.add_argument("--output", default=None, help="write the result as JSON")
    _add_check_argument(run)
    _add_trace_argument(run)
    _add_profile_argument(run)
    _add_config_arguments(run)

    sweep = subparsers.add_parser("sweep", help="regenerate a figure's data series")
    sweep.add_argument("--figure", required=True, type=int, choices=[6, 7, 8],
                       help="paper figure number to regenerate")
    sweep.add_argument("--small", action="store_true",
                       help="use the reduced suite and a short capacity sweep")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="local ledger workers that fill the store first "
                            "(--store, else a temporary one), which the "
                            "serial sweep then replays; output is identical "
                            "for any value (default: 1 = serial; paper scale "
                            "only, not --small)")
    sweep.add_argument("--store", default=None,
                       help="experiment-store directory: evaluated design points "
                            "persist there and interrupted sweeps resume without "
                            "recomputation")
    sweep.add_argument("--output", default=None, help="write the series as JSON")
    _add_check_argument(sweep, jobs=True)
    _add_trace_argument(sweep)
    _add_profile_argument(sweep)

    _add_dse_parsers(subparsers)

    profile = subparsers.add_parser(
        "profile",
        help="aggregate a recorded span trace into a hierarchical profile",
        description="Read the flat span JSONL a --trace run wrote (pass "
                    "either the OUT.spans.jsonl file or the OUT.json trace "
                    "whose .spans.jsonl sits beside it) and print the "
                    "aggregate profile: self/total time and call-duration "
                    "quantiles per span name, the call tree with self time "
                    "telescoping to the traced wall time, and the critical "
                    "path.  Deterministic: the same trace file always "
                    "renders byte-identically.")
    profile.add_argument("trace", metavar="TRACE",
                         help="a .spans.jsonl file, or the Chrome-trace "
                              ".json written by --trace")
    profile.add_argument("--top", type=_positive_int, default=20,
                         help="rows in the flat table (default: 20)")
    profile.add_argument("--collapsed", default=None, metavar="OUT.TXT",
                         help="additionally write collapsed stacks "
                              "('a;b;c <self_us>' lines) for flamegraph "
                              "tooling")
    profile.add_argument("--output", default=None,
                         help="write the full profile structure as JSON")

    trace = subparsers.add_parser(
        "trace",
        help="distributed-trace utilities over a store's worker streams")
    trace_sub = trace.add_subparsers(dest="trace_command")
    trace_merge = trace_sub.add_parser(
        "merge",
        help="merge the span records of a store's worker streams into one "
             "trace bundle",
        description="Read the span records traced workers flushed to their "
                    "event streams (<store>/telemetry/*.jsonl), skip torn "
                    "or corrupt lines with a warning, and write one "
                    "Perfetto-loadable Chrome trace (plus .spans.jsonl and "
                    ".manifest.json) at OUTPUT.  Deterministic: the same "
                    "span set merges byte-identically regardless of how it "
                    "was split across workers.  A store holding the "
                    "traces/ directory of an older version is refused.")
    trace_merge.add_argument("--store", required=True,
                             help="experiment-store directory of a traced "
                                  "dispatch")
    trace_merge.add_argument("--output", required=True, metavar="OUT.JSON",
                             help="path of the merged Chrome trace")

    device = subparsers.add_parser("device", help="describe a candidate device")
    device.add_argument("--qubits", type=_positive_int, default=None,
                        help="ions to load (default: usable capacity)")
    _add_config_arguments(device)

    check = subparsers.add_parser(
        "check",
        help="static analysis: program verifier, race detector, "
             "determinism linter (docs/static-analysis.md)")
    check.add_argument("--src", nargs="*", default=None, metavar="PATH",
                       help="lint source files/directories for the "
                            "determinism rules (DT*); with no PATH, lints "
                            "the installed repro package")
    check.add_argument("--program", default=None, metavar="FILE",
                       help="verify a serialised program JSON (QV*/RC*; "
                            "device-free -- capacity/connectivity checks "
                            "need --app or --suite)")
    check.add_argument("--app", default=None, choices=list(APPLICATION_NAMES),
                       help="compile one application with the architecture "
                            "flags and verify the program")
    check.add_argument("--qubits", type=_positive_int, default=None,
                       help="override the application size for --app")
    check.add_argument("--suite", action="store_true",
                       help="compile and verify the reduced 16-qubit suite "
                            "across GS/IS reordering and L4/G2x2 topologies")
    check.add_argument("--no-races", action="store_true",
                       help="skip the schedule race detector (RC*)")
    check.add_argument("--output", default=None,
                       help="write the findings as JSON")
    _add_config_arguments(check)

    return parser


def _add_check_argument(parser: argparse.ArgumentParser, *,
                        jobs: bool = False) -> None:
    """The shared ``--check`` flag (see :mod:`repro.checks`); ``jobs``
    says that the command takes ``--jobs``."""

    parser.add_argument(
        "--check", action="store_true",
        help="statically verify every compiled program (verifier + race "
             "detector) and abort on the first error finding"
             + ("; the flag propagates to --jobs worker processes" if jobs
                else ""))


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` flag (see :mod:`repro.obs`)."""

    parser.add_argument("--trace", default=None, metavar="OUT.JSON",
                        help="record a span trace of this command: writes "
                             "Chrome-trace JSON (loadable in Perfetto or "
                             "chrome://tracing) plus a flat .spans.jsonl and "
                             "a .manifest.json run summary next to it; the "
                             "files are flushed atomically even if the "
                             "command fails")


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--profile`` flag (see :mod:`repro.obs.profile`)."""

    parser.add_argument("--profile", action="store_true",
                        help="trace this command and print the aggregate "
                             "span profile (self/total per span name, call "
                             "tree, critical path) when it finishes; "
                             "composes with --trace")


def _add_space_arguments(parser: argparse.ArgumentParser) -> None:
    """Design-space flags shared by ``dse run`` and ``dse dispatch``."""

    parser.add_argument("--space", default=None,
                        help="JSON design-space spec file (overrides axis flags)")
    parser.add_argument("--apps", type=_comma_list, default=None,
                        help="comma-separated application names (e.g. QFT,BV)")
    parser.add_argument("--qubits", type=_comma_ints, default=None,
                        help="comma-separated application sizes (default: paper scale)")
    parser.add_argument("--topologies", type=_comma_list, default=("L6",),
                        help="comma-separated topology names (default: L6)")
    parser.add_argument("--capacities", type=_comma_ints,
                        default=(14, 18, 22, 26, 30, 34),
                        help="comma-separated trap capacities (default: paper sweep)")
    parser.add_argument("--gates", type=_comma_list, default=("FM",),
                        help="comma-separated gate implementations (default: FM)")
    parser.add_argument("--reorders", type=_comma_list, default=("GS",),
                        help="comma-separated reorder methods (default: GS)")
    parser.add_argument("--buffers", type=_comma_ints, default=(2,),
                        help="comma-separated buffer sizes (default: 2)")


def _add_strategy_arguments(parser: argparse.ArgumentParser) -> None:
    """The search-strategy flags of ``dse run`` and ``dse dispatch``: the
    strategy, its seed and objective, and the knobs of
    :data:`~repro.dse.knobs.STRATEGY_KNOBS`.  The choices are
    :data:`~repro.dse.strategies.STRATEGY_NAMES` written out, so that
    ``import repro.cli`` loads no ``repro.dse``."""

    parser.add_argument("--strategy", default="grid",
                        choices=["grid", "random", "greedy", "halving",
                                 "bayes", "adaptive-halving", "ehvi",
                                 "parego"],
                        help="search strategy (default: grid = exhaustive; "
                             "ehvi/parego search the Pareto frontier of "
                             "--objectives directly)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for the seeded strategies "
                             "(default: 0)")
    parser.add_argument("--metric", default="fidelity",
                        choices=list(_OBJECTIVES),
                        help="objective to optimise (default: fidelity)")
    parser.add_argument("--objectives", type=_comma_list, default=None,
                        help="comma-separated objective vector for the "
                             "multi-objective strategies (ehvi/parego), e.g. "
                             "fidelity,runtime (default: fidelity,runtime)")
    parser.add_argument("--samples", type=_positive_int, default=None,
                        help="points to draw for --strategy random")
    parser.add_argument("--proxy-qubits", type=_positive_int, default=None,
                        help="starting proxy size for --strategy "
                             "halving/adaptive-halving (default: 12)")
    parser.add_argument("--batch-size", type=_positive_int, default=None,
                        help="points per proposal batch for --strategy "
                             "bayes/ehvi/parego (default: 4)")
    parser.add_argument("--max-evals", type=_positive_int, default=None,
                        help="evaluation budget for --strategy "
                             "bayes/ehvi/parego (default: a quarter of the "
                             "grid for bayes, half for ehvi/parego)")
    parser.add_argument("--surrogate", default=None, choices=["rff", "trees"],
                        help="surrogate model for --strategy "
                             "bayes/adaptive-halving/ehvi/parego (default: "
                             "trees for adaptive-halving, rff for the others)")


def _add_dse_parsers(subparsers) -> None:
    """The ``dse`` family: run / dispatch / worker / status / pareto / export."""

    dse = subparsers.add_parser(
        "dse",
        help="design-space exploration: resumable, shardable custom studies",
        description="Explore a custom design space through the persistent "
                    "experiment store.  Points already in the store are never "
                    "recomputed, so killed runs resume for free and shards "
                    "merge by writing into one directory.")
    dse_sub = dse.add_subparsers(dest="dse_command")

    run = dse_sub.add_parser(
        "run", help="evaluate a design space under a search strategy",
        epilog="The space comes from --space (a JSON spec with keys apps, "
               "qubits, topologies, capacities, gates, reorders, buffers) or "
               "from the axis flags below.  Every strategy is deterministic "
               "under a fixed --seed, and gives the same output serial and "
               "under any --jobs; only the grid takes --shard.")
    _add_space_arguments(run)
    run.add_argument("--store", default=None,
                     help="experiment-store directory (omit for a one-off "
                          "in-memory run)")
    _add_strategy_arguments(run)
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="local ledger workers that fill the store first "
                          "(--store, else a temporary one), which the "
                          "serial run then replays; any strategy, not "
                          "--shard (default: 1 = serial)")
    run.add_argument("--shard", default=None,
                     help="evaluate only shard i/N of the points (e.g. 2/4), "
                          "split by compilation so a program's gate variants "
                          "share a shard; each shard appends to its own "
                          "store file, and all shards of one space must run "
                          "under the same repro version")
    run.add_argument("--top", type=_positive_int, default=5,
                     help="rows to print in the summary table (default: 5)")
    run.add_argument("--output", default=None, help="write the records as JSON")
    _add_check_argument(run, jobs=True)
    _add_trace_argument(run)
    _add_profile_argument(run)

    dispatch = dse_sub.add_parser(
        "dispatch",
        help="run a design space through leased shards and worker processes",
        description="Partition the space into M leased shards (or, with any "
                    "--strategy but the grid, into proposer-written proposal "
                    "batches) and drive N worker processes to completion.  "
                    "Workers coordinate through lease files inside the store "
                    "directory: claims are atomic, heartbeats renew a lease, "
                    "and an expired lease (dead worker) is reclaimed by a "
                    "surviving worker, so a killed worker costs at most one "
                    "lease of redone work -- never data.  The merged store "
                    "exports byte-identically to a single-process run.")
    _add_space_arguments(dispatch)
    dispatch.add_argument("--store", required=True,
                          help="experiment-store directory shared by all "
                               "workers (dedicated to this study)")
    _add_strategy_arguments(dispatch)
    dispatch.add_argument("--workers", type=_positive_int, default=2,
                          help="local worker processes (default: 2)")
    dispatch.add_argument("--shards", type=_positive_int, default=None,
                          help="lease granularity for --strategy grid "
                               "(default: 4x workers)")
    dispatch.add_argument("--ttl-s", type=_positive_float, default=None,
                          help="lease time-to-live in seconds; must exceed "
                               "the slowest task group (one compile plus all "
                               "its gate-variant simulations; default: 60)")
    dispatch.add_argument("--throttle-s", type=_positive_float, default=None,
                          help="sleep this long after each completed task "
                               "group in every worker (load limiter)")
    dispatch.add_argument("--timeout-s", type=_positive_float, default=None,
                          help="abort the dispatch after this many seconds")
    dispatch.add_argument("--print-only", action="store_true",
                          help="write the manifest and print the per-machine "
                               "worker command lines instead of spawning "
                               "local workers (remote launch)")
    _add_trace_argument(dispatch)

    worker = dse_sub.add_parser(
        "worker",
        help="join a dispatched run as one worker (internal/remote entry)",
        description="Lease work from a prepared dispatch (see `repro dse "
                    "dispatch`) until the run is done: static shards, or "
                    "proposal batches when the manifest declares an "
                    "adaptive run.  Run one of these per machine against a "
                    "shared store directory.")
    worker.add_argument("--store", required=True,
                        help="experiment-store directory with a dispatch.json")
    worker.add_argument("--owner", default=None,
                        help="lease-owner identity (default: <host>-pid<pid>)")

    propose = dse_sub.add_parser(
        "propose",
        help="run the proposer side of an adaptive dispatched run",
        description="Drive the propose/evaluate loop of an adaptive "
                    "dispatch (see `repro dse dispatch --strategy bayes "
                    "--print-only`): write signed proposal batches into the "
                    "store's work ledger, ingest results as workers "
                    "append them, and emit the next batch until the budget "
                    "is spent.  Exactly one proposer per run; killed "
                    "proposers restart from the ledger alone.")
    propose.add_argument("--store", required=True,
                         help="experiment-store directory with an "
                              "adaptive-mode dispatch.json")
    propose.add_argument("--poll-s", type=_positive_float, default=0.2,
                         help="seconds between result polls (default: 0.2)")

    top = dse_sub.add_parser(
        "top",
        help="live fleet dashboard for a dispatched store",
        description="Auto-refreshing terminal view of a dispatched run: "
                    "point/shard progress, fleet and per-worker windowed "
                    "rates with sparklines, cache hit rate, and "
                    "straggler/stall flags (a worker whose rolling rate "
                    "falls k MADs below the fleet median, or whose last "
                    "telemetry event is older than half the lease TTL, is "
                    "flagged before its lease expires).  Keys: q quits, p "
                    "pauses/resumes refresh; Ctrl-C also exits cleanly.")
    top.add_argument("--store", required=True,
                     help="experiment-store directory of the dispatched run")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (scripting/CI)")
    top.add_argument("--interval-s", type=_positive_float, default=1.0,
                     help="seconds between refreshes (default: 1.0)")
    top.add_argument("--bucket-s", type=_positive_float, default=None,
                     help="time-series bucket width in seconds (default: 5)")
    top.add_argument("--window", type=_positive_int, default=None,
                     help="trailing buckets for rolling rates and "
                          "sparklines (default: 12)")
    top.add_argument("--ttl-s", type=_positive_float, default=None,
                     help="lease TTL for the stall detector (default: the "
                          "store manifest's ttl_s)")

    status = dse_sub.add_parser("status", help="summarise an experiment store")
    status.add_argument("--store", required=True, help="experiment-store directory")
    status.add_argument("--space", default=None,
                        help="JSON spec: additionally report completed/pending "
                             "points of this space")
    status.add_argument("--eta", action="store_true",
                        help="estimate remaining wall time from stored "
                             "per-point wall_s timings (pending points come "
                             "from --space or the store's dispatch manifest)")
    status.add_argument("--workers", type=_positive_int, default=None,
                        nargs="?", const=0,
                        help="show the per-worker telemetry of a dispatched "
                             "run; with a count, additionally assume that "
                             "many active workers for --eta (default: "
                             "active leases, else 1)")
    status.add_argument("--by-strategy", action="store_true",
                        help="additionally break the stored points down by "
                             "the strategy that proposed them (schema v3 "
                             "provenance): counts and best per strategy")

    pareto = dse_sub.add_parser(
        "pareto", help="Pareto frontier (and point cloud) of a store")
    pareto.add_argument("--store", required=True, help="experiment-store directory")
    pareto.add_argument("--app", default=None,
                        help="restrict to one application (circuit name)")
    pareto.add_argument("--objectives", type=_comma_list, default=None,
                        help="comma-separated objectives for n-D dominance "
                             "(default: fidelity,runtime)")
    pareto.add_argument("--hypervolume", action="store_true",
                        help="additionally print the normalised hypervolume "
                             "indicator per application (exact 2-D/3-D)")
    pareto.add_argument("--output", default=None,
                        help="write the frontier as JSON, or -- when the "
                             "path ends in .csv -- the full point cloud as "
                             "CSV (stable n-D ordering, with a 'dominated' "
                             "column marking off-frontier points)")

    export = dse_sub.add_parser(
        "export", help="merge and export a store as one canonical JSON file")
    export.add_argument("--store", required=True, help="experiment-store directory")
    export.add_argument("--output", required=True, help="destination JSON file")


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_info() -> int:
    print(f"QCCDSim {__version__} -- reproduction of Murali et al., ISCA 2020")
    print()
    print("Applications:", ", ".join(APPLICATION_NAMES))
    print("Topologies  : L<n> (linear), G<r>x<c> (grid), R<n> (ring), or custom")
    print("Gates       : AM1, AM2, PM, FM Molmer-Sorensen implementations")
    print("Reordering  : GS (gate-based swapping), IS (physical ion swapping)")
    print()
    print("Typical workflow: `python -m repro run --app QAOA --topology L6 --capacity 20`")
    print("Design studies  : `python -m repro dse run --apps QFT,BV "
          "--capacities 14,18,22 --store runs/study` (resumable; see "
          "`repro dse --help`)")
    return 0


def _cmd_table1() -> int:
    from repro.models.shuttle_times import format_table1

    print(format_table1())
    return 0


def _cmd_table2(args) -> int:
    from repro.apps import scaled_suite, table2_suite
    from repro.toolflow.tables import format_table2_text

    suite = scaled_suite(16) if args.small else table2_suite()
    print(format_table2_text(suite))
    return 0


def _cmd_run(args) -> int:
    from repro.analysis.breakdown import error_contributions, time_breakdown
    from repro.compiler import compile_circuit
    from repro.io import result_to_dict
    from repro.sim import simulate

    circuit, config, device = _point_from_args(args, args.app)
    print(f"Application : {circuit.name} ({circuit.num_qubits} qubits, "
          f"{circuit.num_two_qubit_gates} two-qubit gates)")
    print(f"Architecture: {config.name}")
    program = compile_circuit(circuit, device)
    result = simulate(program, device)
    print()
    print(f"Execution time      : {result.duration_seconds:.4f} s")
    breakdown = time_breakdown(result)
    print(f"  computation       : {breakdown['computation_s']:.4f} s")
    print(f"  communication     : {breakdown['communication_s']:.4f} s "
          f"({100 * breakdown['communication_fraction']:.1f}%)")
    print(f"Application fidelity: {result.fidelity:.4e}")
    errors = error_contributions(result)
    print(f"Mean MS gate error  : {errors['total']:.3e} "
          f"(motional {errors['motional']:.3e}, background {errors['background']:.3e})")
    print(f"Shuttles            : {program.num_shuttles}")
    print(f"Max motional energy : {result.max_motional_energy:.2f} quanta")
    if args.output and not _write_json(result_to_dict(result), args.output):
        return 1
    return 0


def _cache_summary_line(cache) -> str:
    """One-line compile-cache + batch-engine summary for sweep commands.

    With ``--jobs N`` the counters include the ledger workers' activity
    (their summed ``worker_exit`` counters, merged into ``cache``), so the
    line is identical for any job count -- sweep output stays byte-for-byte
    independent of ``--jobs``.  The ``entries`` count is process-local and
    deliberately not printed.
    """

    stats = cache.stats()
    return (f"Cache: {stats['hits']} hits / {stats['misses']} misses | "
            f"batch: {stats['batch_variants']} variants over "
            f"{stats['batch_plans']} plans "
            f"(+{stats['batch_plan_reuses']} reuses), "
            f"{stats['batch_timelines']} timelines walked, "
            f"{stats['batch_timeline_hits']} dedup hits")


def _store_dir(args, stack: ExitStack):
    """The store directory of a ``sweep``/``dse run`` command.

    ``--store``; under ``--jobs N`` without one, a temporary directory
    (removed when ``stack`` closes) for the ledger workers to fill.
    """

    if args.store or args.jobs == 1:
        return args.store
    import tempfile

    return stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-"))


def _cmd_sweep(args) -> int:
    from functools import partial

    from repro.apps import scaled_suite, table2_suite
    from repro.io import figure_bundle_to_dict
    from repro.toolflow.config import ArchitectureConfig
    from repro.toolflow.figures import figure6, figure7, figure8
    from repro.toolflow.parallel import ProgramCache
    from repro.toolflow.sweep import (
        capacity_space,
        microarchitecture_space,
        topology_space,
    )

    if args.small and args.jobs > 1:
        raise SystemExit(
            "error: --jobs does not take --small: ledger workers build each "
            "application by name at its default size, and the reduced "
            "suite's 16-qubit circuits are not those (Supremacy runs 8 "
            "cycles, QAOA 4 layers); run --small serially")
    if args.small:
        suite = scaled_suite(16)
        capacities = (6, 8, 10)
        base_linear = ArchitectureConfig(topology="L4")
        topologies = ("L4", "G2x2")
    else:
        suite = table2_suite()
        capacities = (14, 18, 22, 26, 30, 34)
        base_linear = ArchitectureConfig(topology="L6")
        topologies = ("L6", "G2x3")

    if args.figure == 6:
        base = base_linear.with_updates(gate="FM", reorder="GS")
        space = capacity_space(suite, capacities, base)
        figure = partial(figure6, suite, capacities=capacities, base=base)
    elif args.figure == 7:
        space = topology_space(suite, topologies, capacities)
        figure = partial(figure7, suite, capacities=capacities,
                         topologies=topologies)
    else:
        space = microarchitecture_space(suite, capacities, base=base_linear)
        figure = partial(figure8, suite, capacities=capacities,
                         base=base_linear)

    cache = ProgramCache()
    with ExitStack() as stack:
        store_dir = _store_dir(args, stack)
        if args.jobs > 1:
            from repro.dse.dispatch import fill_store

            cache.metrics.merge(fill_store(space, store_dir,
                                           workers=args.jobs,
                                           resumable=bool(args.store)))
        store = (stack.enter_context(_open_store(store_dir)) if store_dir
                 else None)
        bundle = figure(cache=cache, store=store)
    series = {"fidelity": bundle["fidelity"], "runtime_s": bundle["runtime_s"]}

    print(f"Figure {args.figure} series over capacities {list(capacities)}:")
    for metric, per_app in series.items():
        print(f"\n[{metric}]")
        for app, values in per_app.items():
            print(f"  {app:12s} {values}")
    print()
    print(_cache_summary_line(cache))
    if args.store:
        print(f"Experiment store: {store.directory} ({len(store)} points)")
    if args.output and not _write_json(figure_bundle_to_dict(bundle), args.output):
        return 1
    return 0


def _space_from_args(args):
    """A DesignSpace from ``--space`` JSON or from the axis flags.

    Every application must be one of :data:`APPLICATION_NAMES`: the
    commands build each circuit by name, so an unknown one is refused here,
    before anything prints, is stored or spawns.
    """

    from repro.dse import DesignSpace
    from repro.io import load_json

    if not args.space and not args.apps:
        raise SystemExit("error: provide --space FILE or --apps (e.g. --apps QFT,BV)")
    try:
        if args.space:
            space = DesignSpace.from_dict(load_json(args.space))
        else:
            space = DesignSpace(
                apps=args.apps,
                qubits=args.qubits if args.qubits else (None,),
                topologies=args.topologies,
                capacities=args.capacities,
                gates=args.gates,
                reorders=args.reorders,
                buffers=args.buffers,
            )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    for app in space.apps:
        if app not in APPLICATION_NAMES:
            raise SystemExit(f"error: unknown application {app!r}; expected "
                             f"one of {', '.join(APPLICATION_NAMES)}")
    return space


def _print_record_table(records, limit=None) -> None:
    rows = [record.as_row() for record in records]
    if limit is not None:
        rows = rows[:limit]
    print(f"  {'application':12s} {'architecture':>22s} {'fidelity':>12s} "
          f"{'runtime':>10s} {'shuttles':>9s}")
    for row in rows:
        arch = f"{row['topology']}-cap{row['capacity']}-{row['gate']}-{row['reorder']}"
        print(f"  {row['application']:12s} {arch:>22s} {row['fidelity']:12.4e} "
              f"{row['duration_s']:9.4f}s {row['shuttles']:9d}")


def _cmd_dse_run(args) -> int:
    from repro.dse import DSERunner, Shard, make_strategy

    space = _space_from_args(args)
    try:
        strategy = make_strategy(args.strategy, seed=args.seed, metric=args.metric,
                                 samples=args.samples,
                                 proxy_qubits=args.proxy_qubits,
                                 batch_size=args.batch_size,
                                 max_evals=args.max_evals,
                                 surrogate=args.surrogate,
                                 objectives=args.objectives)
        shard = Shard.parse(args.shard) if args.shard else None
        strategy.check_shard(shard)
        spec = strategy.ledger_spec() if args.jobs > 1 else None
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if shard is not None and args.jobs > 1:
        raise SystemExit("error: --jobs does not take --shard: splitting a "
                         "space across machines is what `repro dse dispatch` "
                         "is for (--print-only prints one worker command "
                         "per machine)")
    with ExitStack() as stack:
        store_dir = _store_dir(args, stack)
        store = (stack.enter_context(_open_store(store_dir)) if store_dir
                 else None)

        objective_note = (f"objectives {','.join(strategy.objectives)}"
                          if getattr(strategy, "objectives", None)
                          else f"metric {args.metric}")
        print(f"Design space: {space.size} points "
              f"({len(space.apps)} apps x {len(space.qubits)} sizes x "
              f"{len(space.topologies)} topologies x "
              f"{len(space.capacities)} capacities x {len(space.gates)} gates x "
              f"{len(space.reorders)} reorders x {len(space.buffers)} buffers)")
        if args.store:
            print(f"Store       : {store.directory} ({len(store)} points already "
                  f"evaluated)")
        print(f"Strategy    : {strategy.name} (seed {args.seed}, {objective_note})"
              + (f", shard {args.shard}" if shard else ""))

        dispatched = 0
        if args.jobs > 1:
            from repro.dse.dispatch import fill_store

            before = len(store)
            fill_store(space, store_dir, workers=args.jobs, strategy=spec,
                       resumable=bool(args.store))
            store.reload()
            dispatched = len(store) - before
        runner = DSERunner(space, store=store, shard=shard)
        try:
            result = runner.run(strategy)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    stats = runner.stats
    # The points the ledger workers stored are this command's evaluations,
    # which its replay counted as reused.
    print(f"\nEvaluated {stats['evaluated'] + dispatched} points, replayed "
          f"{stats['reused'] - dispatched} from the store, left "
          f"{stats['skipped']} to other shards.")

    evaluated = result.evaluated
    if evaluated:
        # Adaptive strategies revisit points; show each distinct point once.
        seen = set()
        distinct = []
        for record in evaluated:
            row = record.as_row()
            key = (row["application"], row["topology"], row["capacity"],
                   row["gate"], row["reorder"], row["buffer"])
            if key not in seen:
                seen.add(key)
                distinct.append(record)
        ranked = sorted(range(len(distinct)),
                        key=lambda i: (-_objective(distinct[i], args.metric), i))
        print(f"\nTop {min(args.top, len(ranked))} points by {args.metric}:")
        _print_record_table([distinct[i] for i in ranked], limit=args.top)
    if result.best is not None:
        best_row = result.best.as_row()
        print(f"\nBest point  : {best_row['application']} on "
              f"{best_row['topology']}-cap{best_row['capacity']}-"
              f"{best_row['gate']}-{best_row['reorder']} "
              f"(fidelity {best_row['fidelity']:.4e}, "
              f"runtime {best_row['duration_s']:.4f} s)")
    if result.frontier is not None:
        from repro.dse import records_hypervolume

        hv = records_hypervolume(result.evaluated, strategy.objectives)
        print(f"\nPareto frontier over ({', '.join(strategy.objectives)}): "
              f"{len(result.frontier)} points, normalised hypervolume "
              f"{hv:.6f}")
        _print_record_table(result.frontier)

    if args.output:
        payload = {
            "space": space.to_dict(),
            "strategy": {"name": strategy.name, "seed": args.seed,
                         "metric": args.metric},
            "trace": result.trace,
            "records": [record.as_row() for record in evaluated],
        }
        if result.frontier is not None:
            payload["strategy"]["objectives"] = list(strategy.objectives)
            payload["frontier"] = [record.as_row()
                                   for record in result.frontier]
        if not _write_json(payload, args.output):
            return 1
    return 0


def _objective(record, metric):
    from repro.dse import objective_value

    return objective_value(record, metric)


def _cmd_dse_status(args) -> int:
    from repro.dse import DSERunner
    from repro.dse.dispatch import FleetView

    # One view tick reads the store, the ledger and the worker streams once
    # for every section below.
    view = FleetView(args.store)
    with _store_errors(args.store):
        progress = view.tick()
    store = view.store
    print(f"Experiment store {store.directory}: {len(store)} evaluated points")
    for source, count in sorted(store.source_counts().items()):
        print(f"  {source:24s} {count} rows")
    if store.skipped_lines:
        print(f"  (skipped {store.skipped_lines} truncated/corrupt lines)")
        for source, count in sorted(store.skip_counts().items()):
            print(f"    {source:24s} {count} skipped")
    apps = {}
    for record in store.records():
        apps[record.application] = apps.get(record.application, 0) + 1
    for app, count in sorted(apps.items()):
        print(f"  {app:24s} {count} points")

    timings = store.wall_timings()
    if timings:
        mean_s = sum(timings) / len(timings)
        print(f"Timings: {len(timings)}/{len(store)} rows carry wall_s, "
              f"mean {mean_s:.3f} s/point")

    if getattr(args, "workers", None) is not None:
        _print_worker_telemetry(progress["workers"])

    if getattr(args, "by_strategy", False):
        _print_by_strategy(store)

    space = None
    space_label = None
    if args.space:
        namespace = argparse.Namespace(space=args.space, apps=None)
        space = _space_from_args(namespace)
        space_label = args.space
    pending = None
    if space is not None:
        runner = DSERunner(space, store=store)
        pending = sum(1 for point in space.points()
                      if runner.fingerprint(point) not in store)
        print(f"\nSpace {space_label}: {space.size - pending}/{space.size} "
              f"points completed, {pending} pending")
    if getattr(args, "eta", False):
        return _print_eta(args, view, progress, space, pending)
    return 0


def _print_worker_telemetry(workers) -> None:
    """The ``dse status --workers`` tail: the dispatched fleet's telemetry."""

    if not workers:
        print("\nWorkers: no telemetry recorded (the store was not "
              "dispatched, or predates worker telemetry)")
        return
    print(f"\nWorkers ({len(workers)}):")
    for owner, row in sorted(workers.items()):
        state = "alive" if row["alive"] else "exited"
        age = row["last_seen_age_s"]
        age_note = f"{age:.1f}s ago" if age is not None else "never"
        rate_note = (f", {row['points'] / row['wall_s']:.2f} points/s"
                     if row["wall_s"] and row["points"] else "")
        print(f"  {owner:28s} {state}; last {row['last_event'] or '-'} "
              f"({age_note}); {row['done']} done / {row['lost']} lost of "
              f"{row['claims']} claims, {row['renewals']} heartbeats; "
              f"{row['points']} evaluated + {row['replayed']} replayed"
              f"{rate_note}")


def _print_by_strategy(store) -> None:
    """The ``dse status --by-strategy`` tail: provenance-grouped points."""

    from repro.dse import best_record

    groups = {}
    for record in store.records():
        provenance = record.provenance or {}
        label = provenance.get("strategy") or "(no provenance)"
        groups.setdefault(label, []).append(record)
    print("\nBy strategy (schema v3 provenance):")
    for label, records in sorted(groups.items()):
        full_scale = [r for r in records
                      if (r.provenance or {}).get("proxy_qubits") is None]
        best = best_record(full_scale or records)
        seeds = sorted({(r.provenance or {}).get("seed") for r in records
                        if (r.provenance or {}).get("seed") is not None})
        proxies = sum(1 for r in records
                      if (r.provenance or {}).get("proxy_qubits") is not None)
        detail = f", {proxies} proxy-rung" if proxies else ""
        seed_note = f", seed(s) {seeds}" if seeds else ""
        print(f"  {label:16s} {len(records)} points{detail}{seed_note}; "
              f"best fidelity {best.fidelity:.4e} ({best.application})")


def _print_eta(args, view, progress, space, pending) -> int:
    """The ``dse status --eta`` tail: pending x mean wall_s / active workers.

    Without ``--space``, a dispatched store describes itself: the view's
    tick planned its points from the manifest (:class:`FleetView`).
    """

    from repro.dse.dispatch import estimate_eta_s, format_eta

    if view.refusal is not None:
        print(f"\nerror: {view.refusal}", file=sys.stderr)
    if space is None:
        if view.manifest is None:
            print("\nETA: unknown -- provide --space FILE (or dispatch "
                  "through `repro dse dispatch`, which records the space in "
                  "the store's manifest) so pending points can be counted",
                  file=sys.stderr)
            return 1
        pending = progress["points_pending"]
        if pending is None:
            # A greedy climb or a proxy ladder has no fixed budget: its
            # batches depend on results (and proxy rows can outnumber the
            # grid).
            print(f"\nETA: unknown -- adaptive strategy "
                  f"{view.manifest['strategy'].get('name')!r} has no fixed "
                  f"evaluation budget (run `dse status` again once the "
                  f"proposals ledger records completion)")
            return 0
    # --workers without a count (telemetry display, const 0) does not pin
    # the ETA's active-worker count; only an explicit number does.
    active = args.workers or progress.get("shards", {}).get("active") or 1
    eta_s = estimate_eta_s(pending, view.store.wall_timings(), active)
    print(f"ETA: {pending} pending points / {active} active worker(s) "
          f"~= {format_eta(eta_s)}")
    return 0


def _cmd_dse_dispatch(args) -> int:
    from repro.dse import Dispatcher
    from repro.dse.dispatch import DEFAULT_TTL_S, format_eta

    space = _space_from_args(args)
    strategy = None
    if args.strategy != "grid":
        from repro.dse import make_strategy

        # The spec `dse run` runs is the one the manifest records, validated
        # by the same guards (a silently dropped --objectives or --metric
        # would dispatch a search the caller never asked for).
        try:
            strategy = make_strategy(
                args.strategy, seed=args.seed, metric=args.metric,
                samples=args.samples, proxy_qubits=args.proxy_qubits,
                batch_size=args.batch_size, max_evals=args.max_evals,
                surrogate=args.surrogate, objectives=args.objectives).spec
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    elif args.objectives:
        # A grid dispatch builds no strategy, so it keeps its own guards.
        raise SystemExit(f"error: --objectives only applies to the "
                         f"multi-objective strategies ('ehvi', 'parego'); "
                         f"use --metric with 'grid'")
    else:
        from repro.dse.knobs import strategy_knobs

        try:
            strategy_knobs("grid", samples=args.samples,
                           proxy_qubits=args.proxy_qubits,
                           batch_size=args.batch_size,
                           max_evals=args.max_evals, surrogate=args.surrogate)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    try:
        dispatcher = Dispatcher(
            space, args.store, workers=args.workers, shards=args.shards,
            ttl_s=args.ttl_s if args.ttl_s is not None else DEFAULT_TTL_S,
            throttle_s=args.throttle_s if args.throttle_s is not None else 0.0,
            strategy=strategy)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    if strategy is None:
        print(f"Design space: {space.size} points -> {dispatcher.shards} "
              f"leased shards, {args.workers} worker(s)")
    else:
        print(f"Design space: {space.size} points, adaptive strategy "
              f"{args.strategy} (seed {args.seed}) -> proposal batches x "
              f"{args.workers} worker(s)")
    print(f"Store       : {dispatcher.store_dir}")
    if args.print_only:
        try:
            manifest = dispatcher.prepare()
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        print(f"Manifest    : {manifest}")
        if strategy is None:
            print("\nLaunch one worker per machine (each must mount the "
                  "store directory):")
        else:
            print("\nRun the proposer on one machine and one worker per "
                  "machine (each must mount the store directory):")
        for line in dispatcher.command_lines():
            print(f"  {line}")
        print("\nWatch progress with "
              f"`python -m repro dse status --store {dispatcher.store_dir} --eta`")
        return 0

    def report(progress):
        print(f"  {progress['points_done']}/{progress['points_total']} points, "
              f"shards {progress['shards']['done']}/{dispatcher.shards} done "
              f"({progress['shards']['active']} active), "
              f"ETA {format_eta(progress['eta_s'])}")

    try:
        summary = dispatcher.run(timeout_s=args.timeout_s,
                                 on_progress=report if strategy is None
                                 else None)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    status = "complete" if summary["complete"] else "INCOMPLETE"
    if strategy is None:
        print(f"\nDispatch {status}: {summary['points']} points in "
              f"{summary['elapsed_s']:.1f} s "
              f"(respawned {summary['respawned']} worker(s))")
    else:
        print(f"\nAdaptive dispatch {status}: "
              f"{summary.get('evaluations', 0)} evaluations over "
              f"{summary.get('batches', 0)} batches in "
              f"{summary['elapsed_s']:.1f} s "
              f"(respawned {summary['respawned']} worker(s))")
    _print_trace_merge(summary)
    if strategy is not None:
        _print_adaptive_result(summary, strategy, args.metric)
    elif summary["complete"]:
        print(f"Export with `python -m repro dse export --store "
              f"{dispatcher.store_dir} --output study.json`")
    return 0 if summary["complete"] else 1


def _print_trace_merge(summary) -> None:
    """Report the automatic span merge of a traced dispatch, if any."""

    info = summary.get("trace")
    if not info:
        return
    skipped = sum(info["skipped"].values())
    skip_note = f", {skipped} stream line(s) skipped" if skipped else ""
    print(f"Trace merge : {info['spans']} worker spans adopted from "
          f"{info['shards']} shard(s) across {len(info['pids'])} "
          f"process(es){skip_note}")


def _print_adaptive_result(summary, strategy, metric) -> None:
    """The best point (and frontier) of a finished adaptive dispatch."""

    best = summary.get("best")
    if best is not None:
        config = best["point"]["config"]
        metric = strategy["objectives"][0] if "objectives" in strategy \
            else metric
        print(f"Best point  : {best['point']['app']} on "
              f"{config['topology']}-cap{config['trap_capacity']}-"
              f"{config['gate']}-{config['reorder']} "
              f"({metric} objective {best['value']:.4e})")
    frontier = summary.get("frontier")
    if frontier is not None:
        print(f"Frontier    : {len(frontier)} non-dominated point(s) over "
              f"({', '.join(summary.get('objectives', []))})")
        for entry in frontier:
            config = entry["point"]["config"]
            values = ", ".join(f"{value:.4e}" for value in entry["values"])
            print(f"  {entry['point']['app']} "
                  f"{config['topology']}-cap{config['trap_capacity']}-"
                  f"{config['gate']}-{config['reorder']}  [{values}]")


def _cmd_dse_propose(args) -> int:
    from repro.dse import run_proposer

    try:
        summary = run_proposer(args.store, poll_s=args.poll_s)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"proposer: {summary['evaluations']} evaluations over "
          f"{summary['batches']} batches")
    best = summary.get("best")
    if best is not None:
        print(f"best: {best['point']['app']} "
              f"(objective {best['value']:.4e})")
    return 0


def _cmd_dse_worker(args) -> int:
    # Looked up on the module at call time, so a wrapper installed on
    # repro.dse.dispatch.run_worker applies to this command too.
    from repro.dse import dispatch

    try:
        summary = dispatch.run_worker(args.store, owner=args.owner)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"worker {summary['owner']}: completed "
          f"{summary['completed'] or '[]'}, lost {summary['lost'] or '[]'}")
    return 0


def _cmd_dse_pareto(args) -> int:
    from repro.dse import (
        cloud_rows,
        parse_objectives,
        per_app_frontiers,
        record_frontier,
        records_hypervolume,
    )

    objectives = None
    if args.objectives:
        try:
            objectives = parse_objectives(args.objectives)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    store = _open_store(args.store)
    records = store.records()
    if args.app:
        records = [r for r in records if r.application == args.app]
        if not records:
            print(f"error: no points for application {args.app!r} in "
                  f"{store.directory}", file=sys.stderr)
            return 1
    if objectives is None:
        # Default view: the classic fidelity-vs-runtime frontier, fastest
        # first (unchanged output for existing tooling).
        frontiers = per_app_frontiers(records)
        label = "fastest first"
        csv_objectives = ("fidelity", "runtime")
    else:
        by_app = {}
        for record in records:
            by_app.setdefault(record.application, []).append(record)
        frontiers = {app: record_frontier(app_records, objectives)
                     for app, app_records in sorted(by_app.items())}
        label = f"objectives {','.join(objectives)}, best first"
        csv_objectives = objectives
    payload = {}
    for app, frontier in frontiers.items():
        print(f"\nPareto frontier for {app} ({len(frontier)} of "
              f"{sum(1 for r in records if r.application == app)} points, "
              f"{label}):")
        _print_record_table(frontier)
        if args.hypervolume:
            hv = records_hypervolume(
                [r for r in records if r.application == app],
                objectives or ("fidelity", "runtime"))
            print(f"  normalised hypervolume: {hv:.6f}")
        payload[app] = [record.as_row() for record in frontier]
    if args.output:
        if str(args.output).endswith(".csv"):
            # The CSV is the *full cloud* in stable n-D order with a
            # `dominated` column, so downstream tooling can plot every
            # point and highlight the frontier without re-deriving
            # dominance.
            if not _write_csv(cloud_rows(records, csv_objectives),
                              args.output):
                return 1
        elif not _write_json(payload, args.output):
            return 1
    return 0


def _cmd_dse_export(args) -> int:
    from repro.io import SCHEMA_VERSION

    store = _open_store(args.store)
    # export_rows is canonical (fingerprint-sorted, key-sorted, volatile
    # timings stripped): the same evaluated space exports byte-identically
    # whether it was run serially, sharded by hand, or dispatched.
    payload = {
        "schema_version": SCHEMA_VERSION,
        "num_points": len(store),
        "rows": store.export_rows(),
    }
    print(f"Exporting {len(store)} points from {store.directory}")
    if not _write_json(payload, args.output):
        return 1
    return 0


@contextmanager
def _store_errors(path):
    """Turn an experiment store's load errors into a clean exit."""

    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"error: cannot read experiment store {path}: {exc}")


def _open_store(path):
    """Open an experiment store, turning load errors into a clean exit."""

    from repro.dse import ExperimentStore

    with _store_errors(path):
        return ExperimentStore(path)


def _cmd_dse_top(args) -> int:
    from repro.dse.dispatch import FleetView
    from repro.obs.timeline import (DEFAULT_BUCKET_S, DEFAULT_WINDOW_BUCKETS,
                                    render_top, top_snapshot)

    view = FleetView(args.store, ttl_s=args.ttl_s)
    bucket_s = args.bucket_s or DEFAULT_BUCKET_S
    window = args.window or DEFAULT_WINDOW_BUCKETS

    def frame() -> str:
        with _store_errors(args.store):
            snapshot = top_snapshot(view, bucket_s=bucket_s, window=window)
        return render_top(snapshot, window=window)

    if args.once:
        print(frame())
        return 0
    return _top_loop(frame, interval_s=args.interval_s)


def _top_loop(frame, *, interval_s: float) -> int:
    """The live ``dse top`` refresh loop: q quits, p pauses, Ctrl-C exits."""

    paused = False
    try:
        while True:
            if not paused:
                # Clear + home, then the frame; one write per refresh so a
                # slow terminal never shows a half-drawn dashboard.
                sys.stdout.write("\x1b[2J\x1b[H" + frame()
                                 + "\n\n[q] quit  [p] pause\n")
                sys.stdout.flush()
            key = _read_key(interval_s)
            if key == "q":
                return 0
            if key == "p":
                paused = not paused
                if paused:
                    sys.stdout.write("[paused -- p resumes]\n")
                    sys.stdout.flush()
    except KeyboardInterrupt:
        print()
        return 0


def _read_key(timeout_s: float) -> Optional[str]:
    """Wait up to ``timeout_s`` for one keypress (None on non-tty stdin).

    Raw-mode reads need termios and a real terminal; when either is
    missing (CI, pipes, Windows), degrade to a plain sleep so the
    dashboard still refreshes -- only the keybindings go dormant.
    """

    import select
    import time as _time

    if not sys.stdin.isatty():
        _time.sleep(timeout_s)
        return None
    try:
        import termios
        import tty
    except ImportError:
        _time.sleep(timeout_s)
        return None
    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    try:
        tty.setcbreak(fd)
        ready, _, _ = select.select([sys.stdin], [], [], timeout_s)
        if ready:
            return sys.stdin.read(1).lower()
        return None
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)


def _cmd_dse(args, parser) -> int:
    if args.dse_command is None:
        print("usage: repro dse {run,dispatch,propose,worker,top,status,"
              "pareto,export} ... (see `repro dse --help`)", file=sys.stderr)
        return 1
    handlers = {
        "run": _cmd_dse_run,
        "dispatch": _cmd_dse_dispatch,
        "propose": _cmd_dse_propose,
        "worker": _cmd_dse_worker,
        "top": _cmd_dse_top,
        "status": _cmd_dse_status,
        "pareto": _cmd_dse_pareto,
        "export": _cmd_dse_export,
    }
    return handlers[args.dse_command](args)


def _cmd_device(args) -> int:
    from repro.visualize import device_report

    _, _, device = _point_from_args(args)
    print(device_report(device))
    return 0


def _arm_checks(args) -> None:
    """Turn on ``--check`` runtime verification for this command."""

    if getattr(args, "check", False):
        from repro.checks import enable_checks

        enable_checks()


def _verify_compiled(circuit, device, *, races: bool):
    """Compile ``circuit`` for ``device`` and run the program checks."""

    from repro.analyze import detect_races, merge_reports, verify_program
    from repro.compiler import compile_circuit

    program = compile_circuit(circuit, device)
    report = verify_program(program, device)
    if races:
        report = merge_reports([report, detect_races(program)])
    return report


def _cmd_check(args) -> int:
    from pathlib import Path

    import repro
    from repro.analyze import (detect_races, lint_paths, merge_reports,
                               verify_program)
    from repro.apps import scaled_suite
    from repro.io import SCHEMA_VERSION
    from repro.toolflow.config import ArchitectureConfig

    sections = []
    if args.src is not None:
        paths = list(args.src) or [str(Path(repro.__file__).parent)]
        sections.append((f"lint {' '.join(paths)}", lint_paths(paths)))
    if args.program:
        from repro.io import load_json, program_from_dict

        program = program_from_dict(load_json(args.program))
        report = verify_program(program)
        if not args.no_races:
            report = merge_reports([report, detect_races(program)])
        sections.append((f"verify {args.program}", report))
    if args.app:
        circuit, config, device = _point_from_args(args, args.app)
        sections.append((
            f"verify {circuit.name} on {config.name}",
            _verify_compiled(circuit, device, races=not args.no_races)))
    if args.suite:
        suite = scaled_suite(16)
        for topology in ("L4", "G2x2"):
            for reorder in ("GS", "IS"):
                config = ArchitectureConfig(topology=topology,
                                            trap_capacity=6, gate="FM",
                                            reorder=reorder)
                for name, circuit in suite.items():
                    sections.append((
                        f"verify {name} on {config.name}",
                        _verify_compiled(
                            circuit, config.build_device(circuit.num_qubits),
                            races=not args.no_races)))
    if not sections:
        raise SystemExit("error: provide --src [PATH ...], --program FILE, "
                         "--app NAME and/or --suite")

    total = merge_reports(report for _, report in sections)
    for label, report in sections:
        status = "ok" if report.ok and not len(report) else report.summary()
        print(f"{label}: {status}")
        if len(report):
            for line in report.format().splitlines()[:-1]:
                print(f"  {line}")
    print(f"\ncheck: {total.summary()} across {len(sections)} section(s)")
    if args.output:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "sections": [{"label": label, **report.to_dict()}
                         for label, report in sections],
            "ok": total.ok,
        }
        if not _write_json(payload, args.output):
            return 1
    return 0 if total.ok else 1


def _cmd_profile(args) -> int:
    from pathlib import Path

    from repro.obs import build_profile, format_profile, parse_spans_jsonl

    path = Path(args.trace)
    if path.name.endswith(".json") and not path.name.endswith(".spans.jsonl"):
        # Accept the Chrome-trace path the user passed to --trace; the
        # span JSONL the profiler wants sits beside it.
        sibling = path.with_name(path.name[:-len(".json")] + ".spans.jsonl")
        if sibling.exists():
            path = sibling
    try:
        spans = parse_spans_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read spans from {path}: {exc}", file=sys.stderr)
        return 1
    profile = build_profile(spans)
    print(format_profile(profile, top=args.top))
    if args.collapsed:
        try:
            from repro.obs import atomic_write_text

            atomic_write_text(args.collapsed,
                              "\n".join(profile["collapsed"]) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.collapsed}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nWrote collapsed stacks to {args.collapsed}")
    if args.output and not _write_json(profile, args.output):
        return 1
    return 0


def _cmd_trace(args) -> int:
    if getattr(args, "trace_command", None) != "merge":
        print("usage: repro trace merge --store STORE --output OUT.JSON "
              "(see `repro trace --help`)", file=sys.stderr)
        return 1
    from repro.obs import write_merged_trace

    config = {key: value for key, value in sorted(vars(args).items())}
    try:
        paths, info = write_merged_trace(args.store, args.output,
                                         config=config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot merge the trace: {exc}", file=sys.stderr)
        return 1
    skipped = sum(info["skipped"].values())
    skip_note = f", {skipped} line(s) skipped" if skipped else ""
    print(f"Merged {info['shards']} shard(s): {info['spans']} spans from "
          f"{len(info['pids'])} process(es){skip_note}")
    print(f"Trace: {paths['trace']} (spans {paths['spans']}, "
          f"manifest {paths['manifest']})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    # `repro profile TRACE` names its positional "trace" and `repro trace
    # merge` is the offline merger; only the optional --trace/--profile
    # flags of the pipeline commands arm the tracer.
    trace_path = getattr(args, "trace", None) \
        if args.command not in ("profile", "trace") else None
    show_profile = getattr(args, "profile", False) is True
    if not trace_path and not show_profile:
        return _dispatch_command(args, parser)
    return _traced_command(args, parser, trace_path, show_profile)


def _traced_command(args, parser, trace_path, show_profile=False) -> int:
    """Run one subcommand under the span tracer and flush the trace views.

    The registry is reset first so the manifest's metrics snapshot covers
    exactly this command.  Tracing never changes results: spans observe the
    pipeline, and the store's canonical export is byte-identical with and
    without ``--trace`` (pinned by CI's obs-smoke job).

    The flush runs in a ``finally`` block: a command that *raises* still
    leaves a complete, readable trace of every span that finished (written
    atomically, so no reader ever sees a torn file), and ``--profile``
    still prints its report -- a crashed run is precisely the one whose
    time breakdown is needed.
    """

    from repro.obs import disable_tracing, enable_tracing, reset_registry

    reset_registry()
    enable_tracing()
    code: Optional[int] = None
    try:
        code = _dispatch_command(args, parser)
        return _flush_trace(args, disable_tracing(), trace_path,
                            show_profile, code)
    finally:
        tracer = disable_tracing()
        if code is None and tracer is not None:
            # An exception is in flight; flush best-effort without
            # masking it.
            try:
                _flush_trace(args, tracer, trace_path, show_profile, None)
            except Exception:  # pragma: no cover - double-fault path
                pass


def _flush_trace(args, tracer, trace_path, show_profile,
                 code: Optional[int]) -> int:
    """Write the trace bundle and/or print the profile; returns exit code."""

    from repro.obs import build_profile, format_profile, write_trace

    if trace_path:
        config = {key: value for key, value in sorted(vars(args).items())
                  if key != "trace"}
        extra = {} if code is None else {"exit_code": code}
        try:
            paths = write_trace(trace_path, tracer, config=config,
                                extra=extra)
        except OSError as exc:
            print(f"error: cannot write trace {trace_path}: {exc}",
                  file=sys.stderr)
            return 1
        note = " (command failed; partial trace)" if code is None else ""
        count = len(tracer.spans) + len(tracer.foreign)
        print(f"Trace: {paths['trace']} ({count} spans; "
              f"spans {paths['spans']}, manifest {paths['manifest']})"
              f"{note}")
    if show_profile:
        # records() includes adopted foreign spans, so a dispatch run's
        # profile covers the whole fleet (cross-process critical path).
        profile = build_profile(tracer.records())
        print()
        print(format_profile(profile))
    return code if code is not None else 1


def _dispatch_command(args, parser) -> int:
    from repro.checks import StaticAnalysisError

    try:
        return _dispatch_command_inner(args, parser)
    except StaticAnalysisError as exc:
        print(f"static analysis failed:\n{exc.report.format()}",
              file=sys.stderr)
        return 1


def _dispatch_command_inner(args, parser) -> int:
    _arm_checks(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "info":
        return _cmd_info()
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "table2":
        return _cmd_table2(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "dse":
        return _cmd_dse(args, parser)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "device":
        return _cmd_device(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
