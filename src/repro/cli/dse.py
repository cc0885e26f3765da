"""The design-space exploration commands: ``repro dse`` and the
subcommands of :data:`SUBCOMMANDS`.  The choices of ``--strategy``,
``--metric`` and ``--surrogate`` are the keys of the tables that own them,
read from two leaf modules, so a grid dispatch still loads no strategy."""

import argparse
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from repro.apps import APPLICATION_NAMES
from repro.cli import (
    _add_pipeline_arguments,
    _add_trace_argument,
    _load_json,
    _open_store,
    _positive_int,
    _refused,
    _store_dir,
    _write_json,
)
from repro.dse.knobs import KNOB_DEFAULTS, STRATEGY_KNOBS, SURROGATE_NAMES
from repro.dse.pareto import OBJECTIVES


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return number


def _comma_list(text: str):
    """Parse a comma-separated CLI list, dropping empty items."""

    return tuple(item.strip() for item in text.split(",") if item.strip())


def _comma_ints(text: str):
    items = _comma_list(text)
    try:
        return tuple(int(item) for item in items)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


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
    :data:`~repro.dse.knobs.STRATEGY_KNOBS`, each naming the strategies
    that read it."""

    def readers(knob: str) -> str:
        return "/".join(name for name, knobs in STRATEGY_KNOBS.items()
                        if knob in knobs)

    parser.add_argument("--strategy", default="grid",
                        choices=list(STRATEGY_KNOBS),
                        help="search strategy (default: grid = exhaustive; "
                             "ehvi/parego search the Pareto frontier of "
                             "--objectives directly)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for the seeded strategies "
                             "(default: 0)")
    parser.add_argument("--metric", default="fidelity",
                        choices=list(OBJECTIVES),
                        help="objective to optimise (default: fidelity)")
    parser.add_argument("--objectives", type=_comma_list, default=None,
                        help="comma-separated objective vector for the "
                             "multi-objective strategies (ehvi/parego), e.g. "
                             "fidelity,runtime (default: fidelity,runtime)")
    parser.add_argument("--samples", type=_positive_int, default=None,
                        help="points to draw for --strategy "
                             f"{readers('samples')}")
    parser.add_argument("--proxy-qubits", type=_positive_int, default=None,
                        help="starting proxy size for --strategy "
                             f"{readers('proxy_qubits')} (default: "
                             f"{KNOB_DEFAULTS['proxy_qubits']})")
    parser.add_argument("--batch-size", type=_positive_int, default=None,
                        help="points per proposal batch for --strategy "
                             f"{readers('batch_size')} (default: "
                             f"{KNOB_DEFAULTS['batch_size']})")
    parser.add_argument("--max-evals", type=_positive_int, default=None,
                        help="evaluation budget for --strategy "
                             f"{readers('max_evals')} (default: a quarter of "
                             "the grid for bayes, half for ehvi/parego)")
    parser.add_argument("--surrogate", default=None,
                        choices=list(SURROGATE_NAMES),
                        help="surrogate model for --strategy "
                             f"{readers('surrogate')} (default: trees for "
                             "adaptive-halving, rff for the others)")


def add_arguments(parsers) -> None:
    """Declare the arguments of ``dse`` and its subcommands."""

    dse = parsers["dse"]
    dse.description = (
        "Explore a custom design space through the persistent experiment "
        "store.  Points already in the store are never recomputed, so "
        "killed runs resume for free and shards merge by writing into one "
        "directory.")
    subparsers = dse.add_subparsers(dest="dse_command")
    subcommands = {name: subparsers.add_parser(name, help=help_line)
                   for name, (help_line, _) in SUBCOMMANDS.items()}

    run = subcommands["run"]
    run.epilog = (
        "The space comes from --space (a JSON spec with keys apps, qubits, "
        "topologies, capacities, gates, reorders, buffers) or from the axis "
        "flags below.  Every strategy is deterministic under a fixed "
        "--seed, and gives the same output serial and under any --jobs; "
        "only the grid takes --shard.")
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
    _add_pipeline_arguments(run, jobs=True)

    dispatch = subcommands["dispatch"]
    dispatch.description = (
        "Partition the space into M leased shards (or, with any --strategy "
        "but the grid, into proposer-written proposal batches) and drive N "
        "worker processes to completion.  Workers coordinate through lease "
        "files inside the store directory: claims are atomic, heartbeats "
        "renew a lease, and an expired lease (dead worker) is reclaimed by "
        "a surviving worker, so a killed worker costs at most one lease of "
        "redone work -- never data.  The merged store exports "
        "byte-identically to a single-process run.")
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

    worker = subcommands["worker"]
    worker.description = (
        "Lease work from a prepared dispatch (see `repro dse dispatch`) "
        "until the run is done: static shards, or proposal batches when the "
        "manifest declares an adaptive run.  Run one of these per machine "
        "against a shared store directory.")
    worker.add_argument("--store", required=True,
                        help="experiment-store directory with a dispatch.json")
    worker.add_argument("--owner", default=None,
                        help="lease-owner identity (default: <host>-pid<pid>)")

    propose = subcommands["propose"]
    propose.description = (
        "Drive the propose/evaluate loop of an adaptive dispatch (see "
        "`repro dse dispatch --strategy bayes --print-only`): write signed "
        "proposal batches into the store's work ledger, ingest results as "
        "workers append them, and emit the next batch until the budget is "
        "spent.  Exactly one proposer per run; killed proposers restart "
        "from the ledger alone.")
    propose.add_argument("--store", required=True,
                         help="experiment-store directory with an "
                              "adaptive-mode dispatch.json")
    propose.add_argument("--poll-s", type=_positive_float, default=0.2,
                         help="seconds between result polls (default: 0.2)")

    top = subcommands["top"]
    top.description = (
        "Auto-refreshing terminal view of a dispatched run: point/shard "
        "progress, fleet and per-worker windowed rates with sparklines, "
        "cache hit rate, and straggler/stall flags (a worker whose rolling "
        "rate falls k MADs below the fleet median, or whose last telemetry "
        "event is older than half the lease TTL, is flagged before its "
        "lease expires).  Keys: q quits, p pauses/resumes refresh; Ctrl-C "
        "also exits cleanly.")
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

    status = subcommands["status"]
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

    pareto = subcommands["pareto"]
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

    export = subcommands["export"]
    export.add_argument("--store", required=True, help="experiment-store directory")
    export.add_argument("--output", required=True, help="destination JSON file")


def _space_from_args(args):
    """A DesignSpace from ``--space`` JSON or from the axis flags.

    Every application must be one of :data:`APPLICATION_NAMES`: the
    commands build each circuit by name, so an unknown one is refused here,
    before anything prints, is stored or spawns.
    """

    from repro.dse import DesignSpace

    if not args.space and not args.apps:
        raise SystemExit("error: provide --space FILE or --apps (e.g. --apps QFT,BV)")
    with _refused():
        if args.space:
            space = DesignSpace.from_dict(_load_json(args.space))
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
    for app in space.apps:
        if app not in APPLICATION_NAMES:
            raise SystemExit(f"error: unknown application {app!r}; expected "
                             f"one of {', '.join(APPLICATION_NAMES)}")
    return space


def _strategy(args):
    """The strategy the flags name; refused flags exit with one line."""

    from repro.dse import make_strategy

    with _refused():
        return make_strategy(args.strategy, seed=args.seed,
                             metric=args.metric, objectives=args.objectives,
                             **_knobs(args))


def _knobs(args):
    """Each knob of :data:`STRATEGY_KNOBS` as given (``None``: not given)."""

    return {knob: getattr(args, knob)
            for knobs in STRATEGY_KNOBS.values() for knob in knobs}


def _refuse_missing_store(path) -> None:
    """Exit unless ``--store`` exists: reading a store never creates one."""

    if not Path(path).is_dir():
        raise SystemExit(f"error: cannot read experiment store {path}: "
                         f"no such directory")


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


def _cmd_run(args) -> int:
    from repro.dse import DSERunner, Shard, objective_value

    space = _space_from_args(args)
    strategy = _strategy(args)
    with _refused():
        shard = Shard.parse(args.shard) if args.shard else None
        strategy.check_shard(shard)
        spec = strategy.ledger_spec() if args.jobs > 1 else None
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
        with _refused():
            result = runner.run(strategy)
    stats = runner.stats
    # The points the ledger workers stored are this command's evaluations,
    # which its replay counted as reused.
    print(f"\nEvaluated {stats['evaluated'] + dispatched} points, replayed "
          f"{stats['reused'] - dispatched} from the store, left "
          f"{stats['skipped']} to other shards.")

    evaluated = result.evaluated
    if evaluated:
        # Adaptive strategies revisit points; show each distinct point once.
        distinct = {}
        for record in evaluated:
            row = record.as_row()
            distinct.setdefault((row["application"], row["topology"],
                                 row["capacity"], row["gate"],
                                 row["reorder"], row["buffer"]), record)
        # A stable sort: ties keep the evaluation order.
        ranked = sorted(distinct.values(),
                        key=lambda record: -objective_value(record, args.metric))
        print(f"\nTop {min(args.top, len(ranked))} points by {args.metric}:")
        _print_record_table(ranked, limit=args.top)
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


def _cmd_dispatch(args) -> int:
    from repro.dse import Dispatcher
    from repro.dse.dispatch import DEFAULT_TTL_S, format_eta

    space = _space_from_args(args)
    strategy = None
    if args.strategy != "grid" or args.objectives:
        # The spec `dse run` runs is the one the manifest records, validated
        # by the same guards (a silently dropped --objectives or --metric
        # would dispatch a search the caller never asked for), which refuse
        # a grid with --objectives.
        strategy = _strategy(args).spec
    else:
        # A grid dispatch loads no strategy: it checks its knobs alone.
        from repro.dse.knobs import strategy_knobs

        with _refused():
            strategy_knobs("grid", **_knobs(args))
    with _refused():
        dispatcher = Dispatcher(
            space, args.store, workers=args.workers, shards=args.shards,
            ttl_s=args.ttl_s if args.ttl_s is not None else DEFAULT_TTL_S,
            throttle_s=args.throttle_s if args.throttle_s is not None else 0.0,
            strategy=strategy)

    if strategy is None:
        print(f"Design space: {space.size} points -> {dispatcher.shards} "
              f"leased shards, {args.workers} worker(s)")
    else:
        print(f"Design space: {space.size} points, adaptive strategy "
              f"{args.strategy} (seed {args.seed}) -> proposal batches x "
              f"{args.workers} worker(s)")
    print(f"Store       : {dispatcher.store_dir}")
    if args.print_only:
        with _refused():
            manifest = dispatcher.prepare()
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

    with _refused():
        summary = dispatcher.run(timeout_s=args.timeout_s,
                                 on_progress=report if strategy is None
                                 else None)
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
    info = summary.get("trace")
    if info:  # the automatic span merge of a traced dispatch
        skipped = sum(info["skipped"].values())
        skip_note = f", {skipped} stream line(s) skipped" if skipped else ""
        print(f"Trace merge : {info['spans']} worker spans adopted from "
              f"{info['shards']} shard(s) across {len(info['pids'])} "
              f"process(es){skip_note}")
    if strategy is not None:
        _print_adaptive_result(summary, strategy, args.metric)
    elif summary["complete"]:
        print(f"Export with `python -m repro dse export --store "
              f"{dispatcher.store_dir} --output study.json`")
    return 0 if summary["complete"] else 1


def _print_adaptive_result(summary, strategy, metric) -> None:
    """The best point (and frontier) of a finished adaptive dispatch."""

    best = summary.get("best")
    if best is not None:
        config = best["point"]["config"]
        metric = strategy.get("objectives", [metric])[0]
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


def _cmd_worker(args) -> int:
    # Looked up on the module at call time, so a wrapper installed on
    # repro.dse.dispatch.run_worker applies to this command too.
    from repro.dse import dispatch

    with _refused():
        summary = dispatch.run_worker(args.store, owner=args.owner)
    print(f"worker {summary['owner']}: completed "
          f"{summary['completed'] or '[]'}, lost {summary['lost'] or '[]'}")
    return 0


def _cmd_propose(args) -> int:
    from repro.dse import run_proposer

    with _refused():
        summary = run_proposer(args.store, poll_s=args.poll_s)
    print(f"proposer: {summary['evaluations']} evaluations over "
          f"{summary['batches']} batches")
    best = summary.get("best")
    if best is not None:
        print(f"best: {best['point']['app']} "
              f"(objective {best['value']:.4e})")
    return 0


def _cmd_top(args) -> int:
    from repro.dse.dispatch import FleetView
    from repro.obs.timeline import (DEFAULT_BUCKET_S, DEFAULT_WINDOW_BUCKETS,
                                    render_top, top_snapshot)

    _refuse_missing_store(args.store)
    view = FleetView(args.store, ttl_s=args.ttl_s)
    bucket_s = args.bucket_s or DEFAULT_BUCKET_S
    window = args.window or DEFAULT_WINDOW_BUCKETS

    def frame() -> str:
        with _refused(f"experiment store {args.store}"):
            snapshot = top_snapshot(view, bucket_s=bucket_s, window=window)
        return render_top(snapshot, window=window)

    if args.once:
        print(frame())
        return 0
    # The live refresh loop: q quits, p pauses, Ctrl-C exits.
    paused = False
    try:
        while True:
            if not paused:
                # Clear + home, then the frame; one write per refresh so a
                # slow terminal never shows a half-drawn dashboard.
                sys.stdout.write("\x1b[2J\x1b[H" + frame()
                                 + "\n\n[q] quit  [p] pause\n")
                sys.stdout.flush()
            key = _read_key(args.interval_s)
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
    import time

    try:
        import termios
        import tty
    except ImportError:
        termios = None
    if termios is None or not sys.stdin.isatty():
        time.sleep(timeout_s)
        return None
    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    try:
        tty.setcbreak(fd)
        ready, _, _ = select.select([sys.stdin], [], [], timeout_s)
        return sys.stdin.read(1).lower() if ready else None
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)


def _cmd_status(args) -> int:
    from repro.dse.dispatch import FleetView

    _refuse_missing_store(args.store)
    space = (_space_from_args(argparse.Namespace(space=args.space, apps=None))
             if args.space else None)
    # One view tick reads the store, the ledger and the worker streams once
    # for every section below.
    view = FleetView(args.store)
    with _refused(f"experiment store {args.store}"):
        progress = view.tick()
    store = view.store
    print(f"Experiment store {store.directory}: {len(store)} evaluated points")
    for source, count in sorted(store.source_counts().items()):
        print(f"  {source:24s} {count} rows")
    if store.skipped_lines:
        print(f"  (skipped {store.skipped_lines} truncated/corrupt lines)")
        for source, count in sorted(store.skip_counts().items()):
            print(f"    {source:24s} {count} skipped")
    apps = Counter(record.application for record in store.records())
    for app, count in sorted(apps.items()):
        print(f"  {app:24s} {count} points")

    timings = store.wall_timings()
    if timings:
        mean_s = sum(timings) / len(timings)
        print(f"Timings: {len(timings)}/{len(store)} rows carry wall_s, "
              f"mean {mean_s:.3f} s/point")

    if args.workers is not None:
        _print_worker_telemetry(progress["workers"])

    if args.by_strategy:
        _print_by_strategy(store)

    pending = None
    if space is not None:
        from repro.dse import DSERunner

        runner = DSERunner(space, store=store)
        pending = sum(1 for point in space.points()
                      if runner.fingerprint(point) not in store)
        print(f"\nSpace {args.space}: {space.size - pending}/{space.size} "
              f"points completed, {pending} pending")
    if args.eta:
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
        proxies = len(records) - len(full_scale)
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


def _cmd_pareto(args) -> int:
    from repro.dse import (cloud_rows, parse_objectives, record_frontier,
                           records_hypervolume)

    objectives = ("fidelity", "runtime")
    # The default view lists the fidelity-vs-runtime frontier fastest first.
    ranking, label = ("runtime", "fidelity"), "fastest first"
    if args.objectives:
        with _refused():
            objectives = ranking = parse_objectives(args.objectives)
        label = f"objectives {','.join(objectives)}, best first"
    _refuse_missing_store(args.store)
    store = _open_store(args.store)
    records = store.records()
    if args.app:
        records = [r for r in records if r.application == args.app]
        if not records:
            print(f"error: no points for application {args.app!r} in "
                  f"{store.directory}", file=sys.stderr)
            return 1
    by_app = {}
    for record in records:
        by_app.setdefault(record.application, []).append(record)
    payload = {}
    for app, app_records in sorted(by_app.items()):
        frontier = record_frontier(app_records, ranking)
        print(f"\nPareto frontier for {app} ({len(frontier)} of "
              f"{len(app_records)} points, {label}):")
        _print_record_table(frontier)
        if args.hypervolume:
            hv = records_hypervolume(app_records, objectives)
            print(f"  normalised hypervolume: {hv:.6f}")
        payload[app] = [record.as_row() for record in frontier]
    if args.output:
        if str(args.output).endswith(".csv"):
            # The CSV is the *full cloud* in stable n-D order with a
            # `dominated` column, so downstream tooling can plot every
            # point and highlight the frontier without re-deriving
            # dominance.
            if not _write_csv(cloud_rows(records, objectives), args.output):
                return 1
        elif not _write_json(payload, args.output):
            return 1
    return 0


def _write_csv(rows, path) -> bool:
    """Write ``--output`` CSV rows; report and return ``False`` on failure.

    Same hardening as :func:`~repro.cli._write_json`: parent directories
    are created, and any OS-level write failure is reported on stderr so
    the calling subcommand can exit non-zero instead of crashing with a
    traceback.
    """

    import csv

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
    print(f"\nWrote CSV to {path}"
          + ("" if rows else " (no rows -- the file is empty)"))
    return True


def _cmd_export(args) -> int:
    from repro.io import SCHEMA_VERSION

    _refuse_missing_store(args.store)
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


#: The ``repro dse`` subcommands in ``repro dse --help`` order: each one's
#: help line, the function declaring its arguments and its handler.
SUBCOMMANDS = {
    "run": ("evaluate a design space under a search strategy", _cmd_run),
    "dispatch": ("run a design space through leased shards and worker "
                 "processes", _cmd_dispatch),
    "worker": ("join a dispatched run as one worker (internal/remote entry)",
               _cmd_worker),
    "propose": ("run the proposer side of an adaptive dispatched run",
                _cmd_propose),
    "top": ("live fleet dashboard for a dispatched store", _cmd_top),
    "status": ("summarise an experiment store", _cmd_status),
    "pareto": ("Pareto frontier (and point cloud) of a store", _cmd_pareto),
    "export": ("merge and export a store as one canonical JSON file",
               _cmd_export),
}


def _cmd_dse(args) -> int:
    if args.dse_command is None:
        print(f"usage: repro dse {{{','.join(SUBCOMMANDS)}}} ... "
              f"(see `repro dse --help`)", file=sys.stderr)
        return 1
    return SUBCOMMANDS[args.dse_command][1](args)


#: The handler of this group's one command.
COMMANDS = {"dse": _cmd_dse}
