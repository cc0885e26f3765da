"""The paper's commands: ``info``, ``table1``, ``table2``, ``run``,
``sweep`` and ``device``."""

from contextlib import ExitStack

from repro import __version__
from repro.apps import APPLICATION_NAMES
from repro.cli import (
    _add_config_arguments,
    _add_pipeline_arguments,
    _open_store,
    _point_from_args,
    _positive_int,
    _store_dir,
    _write_json,
)


def add_arguments(parsers) -> None:
    """Declare the arguments of this group's commands on their parsers."""

    parsers["table2"].add_argument("--small", action="store_true",
                                   help="use the reduced 16-qubit suite")

    run = parsers["run"]
    run.add_argument("--app", required=True, choices=list(APPLICATION_NAMES),
                     help="application name from Table II")
    run.add_argument("--qubits", type=_positive_int, default=None,
                     help="override the application size (total qubits)")
    run.add_argument("--output", default=None, help="write the result as JSON")
    _add_pipeline_arguments(run)
    _add_config_arguments(run)

    sweep = parsers["sweep"]
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
    _add_pipeline_arguments(sweep, jobs=True)

    device = parsers["device"]
    device.add_argument("--qubits", type=_positive_int, default=None,
                        help="ions to load (default: usable capacity)")
    _add_config_arguments(device)


def _cmd_info(args) -> int:
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


def _cmd_table1(args) -> int:
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


def _cmd_device(args) -> int:
    from repro.visualize import device_report

    _, _, device = _point_from_args(args)
    print(device_report(device))
    return 0


#: The handler of each of this group's commands.
COMMANDS = {"info": _cmd_info, "table1": _cmd_table1, "table2": _cmd_table2,
            "run": _cmd_run, "sweep": _cmd_sweep, "device": _cmd_device}
