"""The static-analysis command, ``check``: verifier, race detector and
determinism linter (docs/static-analysis.md)."""

from repro.apps import APPLICATION_NAMES
from repro.cli import (
    _add_config_arguments,
    _load_json,
    _point_from_args,
    _positive_int,
    _refused,
    _write_json,
)


def add_arguments(parsers) -> None:
    """Declare the arguments of ``check`` on its parser."""

    parser = parsers["check"]
    parser.add_argument("--src", nargs="*", default=None, metavar="PATH",
                        help="lint source files/directories for the "
                             "determinism rules (DT*); with no PATH, lints "
                             "the installed repro package")
    parser.add_argument("--program", default=None, metavar="FILE",
                        help="verify a serialised program JSON (QV*/RC*; "
                             "device-free -- capacity/connectivity checks "
                             "need --app or --suite)")
    parser.add_argument("--app", default=None, choices=list(APPLICATION_NAMES),
                        help="compile one application with the architecture "
                             "flags and verify the program")
    parser.add_argument("--qubits", type=_positive_int, default=None,
                        help="override the application size for --app")
    parser.add_argument("--suite", action="store_true",
                        help="compile and verify the reduced 16-qubit suite "
                             "across GS/IS reordering and L4/G2x2 topologies")
    parser.add_argument("--no-races", action="store_true",
                        help="skip the schedule race detector (RC*)")
    parser.add_argument("--output", default=None,
                        help="write the findings as JSON")
    _add_config_arguments(parser)


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
        from repro.io import program_from_dict

        with _refused():
            program = program_from_dict(_load_json(args.program))
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


#: The handler of this group's one command.
COMMANDS = {"check": _cmd_check}
