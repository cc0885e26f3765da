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

The package is this shell (the command table, what several groups share,
the traced run) and one module per command group: :mod:`~repro.cli.paper`,
:mod:`~repro.cli.dse`, :mod:`~repro.cli.obs` and :mod:`~repro.cli.check`.
:func:`main` declares the arguments of, and imports, only the group of the
command it runs, and each command imports the layers it runs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager
from importlib import import_module
from typing import List, Optional

from repro import __version__

#: Every ``repro`` command in ``repro --help`` order: the module under
#: ``repro.cli`` of its group, and its help line.  A group module declares
#: its commands' arguments (``add_arguments``) and maps each command to
#: its handler (``COMMANDS``).
COMMANDS = {
    "info": ("paper", "summarise the toolflow and its models"),
    "table1": ("paper", "print the shuttling operation times (Table I)"),
    "table2": ("paper", "print the benchmark suite (Table II)"),
    "run": ("paper", "compile and simulate one application"),
    "sweep": ("paper", "regenerate a figure's data series"),
    "dse": ("dse", "design-space exploration: resumable, shardable custom "
                   "studies"),
    "profile": ("obs", "aggregate a recorded span trace into a hierarchical "
                       "profile"),
    "trace": ("obs", "distributed-trace utilities over a store's worker "
                     "streams"),
    "device": ("paper", "describe a candidate device"),
    "check": ("check", "static analysis: program verifier, race detector, "
                       "determinism linter (docs/static-analysis.md)"),
}


def _group(command: str):
    return import_module(f"repro.cli.{COMMANDS[command][0]}")


#: What :func:`main` runs for each command: its group's handler.
_COMMANDS = {name: lambda args, name=name: _group(name).COMMANDS[name](args)
             for name in COMMANDS}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command, with the arguments of the group
    of ``command`` declared, or of every group without one."""

    parser = argparse.ArgumentParser(
        prog="repro",
        description="QCCDSim: design toolflow for QCCD trapped-ion quantum computers",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")
    for name, (_, help_line) in COMMANDS.items():
        subparsers.add_parser(name, help=help_line)
    for group in dict.fromkeys(group for name, (group, _) in COMMANDS.items()
                               if command in (None, name)):
        import_module(f"repro.cli.{group}").add_arguments(subparsers.choices)
    return parser


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


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


def _add_pipeline_arguments(parser: argparse.ArgumentParser, *,
                            jobs: bool = False) -> None:
    """The ``--check`` (see :mod:`repro.checks`), ``--trace`` and
    ``--profile`` flags of the commands that compile; ``jobs`` says that
    the command takes ``--jobs``."""

    parser.add_argument(
        "--check", action="store_true",
        help="statically verify every compiled program (verifier + race "
             "detector) and abort on the first error finding"
             + ("; the flag propagates to --jobs worker processes" if jobs
                else ""))
    _add_trace_argument(parser)
    parser.add_argument("--profile", action="store_true",
                        help="trace this command and print the aggregate "
                             "span profile (self/total per span name, call "
                             "tree, critical path) when it finishes; "
                             "composes with --trace")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` flag (see :mod:`repro.obs`)."""

    parser.add_argument("--trace", default=None, metavar="OUT.JSON",
                        help="record a span trace of this command: writes "
                             "Chrome-trace JSON (loadable in Perfetto or "
                             "chrome://tracing) plus a flat .spans.jsonl and "
                             "a .manifest.json run summary next to it; the "
                             "files are flushed atomically even if the "
                             "command fails")


def _point_from_args(args, app: Optional[str] = None):
    """``(circuit, config, device)`` of ``run``, ``device`` and ``check``.

    The circuit is ``app`` at ``--qubits`` (``None`` without an app), the
    device is built for it (or for ``--qubits`` ions).  Input the
    validators refuse exits with one ``error:`` line.
    """

    from repro.apps import build_application
    from repro.toolflow.config import ArchitectureConfig

    with _refused():
        circuit = (build_application(app, num_qubits=args.qubits) if app
                   else None)
        config = ArchitectureConfig(
            topology=args.topology, trap_capacity=args.capacity,
            gate=args.gate, reorder=args.reorder, buffer_ions=args.buffer)
        device = config.build_device(
            circuit.num_qubits if circuit else args.qubits)
    return circuit, config, device


@contextmanager
def _refused(reading=None):
    """Turn the ``ValueError`` of refused input into an exit with one
    ``error:`` line; with ``reading``, the file or store being read, also
    an ``OSError``, and the line names it."""

    errors = (ValueError, OSError) if reading else ValueError
    try:
        yield
    except errors as exc:
        raise SystemExit(f"error: cannot read {reading}: {exc}" if reading
                         else f"error: {exc}")


def _load_json(path):
    """An input JSON file, or an exit with one ``error:`` line."""

    from repro.io import load_json

    with _refused(path):
        return load_json(path)


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


def _store_dir(args, stack: ExitStack):
    """The store directory of a ``sweep``/``dse run`` command.

    ``--store``; under ``--jobs N`` without one, a temporary directory
    (removed when ``stack`` closes) for the ledger workers to fill.
    """

    if args.store or args.jobs == 1:
        return args.store
    import tempfile

    return stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-"))


def _open_store(path):
    """Open an experiment store, turning load errors into a clean exit."""

    from repro.dse import ExperimentStore

    with _refused(f"experiment store {path}"):
        return ExperimentStore(path)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""

    argv = sys.argv[1:] if argv is None else argv
    # The top-level options take no value, so the first word that is not an
    # option names the command.
    command = next((word for word in argv if not word.startswith("-")), None)
    parser = build_parser(command if command in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if getattr(args, "trace", None) or getattr(args, "profile", False):
        return _traced_command(args)
    return _dispatch_command(args)


def _traced_command(args) -> int:
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
        code = _dispatch_command(args)
    finally:
        tracer = disable_tracing()
        if code is None:
            # An exception is in flight; flush best-effort without
            # masking it.
            try:
                _flush_trace(args, tracer, None)
            except Exception:  # pragma: no cover - double-fault path
                pass
    return _flush_trace(args, tracer, code)


def _flush_trace(args, tracer, code: Optional[int]) -> int:
    """Write the trace bundle and/or print the profile; returns exit code."""

    from repro.obs import build_profile, format_profile, write_trace

    trace_path = getattr(args, "trace", None)
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
    if getattr(args, "profile", False):
        # records() includes adopted foreign spans, so a dispatch run's
        # profile covers the whole fleet (cross-process critical path).
        profile = build_profile(tracer.records())
        print()
        print(format_profile(profile))
    return code if code is not None else 1


def _dispatch_command(args) -> int:
    from repro.checks import StaticAnalysisError, enable_checks

    if getattr(args, "check", False):
        enable_checks()
    try:
        return _COMMANDS[args.command](args)
    except StaticAnalysisError as exc:
        print(f"static analysis failed:\n{exc.report.format()}",
              file=sys.stderr)
        return 1
