"""The trace tools: ``profile`` of a recorded trace and ``trace merge`` of
a store's worker streams."""

import sys

from repro.cli import _positive_int, _write_json


def add_arguments(parsers) -> None:
    """Declare the arguments of this group's commands on their parsers."""

    profile = parsers["profile"]
    profile.description = (
        "Read the flat span JSONL a --trace run wrote (pass either the "
        "OUT.spans.jsonl file or the OUT.json trace whose .spans.jsonl "
        "sits beside it) and print the aggregate profile: self/total time "
        "and call-duration quantiles per span name, the call tree with "
        "self time telescoping to the traced wall time, and the critical "
        "path.  Deterministic: the same trace file always renders "
        "byte-identically.")
    # Not named "trace": that names the --trace flag, which arms the tracer.
    profile.add_argument("spans", metavar="TRACE",
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

    merge = parsers["trace"].add_subparsers(dest="trace_command").add_parser(
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
    merge.add_argument("--store", required=True,
                       help="experiment-store directory of a traced "
                            "dispatch")
    merge.add_argument("--output", required=True, metavar="OUT.JSON",
                       help="path of the merged Chrome trace")


def _cmd_profile(args) -> int:
    from pathlib import Path

    from repro.obs import (atomic_write_text, build_profile, format_profile,
                           parse_spans_jsonl)

    path = Path(args.spans)
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
    if args.trace_command != "merge":
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


#: The handler of each of this group's commands.
COMMANDS = {"profile": _cmd_profile, "trace": _cmd_trace}
