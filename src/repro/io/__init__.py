"""Serialization of toolflow artefacts, and the append-only log.

Design-space exploration produces three kinds of artefacts a user wants to
persist and post-process outside Python: compiled programs, simulation
results, and figure bundles (sweep series).  This package serialises all three
to plain JSON so they can be diffed, archived next to EXPERIMENTS.md, or
plotted with external tooling.  :mod:`repro.io.appendlog` is the JSONL log
behind the experiment store and the worker event streams.

The serialization names are re-exported on first access (PEP 562,
:mod:`repro._lazy`), so a process that only appends to a log never imports
the serializers or the layers they describe.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.serialization": (
        "SCHEMA_VERSION",
        "check_schema_version",
        "config_from_dict",
        "config_to_dict",
        "figure_bundle_to_dict",
        "load_json",
        "model_from_dict",
        "model_to_dict",
        "program_from_dict",
        "program_to_dict",
        "result_to_dict",
        "save_json",
    ),
})
