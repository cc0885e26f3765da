"""Serialization of toolflow artefacts, and the append-only log.

Design-space exploration produces three kinds of artefacts a user wants to
persist and post-process outside Python: compiled programs, simulation
results, and figure bundles (sweep series).  This package serialises all three
to plain JSON so they can be diffed, archived next to EXPERIMENTS.md, or
plotted with external tooling.  :mod:`repro.io.appendlog` is the JSONL log
behind the experiment store and the worker event streams.

The names are re-exported on first access (PEP 562, :mod:`repro._lazy`).
The schema gate (``SCHEMA_VERSION``, ``check_schema_version``) and the file
helpers (``save_json``, ``load_json``) come from the stdlib-only
:mod:`repro.io.jsonfile`, the converters from
:mod:`repro.io.serialization`, which imports the program and result layers
only inside the functions that convert them.  So a process that only
appends to a log, writes a manifest or exports the store never imports the
converters or the layers they describe.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.jsonfile": (
        "SCHEMA_VERSION",
        "check_schema_version",
        "load_json",
        "save_json",
    ),
    "repro.io.serialization": (
        "config_from_dict",
        "config_to_dict",
        "figure_bundle_to_dict",
        "model_from_dict",
        "model_to_dict",
        "program_from_dict",
        "program_to_dict",
        "result_to_dict",
    ),
})
