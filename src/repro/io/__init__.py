"""Serialization of toolflow artefacts, and the append-only log.

Design-space exploration produces three kinds of artefacts a user wants to
persist and post-process outside Python: compiled programs, simulation
results, and figure bundles (sweep series).  This package serialises all three
to plain JSON so they can be diffed, archived next to EXPERIMENTS.md, or
plotted with external tooling.  :mod:`repro.io.appendlog` is the JSONL log
behind the experiment store, worker telemetry and trace shards.

The serialization names are re-exported on first access (PEP 562): eagerly,
``serialization`` -> toolflow -> :mod:`repro.obs` -> ``repro.io.appendlog``
would be an import cycle.
"""

__all__ = [
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
    "records_to_json",
    "result_to_dict",
    "save_json",
]


def __getattr__(name: str):
    if name in __all__:
        from repro.io import serialization

        return getattr(serialization, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
