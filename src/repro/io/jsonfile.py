"""Versioned JSON artefacts on disk: the schema gate and the file helpers.

Standard library only, so that a process which reads or writes artefacts
without converting programs or results -- the exporter, the dispatcher, the
work ledger, the experiment store -- loads no data-model layer.
:mod:`repro.io` and :mod:`repro.io.serialization` re-export every name here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

#: Version stamped into every persisted payload (programs, results, figure
#: bundles, experiment-store rows).  Bump when a field changes meaning or is
#: removed, or when an addition carries semantics downstream tooling must be
#: able to detect (inert additions alone do not require one).  Loaders accept
#: any version up to and including this one (missing = 0, the pre-versioned
#: format).
#:
#: History: 1 = first versioned format; 2 = experiment-store rows may carry a
#: per-point ``wall_s`` timing (absent in v1 rows, which still load -- missing
#: timings are treated as unknown, never as zero; the bump is what lets
#: timing-aware tooling tell the two generations apart); 3 = experiment-store
#: rows may carry a ``provenance`` stamp (strategy name, seed, multi-fidelity
#: rung) and dispatch manifests may declare a coordination ``mode``
#: (``"shards"`` or ``"adaptive"`` propose/evaluate) -- v1/v2 artefacts still
#: load with provenance absent and mode defaulting to shards.
SCHEMA_VERSION = 3


def check_schema_version(payload: Dict, *, source: str = "payload") -> int:
    """Validate a payload's ``schema_version`` against what this build reads.

    Returns the payload's version (``0`` for pre-versioned artefacts, which
    are always accepted).  Raises ``ValueError`` for payloads written by a
    *newer* schema than this build understands -- silently misreading a field
    is worse than a loud failure.
    """

    if not isinstance(payload, dict):
        raise ValueError(f"{source}: expected a JSON object, got "
                         f"{type(payload).__name__}")
    version = payload.get("schema_version", 0)
    if not isinstance(version, int) or version < 0:
        raise ValueError(f"{source}: malformed schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"{source}: schema_version {version} is newer than the supported "
            f"version {SCHEMA_VERSION}; upgrade the toolflow to read it"
        )
    return version


def save_json(payload, path) -> Path:
    """Write ``payload`` (any JSON-safe structure) to ``path``; returns the path."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
    return path


def load_json(path) -> Dict:
    """Read a JSON artefact written by :func:`save_json`."""

    with open(path) as handle:
        return json.load(handle)
