"""JSON serialisation of programs, results and sweep outputs.

The format is intentionally flat and stable:

* a compiled program becomes ``{"circuit", "device", "placement", "operations"}``
  with one dictionary per operation (kind, operands, annotations,
  dependencies);
* a simulation result becomes its headline metrics plus operation counts and
  per-trap energies;
* a figure bundle (the output of :func:`repro.toolflow.figures.figure6` etc.)
  becomes the same nested dictionaries with the non-serialisable
  ``ArchitectureConfig`` replaced by its name and fields.

Loading returns plain dictionaries -- the JSON files are an interchange
format, not a substitute for recompiling.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, List

from repro.isa.operations import KINDS, OP_CLASSES
from repro.isa.program import InitialPlacement, QCCDProgram
from repro.models.params import (
    FidelityParams,
    HeatingParams,
    PhysicalModel,
    ShuttleTimes,
    SingleQubitParams,
)
from repro.sim.results import SimulationResult
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.runner import ExperimentRecord

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

    version = payload.get("schema_version", 0)
    if not isinstance(version, int) or version < 0:
        raise ValueError(f"{source}: malformed schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"{source}: schema_version {version} is newer than the supported "
            f"version {SCHEMA_VERSION}; upgrade the toolflow to read it"
        )
    return version


def _jsonify(value):
    """Recursively convert dataclasses, enums and tuples to JSON-safe types."""

    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {key: _jsonify(item) for key, item in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {_key_to_str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _key_to_str(key):
    if isinstance(key, Enum):
        return key.value
    return str(key) if not isinstance(key, (str, int, float, bool)) else key


# --------------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------------- #
def program_to_dict(program: QCCDProgram) -> Dict:
    """Serialise a compiled program (operations, placement, metadata)."""

    operations: List[Dict] = []
    for op in program.operations:
        entry = {"kind": op.kind.value, "op_id": op.op_id,
                 "dependencies": list(op.dependencies)}
        for field in dataclasses.fields(op):
            if field.name in ("op_id", "dependencies"):
                continue
            entry[field.name] = _jsonify(getattr(op, field.name))
        operations.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "circuit": program.circuit_name,
        "device": program.device_name,
        "metadata": _jsonify(program.metadata),
        "placement": {
            "qubit_to_ion": {str(q): ion for q, ion in program.placement.qubit_to_ion.items()},
            "ion_to_trap": {str(i): trap for i, trap in program.placement.ion_to_trap.items()},
            "trap_chains": {trap: list(chain)
                            for trap, chain in program.placement.trap_chains.items()},
        },
        "num_operations": len(program),
        "op_counts": {kind.value: count for kind, count in program.op_counts().items()},
        "operations": operations,
    }


def program_from_dict(payload: Dict) -> QCCDProgram:
    """Rebuild a :class:`QCCDProgram` from :func:`program_to_dict` output.

    The inverse exists for offline verification (``repro check --program``)
    and program diffing; recompiling stays the canonical way to obtain a
    program.  Construction re-runs every ``__post_init__`` check, and each
    entry's ``kind`` tag must match the op its fields build (a ``gate_1q``
    entry with two ions is refused) as must a declared ``num_operations``,
    so a hand-edited payload fails here before the verifier ever sees it.
    """

    check_schema_version(payload, source="program payload")
    placement_payload = payload["placement"]
    placement = InitialPlacement(
        qubit_to_ion={int(q): ion
                      for q, ion in placement_payload["qubit_to_ion"].items()},
        ion_to_trap={int(i): trap
                     for i, trap in placement_payload["ion_to_trap"].items()},
        trap_chains={trap: tuple(chain)
                     for trap, chain in placement_payload["trap_chains"].items()},
    )
    entries = payload["operations"]
    declared = payload.get("num_operations")
    if declared is not None and declared != len(entries):
        raise ValueError(f"program payload: num_operations is {declared} but "
                         f"{len(entries)} operations are listed")
    operations = []
    for position, entry in enumerate(entries):
        fields = dict(entry)
        kind = fields.pop("kind")
        op_type = _OP_TYPES.get(kind)
        if op_type is None:
            raise ValueError(f"program payload: unknown operation kind {kind!r}")
        fields["dependencies"] = tuple(fields.get("dependencies", ()))
        for name in ("ions", "qubits"):
            if name in fields:
                fields[name] = tuple(fields[name])
        op = op_type(**fields)
        if op.kind.value != kind:
            raise ValueError(f"program payload: operation {position} is tagged "
                             f"{kind!r} but its fields make it "
                             f"{op.kind.value!r}")
        operations.append(op)
    return QCCDProgram(
        operations=operations,
        placement=placement,
        circuit_name=payload.get("circuit", "circuit"),
        device_name=payload.get("device", "device"),
        metadata=dict(payload.get("metadata") or {}),
    )


#: Operation kind tag -> concrete class, for :func:`program_from_dict`.
#: ``gate_1q``/``gate_2q`` are both :class:`GateOp`; the arity is derived
#: from the operand tuple and must agree with the tag.
_OP_TYPES = {kind.value: cls for kind, cls in zip(KINDS, OP_CLASSES)}


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
def result_to_dict(result: SimulationResult, include_timeline: bool = False) -> Dict:
    """Serialise a simulation result's metrics (optionally with its timeline)."""

    payload = {
        "schema_version": SCHEMA_VERSION,
        "circuit": result.circuit_name,
        "device": result.device_name,
        "duration_us": result.duration,
        "duration_s": result.duration_seconds,
        "computation_s": result.computation_seconds,
        "communication_s": result.communication_seconds,
        "fidelity": result.fidelity,
        "log_fidelity": result.log_fidelity,
        "mean_background_error": result.mean_background_error,
        "mean_motional_error": result.mean_motional_error,
        "max_motional_energy": result.max_motional_energy,
        "num_shuttles": result.num_shuttles,
        "num_ms_gates": result.num_ms_gates,
        "op_counts": {kind.value: count for kind, count in result.op_counts.items()},
        "final_trap_energies": dict(result.final_trap_energies),
        "peak_occupancy": dict(result.peak_occupancy),
    }
    if include_timeline and result.timeline is not None:
        payload["timeline"] = [
            {"op_id": record.op_id, "kind": record.kind.value,
             "start": record.start, "finish": record.finish,
             "fidelity": record.fidelity}
            for record in result.timeline
        ]
    return payload


def records_to_json(records: Iterable[ExperimentRecord]) -> List[Dict]:
    """Serialise experiment records (one row per design point)."""

    rows = []
    for record in records:
        row = {
            "schema_version": SCHEMA_VERSION,
            "application": record.application,
            "config": _config_to_dict(record.config),
            "program_ops": record.program_size,
            "shuttles": record.num_shuttles,
            "result": result_to_dict(record.result),
        }
        rows.append(row)
    return rows


def _config_to_dict(config: ArchitectureConfig) -> Dict:
    return {
        "name": config.name,
        "topology": config.topology,
        "trap_capacity": config.trap_capacity,
        "gate": config.gate,
        "reorder": config.reorder,
        "buffer_ions": config.buffer_ions,
    }


# Embedded fragment: always nested inside a stamped payload (result/store
# rows), never written standalone.
def model_to_dict(model: PhysicalModel) -> Dict:  # repro: allow DT004
    """Serialise every physical-model constant (nested, by sub-model)."""

    return _jsonify(model)


def model_from_dict(payload: Dict) -> PhysicalModel:
    """Rebuild a :class:`PhysicalModel` from :func:`model_to_dict` output."""

    return PhysicalModel(
        shuttle=ShuttleTimes(**payload["shuttle"]),
        heating=HeatingParams(**payload["heating"]),
        fidelity=FidelityParams(**payload["fidelity"]),
        single_qubit=SingleQubitParams(**payload["single_qubit"]),
    )


# Embedded fragment: stamped by the store/result payloads that carry it.
def config_to_dict(config: ArchitectureConfig, *,  # repro: allow DT004
                   include_model: bool = False) -> Dict:
    """Serialise an architecture config, optionally with its physical model.

    The model is included wherever the dictionary must round-trip back to an
    equivalent config (the DSE experiment store); report-style outputs keep
    the compact model-free form.
    """

    payload = _config_to_dict(config)
    if include_model:
        payload["model"] = model_to_dict(config.model)
    return payload


def config_from_dict(payload: Dict) -> ArchitectureConfig:
    """Rebuild an :class:`ArchitectureConfig` from :func:`config_to_dict`."""

    model = (model_from_dict(payload["model"]) if "model" in payload
             else PhysicalModel())
    return ArchitectureConfig(
        topology=payload["topology"],
        trap_capacity=payload["trap_capacity"],
        gate=payload["gate"],
        reorder=payload["reorder"],
        buffer_ions=payload["buffer_ions"],
        model=model,
    )


# --------------------------------------------------------------------------- #
# Figure bundles
# --------------------------------------------------------------------------- #
def figure_bundle_to_dict(bundle: Dict) -> Dict:
    """Serialise a figure6/figure7/figure8 bundle (configs become dicts)."""

    payload = {"schema_version": SCHEMA_VERSION}
    for key, value in bundle.items():
        if isinstance(value, ArchitectureConfig):
            payload[key] = _config_to_dict(value)
        else:
            payload[key] = _jsonify(value)
    return payload


# --------------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------------- #
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
