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
from enum import Enum
from typing import TYPE_CHECKING, Dict, List

# The schema gate and the file helpers live in the stdlib-only
# repro.io.jsonfile and are re-exported here.
from repro.io.jsonfile import (  # noqa: F401
    SCHEMA_VERSION,
    check_schema_version,
    load_json,
    save_json,
)
from repro.models.params import (
    FidelityParams,
    HeatingParams,
    PhysicalModel,
    ShuttleTimes,
    SingleQubitParams,
)
from repro.toolflow.config import ArchitectureConfig

if TYPE_CHECKING:  # the program and result layers load only to convert them
    from repro.isa.program import QCCDProgram
    from repro.sim.results import SimulationResult


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
    """Serialise a compiled program (operations, placement, metadata).

    One dictionary per op record, keyed by its op class's field names.
    """

    from repro.isa.operations import OP_CLASSES, RECORD_FIELDS
    from repro.isa.records import KINDS

    names = [RECORD_FIELDS[cls][1:] for cls in OP_CLASSES]
    operations: List[Dict] = []
    for index, record in enumerate(program.records):
        code = record[0]
        entry = {"kind": KINDS[code].value, "op_id": index,
                 "dependencies": list(record[1])}
        for name, value in zip(names[code], record[2:]):
            entry[name] = _jsonify(value)
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
    A payload of the wrong shape raises ``ValueError`` too.
    """

    check_schema_version(payload, source="program payload")
    try:
        return _program_from_payload(payload)
    except KeyError as exc:
        raise ValueError(f"program payload: missing key {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"program payload: malformed ({exc})") from None


def _program_from_payload(payload: Dict) -> QCCDProgram:
    from repro.isa.operations import OP_CLASSES
    from repro.isa.program import InitialPlacement, QCCDProgram
    from repro.isa.records import KINDS

    # gate_1q and gate_2q both name GateOp; the arity follows from the
    # operand tuple and must agree with the tag.
    op_types = {kind.value: cls for kind, cls in zip(KINDS, OP_CLASSES)}
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
        op_type = op_types.get(kind)
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



# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
def result_to_dict(result: SimulationResult) -> Dict:
    """Serialise a simulation result's metrics."""

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
    return payload


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
