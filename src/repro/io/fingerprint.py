"""Stable fingerprints for circuits, programs and results.

Fingerprints serve two purposes:

* **Cache keys.**  The compiled-program cache
  (:mod:`repro.toolflow.parallel`) keys compilations by the structural
  identity of the circuit plus the compile-relevant architecture knobs, so
  sweeps that revisit a design point reuse the earlier compilation.
* **Determinism regression.**  The golden-snapshot tests hash compiled
  programs and simulation metrics so that compiler/simulator rewrites can be
  checked for bit-identical behaviour against the seed implementation.

Every fingerprint is a SHA-256 hex digest over a canonical text rendering.
Floats are rendered with ``float.hex`` so the digests are sensitive to the
last bit -- "close enough" is not equal here by design.  A program renders
each op record as its op class's dataclass ``repr``, without building it.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.ir.circuit import Circuit
from repro.isa.program import QCCDProgram
from repro.sim.results import SimulationResult


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural identity of a circuit (name, width and exact gate list).

    Memoised per circuit instance (keyed on the current gate count, so a
    circuit mutated through its builder API re-fingerprints): sweeps hash the
    same few suite circuits for every design point's cache key.
    """

    cached = circuit.__dict__.get("_fingerprint_cache")
    if cached is not None and cached[0] == len(circuit):
        return cached[1]
    parts = [circuit.name, str(circuit.num_qubits)]
    for gate in circuit.gates:
        params = ",".join(value.hex() for value in map(float, gate.params))
        parts.append(f"{gate.name}|{','.join(map(str, gate.qubits))}|{params}")
    digest = _digest("\n".join(parts))
    circuit.__dict__["_fingerprint_cache"] = (len(circuit), digest)
    return digest


def design_point_fingerprint(circuit: Circuit, config) -> str:
    """Stable identity of one design point: circuit structure x architecture.

    Keys the :class:`~repro.dse.store.ExperimentStore`: a point evaluated
    once is never recomputed, regardless of how its spec was written down
    (suite circuit object, ``--space`` JSON, shard split, ...).  The digest
    covers the circuit's structural fingerprint, every architecture knob and
    every physical-model constant (floats rendered with ``float.hex`` so two
    points are identical only when every model parameter is bit-identical).
    """

    import dataclasses

    def _flatten(prefix: str, value, parts) -> None:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                _flatten(f"{prefix}.{field.name}", getattr(value, field.name), parts)
        elif isinstance(value, float):
            parts.append(f"{prefix}={value.hex()}")
        else:
            parts.append(f"{prefix}={value!r}")

    parts = [
        circuit_fingerprint(circuit),
        f"topology={config.topology}",
        f"trap_capacity={config.trap_capacity}",
        f"gate={config.gate}",
        f"reorder={config.reorder}",
        f"buffer_ions={config.buffer_ions}",
    ]
    _flatten("model", config.model, parts)
    return _digest("\n".join(parts))


def program_fingerprint(program: QCCDProgram) -> str:
    """Digest of a compiled program: op sequence plus initial placement
    (class and field names of each op's ``repr`` read off its class)."""

    from repro.isa.operations import OP_CLASSES, RECORD_FIELDS

    signatures = [cls.__qualname__ + "(op_id=%r" + "".join(
        f", {name}=%r" for name in RECORD_FIELDS[cls]) + ")"
        for cls in OP_CLASSES]
    parts = [program.circuit_name, program.device_name]
    placement = program.placement
    parts.append(repr(sorted(placement.qubit_to_ion.items())))
    parts.append(repr(sorted(placement.ion_to_trap.items())))
    parts.append(repr(sorted(placement.trap_chains.items())))
    parts.extend(signatures[record[0]] % (index, *record[1:])
                 for index, record in enumerate(program.records))
    return _digest("\n".join(parts))


def result_metrics_hex(result: SimulationResult) -> Dict[str, object]:
    """The headline metrics of a result with floats rendered exactly.

    Used by the determinism regression tests: two results compare equal here
    only when every metric is bit-identical.
    """

    return {
        "duration": result.duration.hex(),
        "fidelity": result.fidelity.hex(),
        "log_fidelity": result.log_fidelity.hex(),
        "computation_time": result.computation_time.hex(),
        "communication_time": result.communication_time.hex(),
        "mean_background_error": result.mean_background_error.hex(),
        "mean_motional_error": result.mean_motional_error.hex(),
        "total_background_error": result.total_background_error.hex(),
        "total_motional_error": result.total_motional_error.hex(),
        "max_motional_energy": result.max_motional_energy.hex(),
        "final_trap_energies": {
            name: value.hex() for name, value in sorted(result.final_trap_energies.items())
        },
        "peak_occupancy": dict(sorted(result.peak_occupancy.items())),
        "trap_gate_busy_time": {
            name: value.hex() for name, value in sorted(result.trap_gate_busy_time.items())
        },
        "trap_comm_busy_time": {
            name: value.hex() for name, value in sorted(result.trap_comm_busy_time.items())
        },
        "op_counts": {kind.value: count for kind, count in sorted(
            result.op_counts.items(), key=lambda item: item[0].value)},
        "num_shuttles": result.num_shuttles,
        "num_ms_gates": result.num_ms_gates,
    }


def result_fingerprint(result: SimulationResult) -> str:
    """Digest of every headline metric of a simulation result."""

    return _digest(repr(sorted(result_metrics_hex(result).items(), key=lambda kv: kv[0])))
