"""Unit tests for JSON serialisation of programs, results and sweeps."""

import json

import pytest

from repro.io import (
    SCHEMA_VERSION,
    check_schema_version,
    config_from_dict,
    config_to_dict,
    figure_bundle_to_dict,
    load_json,
    model_from_dict,
    model_to_dict,
    program_to_dict,
    result_to_dict,
    save_json,
)
from repro.toolflow import ArchitectureConfig, figure6


class TestProgramSerialization:
    def test_round_trip_structure(self, compiled_qft8, tmp_path):
        program, _ = compiled_qft8
        payload = program_to_dict(program)
        path = save_json(payload, tmp_path / "program.json")
        loaded = load_json(path)
        assert loaded["num_operations"] == len(program)
        assert len(loaded["operations"]) == len(program)
        assert loaded["circuit"] == program.circuit_name

    def test_operations_carry_kind_and_dependencies(self, compiled_qft8):
        program, _ = compiled_qft8
        payload = program_to_dict(program)
        for entry, op in zip(payload["operations"], program.operations):
            assert entry["kind"] == op.kind.value
            assert entry["dependencies"] == list(op.dependencies)

    def test_placement_serialised(self, compiled_qft8):
        program, _ = compiled_qft8
        payload = program_to_dict(program)
        assert set(payload["placement"]) == {"qubit_to_ion", "ion_to_trap", "trap_chains"}
        assert len(payload["placement"]["qubit_to_ion"]) == 8

    def test_json_serialisable(self, compiled_qft8):
        program, _ = compiled_qft8
        json.dumps(program_to_dict(program))


class TestResultSerialization:
    def test_metrics_present(self, simulated_qft8):
        _, _, result = simulated_qft8
        payload = result_to_dict(result)
        assert payload["fidelity"] == pytest.approx(result.fidelity)
        assert payload["duration_s"] == pytest.approx(result.duration_seconds)


class TestSchemaVersion:
    """Every persisted payload is stamped and round-trips its version."""

    def test_payloads_carry_schema_version(self, compiled_qft8, simulated_qft8):
        program, _ = compiled_qft8
        _, _, result = simulated_qft8
        assert program_to_dict(program)["schema_version"] == SCHEMA_VERSION
        assert result_to_dict(result)["schema_version"] == SCHEMA_VERSION

    def test_round_trip_preserves_version(self, simulated_qft8, tmp_path):
        _, _, result = simulated_qft8
        path = save_json(result_to_dict(result), tmp_path / "result.json")
        loaded = load_json(path)
        assert check_schema_version(loaded) == SCHEMA_VERSION
        # Re-saving a loaded payload keeps it readable (compat round trip).
        again = load_json(save_json(loaded, tmp_path / "copy.json"))
        assert again == loaded

    def test_pre_versioned_payloads_accepted(self):
        assert check_schema_version({"fidelity": 0.5}) == 0

    def test_future_version_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            check_schema_version({"schema_version": SCHEMA_VERSION + 1})

    def test_malformed_version_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            check_schema_version({"schema_version": "two"})


class TestConfigModelRoundTrip:
    def test_config_round_trip_with_model(self):
        from dataclasses import replace

        base = ArchitectureConfig(topology="G2x2", trap_capacity=8, gate="PM",
                                  reorder="IS", buffer_ions=1)
        hot = replace(base.model, heating=replace(base.model.heating, k1=0.5))
        config = base.with_updates(model=hot)
        payload = json.loads(json.dumps(config_to_dict(config, include_model=True)))
        rebuilt = config_from_dict(payload)
        assert rebuilt == config
        assert rebuilt.model.heating.k1 == 0.5

    def test_model_round_trip_is_exact(self):
        from repro.models.params import PhysicalModel

        model = PhysicalModel()
        payload = json.loads(json.dumps(model_to_dict(model)))
        assert model_from_dict(payload) == model


class TestBundleSerialization:
    def test_figure_bundle(self, small_suite, tmp_path):
        bundle = figure6({"QFT": small_suite["QFT"]}, capacities=(6, 8),
                         base=ArchitectureConfig(topology="L3"))
        payload = figure_bundle_to_dict(bundle)
        assert payload["capacities"] == [6, 8]
        assert payload["config"]["topology"] == "L3"
        path = save_json(payload, tmp_path / "nested" / "fig6.json")
        assert path.exists()
        loaded = load_json(path)
        assert loaded["fidelity"]["QFT"] == payload["fidelity"]["QFT"]
