"""Unit tests for the design-space exploration toolflow."""

import pytest

from repro.apps import scaled_suite
from repro.dse import DSERunner
from repro.toolflow import (
    ArchitectureConfig,
    figure6,
    figure7,
    figure8,
    run_experiment,
    run_gate_variants,
)
from repro.toolflow.sweep import (
    capacity_space,
    microarchitecture_space,
    topology_space,
)


@pytest.fixture(scope="module")
def mini_suite():
    """Two small applications keyed by canonical name (keeps sweeps fast)."""

    full = scaled_suite(10)
    return {"QFT": full["QFT"], "QAOA": full["QAOA"]}


class TestArchitectureConfig:
    def test_name(self):
        config = ArchitectureConfig(topology="G2x3", trap_capacity=18, gate="PM",
                                    reorder="IS")
        assert config.name == "G2x3-cap18-PM-IS"

    def test_num_traps(self):
        assert ArchitectureConfig(topology="L6").num_traps() == 6
        assert ArchitectureConfig(topology="G2x3").num_traps() == 6

    def test_build_device_sizes_for_circuit(self):
        config = ArchitectureConfig(topology="L6", trap_capacity=14)
        device = config.build_device(num_qubits=64)
        assert device.num_qubits == 64
        assert device.buffer_ions == 2

    def test_buffer_relaxed_when_needed(self):
        # 78 qubits on 6x14 traps requires shrinking the 2-slot buffer.
        config = ArchitectureConfig(topology="L6", trap_capacity=14)
        assert config.max_buffer_for(78) == 1
        device = config.build_device(num_qubits=78)
        assert device.buffer_ions == 1

    def test_impossible_fit_rejected(self):
        config = ArchitectureConfig(topology="L2", trap_capacity=10)
        with pytest.raises(ValueError):
            config.build_device(num_qubits=100)

    def test_with_updates(self):
        config = ArchitectureConfig().with_updates(gate="AM2", trap_capacity=30)
        assert config.gate == "AM2"
        assert config.trap_capacity == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(trap_capacity=1)
        with pytest.raises(ValueError):
            ArchitectureConfig(buffer_ions=-1)


class TestRunner:
    def test_run_experiment_record(self, qaoa8, small_config):
        record = run_experiment(qaoa8, small_config)
        assert 0.0 <= record.fidelity <= 1.0
        assert record.duration_seconds > 0.0
        assert record.program_size > 0
        row = record.as_row()
        assert row["application"] == qaoa8.name
        assert row["capacity"] == small_config.trap_capacity

    def test_run_gate_variants_shares_compilation(self, qft8, small_config):
        records = run_gate_variants(qft8, small_config, gates=("AM1", "FM"))
        assert set(records) == {"AM1", "FM"}
        assert records["AM1"].program_size == records["FM"].program_size
        assert records["AM1"].num_shuttles == records["FM"].num_shuttles
        assert records["AM1"].result.duration > records["FM"].result.duration

    def test_gate_variant_config_labels(self, qft8, small_config):
        records = run_gate_variants(qft8, small_config, gates=("PM",))
        assert records["PM"].config.gate == "PM"


def _sweep(suite, space):
    return DSERunner(space, circuits=suite).evaluate_space()


class TestSweeps:
    def test_sweep_capacity(self, mini_suite):
        base = ArchitectureConfig(topology="L3")
        records = _sweep(mini_suite, capacity_space(mini_suite, (6, 8), base))
        assert len(records) == 4
        capacities = {record.config.trap_capacity for record in records}
        assert capacities == {6, 8}

    def test_sweep_topologies(self, mini_suite):
        base = ArchitectureConfig()
        records = _sweep(mini_suite, topology_space(
            mini_suite, ("L3", "G2x2"), (8,), base))
        assert len(records) == 4
        assert {record.config.topology for record in records} == {"L3", "G2x2"}

    def test_sweep_microarchitecture(self, mini_suite):
        base = ArchitectureConfig(topology="L3")
        records = _sweep(mini_suite, microarchitecture_space(
            mini_suite, (8,), ("FM", "AM2"), ("GS",), base))
        assert len(records) == 4

    def test_records_to_rows(self, mini_suite):
        base = ArchitectureConfig(topology="L3")
        records = _sweep(mini_suite, capacity_space(mini_suite, (8,), base))
        rows = [record.as_row() for record in records]
        assert [row["capacity"] for row in rows] == [8] * len(records)


class TestFigureHarnesses:
    def test_figure6_structure(self, mini_suite):
        bundle = figure6(mini_suite, capacities=(6, 8),
                         base=ArchitectureConfig(topology="L3"))
        assert bundle["capacities"] == [6, 8]
        assert set(bundle["runtime_s"]) == set(mini_suite)
        assert len(bundle["fidelity"]["QFT"]) == 2
        assert len(bundle["qft_breakdown"]["computation_s"]) == 2
        assert len(bundle["max_motional_energy"]["QAOA"]) == 2

    def test_figure7_structure(self, mini_suite):
        bundle = figure7(mini_suite, capacities=(8,), topologies=("L3", "G2x2"),
                         base=ArchitectureConfig())
        assert bundle["topologies"] == ["L3", "G2x2"]
        assert set(bundle["fidelity"]["QFT"]) == {"L3", "G2x2"}
        assert len(bundle["runtime_s"]["QAOA"]["L3"]) == 1

    def test_figure8_structure(self, mini_suite):
        bundle = figure8(mini_suite, capacities=(8,), gates=("FM", "AM2"),
                         reorders=("GS", "IS"), base=ArchitectureConfig(topology="L3"))
        assert set(bundle["combos"]) == {"FM-GS", "AM2-GS", "FM-IS", "AM2-IS"}
        for combo in bundle["combos"]:
            assert len(bundle["fidelity"]["QFT"][combo]) == 1
            assert len(bundle["runtime_s"]["QAOA"][combo]) == 1
