"""Unit tests for simulation results and derived metrics."""

import math

import pytest

from repro.isa.operations import OpKind
from repro.sim.metrics import communication_fraction, shuttles_per_two_qubit_gate
from repro.sim.results import SimulationResult


def make_result(**overrides):
    base = dict(
        duration=1000.0,
        fidelity=0.5,
        log_fidelity=math.log(0.5),
        computation_time=600.0,
        communication_time=400.0,
        op_counts={OpKind.GATE_2Q: 10, OpKind.SPLIT: 4, OpKind.MERGE: 4,
                   OpKind.MOVE: 6, OpKind.SWAP_GATE: 2, OpKind.GATE_1Q: 5},
        mean_background_error=1e-5,
        mean_motional_error=4e-4,
        total_background_error=1e-4,
        total_motional_error=4e-3,
        max_motional_energy=7.5,
        final_trap_energies={"T0": 3.0, "T1": 5.0},
        peak_occupancy={"T0": 10, "T1": 12},
        num_shuttles=4,
        num_ms_gates=16,
        trap_gate_busy_time={"T0": 300.0, "T1": 500.0},
        trap_comm_busy_time={"T0": 100.0, "T1": 50.0},
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestSimulationResult:
    def test_unit_conversions(self):
        result = make_result()
        assert result.duration_seconds == pytest.approx(1e-3)
        assert result.computation_seconds == pytest.approx(6e-4)
        assert result.communication_seconds == pytest.approx(4e-4)

    def test_mean_two_qubit_error(self):
        assert make_result().mean_two_qubit_error == pytest.approx(4.1e-4)

    def test_count_helpers(self):
        result = make_result()
        assert result.count(OpKind.SPLIT) == 4
        assert result.count(OpKind.ION_SWAP) == 0

    def test_as_dict_keys(self):
        row = make_result().as_dict()
        assert row["fidelity"] == 0.5
        assert row["duration_s"] == pytest.approx(1e-3)
        assert "max_motional_energy" in row

    def test_fidelity_from_log(self):
        assert SimulationResult.fidelity_from_log(-math.inf) == 0.0
        assert SimulationResult.fidelity_from_log(0.0) == 1.0
        assert SimulationResult.fidelity_from_log(math.log(0.25)) == pytest.approx(0.25)


class TestMetrics:
    def test_communication_fraction(self):
        assert communication_fraction(make_result()) == pytest.approx(0.4)
        assert communication_fraction(make_result(duration=0.0)) == 0.0

    def test_shuttles_per_gate(self):
        assert shuttles_per_two_qubit_gate(make_result()) == pytest.approx(0.4)
        empty = make_result(op_counts={}, num_shuttles=0)
        assert shuttles_per_two_qubit_gate(empty) == 0.0

    def test_program_expansion(self, compiled_qft8):
        """Compilation adds communication and drops no application gate."""

        program, _ = compiled_qft8
        app_ops = (program.count(OpKind.GATE_1Q) + program.count(OpKind.GATE_2Q)
                   + program.count(OpKind.MEASURE))
        assert len(program) >= app_ops
