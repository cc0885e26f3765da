"""Unit tests for text rendering and the single-trap baseline."""

import pytest

from repro.apps import qft_circuit
from repro.baselines import simulate_single_trap, single_trap_sweep
from repro.hardware import build_device
from repro.toolflow import ArchitectureConfig, run_experiment
from repro.visualize import (
    ascii_bar_chart,
    ascii_line_chart,
    device_report,
    experiment_report,
)


class TestAsciiCharts:
    def test_line_chart_contains_legend(self):
        chart = ascii_line_chart([1, 2, 3], {"QFT": [0.1, 0.2, 0.3], "BV": [0.9, 0.9, 0.8]},
                                 title="fidelity")
        assert "fidelity" in chart
        assert "o=QFT" in chart
        assert "x=BV" in chart

    def test_line_chart_handles_empty(self):
        assert "(no data)" in ascii_line_chart([], {})
        assert "(no data)" in ascii_line_chart([1], {"A": []})

    def test_line_chart_constant_series(self):
        chart = ascii_line_chart([1, 2], {"flat": [0.5, 0.5]})
        assert "flat" in chart

    def test_bar_chart(self):
        chart = ascii_bar_chart({"L6": 0.5, "G2x3": 1.0}, title="ratio")
        assert "ratio" in chart
        assert chart.count("#") > 0

    def test_bar_chart_empty(self):
        assert "(no data)" in ascii_bar_chart({})

    def test_bar_chart_zero_values(self):
        chart = ascii_bar_chart({"a": 0.0, "b": 0.0})
        assert "a" in chart


class TestReports:
    def test_device_report(self):
        device = build_device("G2x3", trap_capacity=15, num_qubits=60)
        report = device_report(device)
        assert "T5" in report
        assert "J1" in report
        assert "Segments" in report

    def test_experiment_report(self, qaoa8, small_config):
        record = run_experiment(qaoa8, small_config)
        report = experiment_report([record])
        assert qaoa8.name in report
        assert "L3" in report

    def test_experiment_report_empty(self):
        assert experiment_report([]) == "(no experiments)"


class TestSingleTrapBaseline:
    def test_no_communication(self):
        for gate in ("AM1", "AM2", "PM", "FM"):
            result = simulate_single_trap(qft_circuit(8), gate=gate)
            assert result.num_shuttles == 0
            assert result.communication_time == 0.0
            assert result.max_motional_energy == 0.0

    def test_fidelity_degrades_with_size(self):
        small = simulate_single_trap(qft_circuit(8))
        large = simulate_single_trap(qft_circuit(24))
        assert large.fidelity < small.fidelity
        fidelities = [result.fidelity for result in
                      single_trap_sweep(qft_circuit, sizes=(8, 16, 24))]
        assert fidelities == sorted(fidelities, reverse=True)

    def test_am1_slower_than_fm_for_long_chains(self):
        fm = simulate_single_trap(qft_circuit(16), gate="FM")
        am1 = simulate_single_trap(qft_circuit(16), gate="AM1")
        assert am1.duration > fm.duration

    def test_sweep(self):
        results = single_trap_sweep(qft_circuit, sizes=(4, 8, 12))
        assert len(results) == 3
        assert results[0].fidelity >= results[-1].fidelity

    def test_gate_count_matches_circuit(self):
        circuit = qft_circuit(6)
        result = simulate_single_trap(circuit)
        assert result.num_ms_gates == circuit.num_two_qubit_gates

    def test_laser_instability_scales_with_chain(self):
        """Per-gate error grows with the chain length (the motivation for
        keeping traps small; Section III.A)."""

        small = simulate_single_trap(qft_circuit(8))
        large = simulate_single_trap(qft_circuit(32))
        assert large.mean_motional_error > small.mean_motional_error
