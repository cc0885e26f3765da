"""Unit tests for the analysis helpers (series, comparisons, breakdowns)."""

import pytest

from repro.analysis.breakdown import error_contributions, time_breakdown
from repro.analysis.compare import (
    best_worst_ratio,
    crossover_capacity,
    gate_choice_improvement,
    reorder_fidelity_ratio,
    topology_fidelity_ratio,
)
from repro.analysis.series import flatten_nested_series, format_series_table
from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.sim import simulate


class TestSeries:
    def test_format_series_table(self):
        text = format_series_table([14, 18], {"QFT": [0.1, 0.2]}, title="Fidelity")
        assert "Fidelity" in text
        assert "capacity" in text
        assert "14" in text and "0.2" in text

    def test_format_series_table_missing_values(self):
        text = format_series_table([14, 18], {"QFT": [0.1]})
        assert "-" in text

    def test_flatten_nested_series(self):
        flat = flatten_nested_series({"QFT": {"L6": [1], "G2x3": [2]}})
        assert flat == {"QFT/L6": [1], "QFT/G2x3": [2]}


class TestCompare:
    def test_best_worst_ratio(self):
        assert best_worst_ratio([0.1, 0.5, 1.0]) == pytest.approx(10.0)
        assert best_worst_ratio([]) == 1.0
        assert best_worst_ratio([0.0, 1.0]) == float("inf")

    def test_topology_ratio(self):
        ratio = topology_fidelity_ratio({"G2x3": [0.5, 0.6], "L6": [0.001, 0.3]},
                                        better="G2x3", worse="L6")
        assert ratio == pytest.approx(500.0)

    def test_gate_choice_improvement(self):
        combos = {"FM-GS": [0.9, 0.8], "AM1-GS": [0.1, 0.4]}
        assert gate_choice_improvement(combos, "FM", "AM1") == pytest.approx(9.0)

    def test_reorder_ratio(self):
        combos = {"FM-GS": [0.9], "FM-IS": [0.09]}
        assert reorder_fidelity_ratio(combos, gate="FM") == pytest.approx(10.0)

    def test_crossover_capacity(self):
        assert crossover_capacity([14, 18, 22, 26], [0.1, 0.4, 0.5, 0.2]) == 22
        with pytest.raises(ValueError):
            crossover_capacity([], [])


class TestBreakdown:
    @pytest.fixture
    def result(self, qft8):
        device = build_device("L3", trap_capacity=6, num_qubits=8)
        return simulate(compile_circuit(qft8, device), device)

    def test_error_contributions(self, result):
        contributions = error_contributions(result)
        assert contributions["total"] == pytest.approx(
            contributions["background"] + contributions["motional"])
        assert 0.0 <= contributions["motional_share"] <= 1.0

    def test_time_breakdown(self, result):
        breakdown = time_breakdown(result)
        assert breakdown["total_s"] == pytest.approx(
            breakdown["computation_s"] + breakdown["communication_s"])
        assert 0.0 <= breakdown["communication_fraction"] <= 1.0

    def test_heating_profile(self, result):
        """The device maximum over time bounds every trap's final energy."""

        assert result.max_motional_energy >= max(
            result.final_trap_energies.values()) - 1e-9
