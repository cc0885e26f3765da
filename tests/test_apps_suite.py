"""Unit tests for the Table II suite helpers."""

import pytest

from repro.apps.suite import (
    APPLICATION_NAMES,
    PAPER_TABLE2,
    application_summary,
    build_application,
    scaled_suite,
    table2_suite,
)
from repro.models.shuttle_times import operation_times
from repro.toolflow.tables import format_table2_text, table2


class TestBuildApplication:
    def test_all_names_buildable_small(self):
        for name in APPLICATION_NAMES:
            circuit = build_application(name, num_qubits=12)
            assert circuit.num_two_qubit_gates > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_application("Shor")

    def test_zero_qubits_is_not_the_default_size(self):
        with pytest.raises(ValueError):
            build_application("QFT", num_qubits=0)

    def test_default_sizes_match_paper_qubits(self):
        for name in ("QFT", "QAOA", "Supremacy", "Adder", "BV"):
            assert build_application(name).num_qubits == PAPER_TABLE2[name]["qubits"]

    def test_squareroot_default_size(self):
        assert build_application("SquareRoot").num_qubits == 78


class TestScaledSuite:
    def test_keys_match_application_names(self):
        suite = scaled_suite(12)
        assert set(suite) == set(APPLICATION_NAMES)

    def test_sizes_bounded(self):
        suite = scaled_suite(12)
        for circuit in suite.values():
            assert circuit.num_qubits <= 13

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            scaled_suite(4)


class TestSummaries:
    def test_application_summary_rows(self):
        rows = application_summary(scaled_suite(12))
        assert len(rows) == len(APPLICATION_NAMES)
        for row in rows:
            assert row["two_qubit_gates"] > 0
            assert row["paper_qubits"] > 0

    def test_table1_values(self):
        rows = operation_times()
        assert rows["Move ion through one segment"] == 5.0
        assert rows["Crossing X-junction"] == 120.0

    def test_table2_gate_counts_match_the_paper(self):
        """QFT, QAOA and Supremacy reproduce Table II's two-qubit gate
        counts exactly; Adder, BV and SquareRoot within 15%."""

        rows = {row["application"]: row
                for row in application_summary(table2_suite())}
        for name in ("QFT", "QAOA", "Supremacy"):
            assert rows[name]["two_qubit_gates"] == \
                PAPER_TABLE2[name]["two_qubit_gates"]
        for name in ("Adder", "BV", "SquareRoot"):
            paper = PAPER_TABLE2[name]["two_qubit_gates"]
            assert abs(rows[name]["two_qubit_gates"] - paper) / paper < 0.15
        for name, row in rows.items():
            assert row["qubits"] == PAPER_TABLE2[name]["qubits"]

    def test_table2_uses_custom_suite(self):
        rows = table2(scaled_suite(12))
        assert all(row["qubits"] <= 13 for row in rows)

    def test_format_table2_text(self):
        text = format_table2_text(scaled_suite(12))
        for name in APPLICATION_NAMES:
            assert name in text
