"""Harness for the paper's Table II, the benchmark suite characteristics.

:func:`table2` returns row dictionaries, and :func:`format_table2_text`
renders them as the aligned text printed by the examples and benchmark
harnesses.  Table I, the shuttling primitive times, renders through
:func:`repro.models.shuttle_times.format_table1`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.suite import application_summary, table2_suite
from repro.ir.circuit import Circuit


def table2(circuits: Optional[Dict[str, Circuit]] = None) -> List[Dict[str, object]]:
    """Table II rows for a benchmark suite (defaults to the full-scale suite)."""

    return application_summary(circuits)


def format_table2_text(circuits: Optional[Dict[str, Circuit]] = None) -> str:
    """Table II rendered as aligned text, with the paper's counts alongside."""

    rows = table2(circuits if circuits is not None else table2_suite())
    header = (f"{'Application':<12} {'Qubits':>6} {'2Q gates':>9} "
              f"{'Paper qubits':>13} {'Paper 2Q':>9}  Communication pattern")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['application']:<12} {row['qubits']:>6} {row['two_qubit_gates']:>9} "
            f"{row['paper_qubits']:>13} {row['paper_two_qubit_gates']:>9}  "
            f"{row['communication_pattern']}"
        )
    return "\n".join(lines)
