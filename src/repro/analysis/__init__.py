"""Post-processing of experiment results.

* :mod:`~repro.analysis.series` -- turn figure bundles into aligned text
  tables (the "same rows/series the paper reports").
* :mod:`~repro.analysis.compare` -- headline comparisons the paper quotes in
  prose (best-versus-worst fidelity ratios, topology ratios, gate-choice
  improvements).
* :mod:`~repro.analysis.breakdown` -- error-source and time-breakdown helpers.
"""

from repro.analysis.series import format_series_table
from repro.analysis.compare import (
    best_worst_ratio,
    topology_fidelity_ratio,
    gate_choice_improvement,
    reorder_fidelity_ratio,
)
from repro.analysis.breakdown import error_contributions, time_breakdown

__all__ = [
    "format_series_table",
    "best_worst_ratio",
    "topology_fidelity_ratio",
    "gate_choice_improvement",
    "reorder_fidelity_ratio",
    "error_contributions",
    "time_breakdown",
]
