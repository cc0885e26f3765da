"""Error-source and time-breakdown helpers.

These mirror the per-figure analyses in Section IX: the Supremacy gate-error
attribution of Figure 6g and the computation/communication time split of
Figure 6b.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.results import SimulationResult


def error_contributions(result: SimulationResult) -> Dict[str, float]:
    """Mean per-MS-gate error split into its two mechanisms (Figure 6g)."""

    total = result.mean_background_error + result.mean_motional_error
    return {
        "background": result.mean_background_error,
        "motional": result.mean_motional_error,
        "total": total,
        "motional_share": (result.mean_motional_error / total) if total > 0 else 0.0,
    }


def time_breakdown(result: SimulationResult) -> Dict[str, float]:
    """Computation versus communication split of the makespan (Figure 6b)."""

    return {
        "total_s": result.duration_seconds,
        "computation_s": result.computation_seconds,
        "communication_s": result.communication_seconds,
        "communication_fraction": (
            result.communication_time / result.duration if result.duration > 0 else 0.0
        ),
    }


