"""Text rendering of results: ASCII charts and experiment reports.

The toolflow runs offline with no plotting dependencies; these helpers render
series as ASCII charts and whole experiments as text reports, which is what
the examples print and what EXPERIMENTS.md records.
"""

from repro.visualize.ascii_chart import ascii_line_chart
from repro.visualize.report import experiment_report, device_report

__all__ = [
    "ascii_line_chart",
    "experiment_report",
    "device_report",
]
