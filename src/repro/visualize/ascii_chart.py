"""Minimal ASCII charts for terminal output.

The examples need a multi-series line chart over a shared x axis (the
capacity sweeps), and ``repro dse top`` draws sparklines.  Both degrade
gracefully for constant or empty series.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

_MARKERS = "ox+*#@%&"

#: Sparkline intensity ramp, lowest to highest.  Pure ASCII on purpose:
#: ``repro dse top`` frames are byte-compared in tests and may land in CI
#: logs, where unicode block elements render unpredictably.
_SPARK_LEVELS = " .:-=+*#@"


def _scale(value: float, low: float, high: float, width: int) -> int:
    if high <= low:
        return 0
    fraction = (value - low) / (high - low)
    return int(round(fraction * (width - 1)))


def ascii_line_chart(x_values: Sequence[float],
                     series: Dict[str, Sequence[float]],
                     width: int = 60, height: int = 16,
                     title: str = "") -> str:
    """Render ``{label: ys}`` over ``x_values`` as an ASCII scatter/line chart."""

    labels = [label for label, values in series.items() if values]
    if not labels or not x_values:
        return f"{title}\n(no data)" if title else "(no data)"

    all_values = [value for label in labels for value in series[label] if value is not None]
    low, high = min(all_values), max(all_values)
    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    for series_index, label in enumerate(labels):
        marker = _MARKERS[series_index % len(_MARKERS)]
        values = series[label]
        for point_index, value in enumerate(values):
            if value is None:
                continue
            column = _scale(point_index, 0, max(len(values) - 1, 1), width)
            row = height - 1 - _scale(value, low, high, height)
            grid[row][column] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{high:.3g}".rjust(10))
    for row in grid:
        lines.append(" " * 10 + "|" + "".join(row))
    lines.append(f"{low:.3g}".rjust(10) + " +" + "-" * width)
    lines.append(" " * 12 + f"x: {x_values[0]} .. {x_values[-1]}")
    legend = "  ".join(f"{_MARKERS[index % len(_MARKERS)]}={label}"
                       for index, label in enumerate(labels))
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def ascii_sparkline(values: Sequence[float]) -> str:
    """Render a sequence as a one-character-per-value intensity sparkline.

    Scaled against the max of the sequence (zero maps to a blank), so a
    constant nonzero series renders at full intensity -- the shape of the
    series matters here, not its absolute level.
    """

    if not values:
        return ""
    largest = max(values)
    if largest <= 0:
        return _SPARK_LEVELS[0] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[0] if value <= 0 else
        _SPARK_LEVELS[max(1, min(top, int(round(value / largest * top))))]
        for value in values)
