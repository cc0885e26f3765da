"""Series formatting: figure bundles -> text tables.

The figure harnesses return nested dictionaries of series; these helpers
flatten the nesting and render aligned text so the benchmark harnesses can
print exactly the series the paper plots.
"""

from __future__ import annotations

from typing import Dict, Sequence


def format_series_table(capacities: Sequence[int],
                        series: Dict[str, Sequence[float]],
                        title: str = "",
                        value_format: str = "{:.4g}") -> str:
    """Render ``{label: series}`` as an aligned text table.

    The first column is the sweep axis (trap capacity); one column per label.
    """

    labels = list(series)
    widths = {label: max(len(label), 10) for label in labels}
    lines = []
    if title:
        lines.append(title)
    header = f"{'capacity':>9}  " + "  ".join(f"{label:>{widths[label]}}" for label in labels)
    lines.append(header)
    lines.append("-" * len(header))
    for index, capacity in enumerate(capacities):
        cells = []
        for label in labels:
            values = series[label]
            if index < len(values) and values[index] is not None:
                cells.append(f"{value_format.format(values[index]):>{widths[label]}}")
            else:
                cells.append(f"{'-':>{widths[label]}}")
        lines.append(f"{capacity:>9}  " + "  ".join(cells))
    return "\n".join(lines)


def flatten_nested_series(nested: Dict[str, Dict[str, Sequence[float]]],
                          separator: str = "/") -> Dict[str, Sequence[float]]:
    """Flatten ``{app: {variant: series}}`` into ``{"app/variant": series}``."""

    flat: Dict[str, Sequence[float]] = {}
    for outer, inner in nested.items():
        for label, values in inner.items():
            flat[f"{outer}{separator}{label}"] = values
    return flat
