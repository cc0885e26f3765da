"""Shared helpers for the benchmark harness.

Every figure/table of the paper has a ``bench_*.py`` file here.  Each bench

* regenerates the figure's data series and *prints* them (the same
  rows/series the paper reports), and
* times a representative unit of work with ``pytest-benchmark``.

By default the benches run on a scaled-down suite so that
``pytest benchmarks/ --benchmark-only`` completes in a couple of minutes.
Set ``REPRO_BENCH_SCALE=paper`` to run the full Table II applications with the
paper's capacity sweep (this is what EXPERIMENTS.md records).

Artefact schema (``data/BENCH_<name>.json``): top level carries
``schema_version``/``machine``/``python``/``scale`` metadata plus a
``sections`` mapping, one entry per bench (see :func:`record_bench`).  The
``batch_fanout`` section of ``BENCH_pipeline.json`` records the batched
variant-simulation comparison (``bench_pipeline_scale.py``):

* ``points``/``programs``/``gates`` -- sweep shape: compiled programs times
  gate implementations evaluated per pass;
* ``batched_cold_s``/``batched_warm_s`` -- best-of wall time of one
  batched pass with cold (lowering and plans rebuilt) and warm (plans +
  memos populated) caches, with a ``per_variant_us`` derived view;
* ``dedup`` -- timeline cache behaviour over the run: ``timelines_built``,
  ``timeline_hits``, ``variants``, ``hit_rate``;
* ``ablation`` -- the heating/fidelity model fan-out (one program, many
  parameter vectors, cold plan): ``variants``, ``batched_s``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from repro.apps import scaled_suite, table2_suite
from repro.ir.circuit import Circuit

#: Where the machine-readable benchmark artefacts live (committed per-PR so
#: the perf trajectory is tracked in data, not only in prose).
BENCH_DATA_DIR = Path(__file__).parent / "data"

#: Version of the artefact layout written by :func:`record_bench` (v2 added
#: the per-section ``_meta`` provenance block; ``repro bench diff`` accepts
#: v1 files, whose sections simply lack it).
BENCH_SCHEMA_VERSION = 2

#: Capacity sweep used at paper scale (Figures 6-8 x axis).
PAPER_CAPACITIES = (14, 18, 22, 26, 30, 34)

#: Reduced sweep used by default so the harness stays fast.
SMALL_CAPACITIES = (6, 8, 10)


def bench_scale() -> str:
    """"paper" or "small", from the REPRO_BENCH_SCALE environment variable."""

    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale not in ("paper", "small"):
        raise ValueError("REPRO_BENCH_SCALE must be 'paper' or 'small'")
    return scale


def bench_suite() -> Dict[str, Circuit]:
    """The application suite for the selected scale."""

    if bench_scale() == "paper":
        return table2_suite()
    return scaled_suite(16)


def bench_capacities() -> Sequence[int]:
    """The trap-capacity sweep for the selected scale."""

    return PAPER_CAPACITIES if bench_scale() == "paper" else SMALL_CAPACITIES


def reference_capacity() -> int:
    """A single mid-sweep capacity used by the timed benchmark units."""

    capacities = bench_capacities()
    return capacities[len(capacities) // 2]


def record_bench(name: str, section: str, payload: Dict[str, object]) -> Path:
    """Merge one section into ``data/BENCH_<name>.json`` and return the path.

    Each bench run updates its own section, so the artefact accumulates the
    full picture as the suite runs while any single test can refresh its
    numbers in isolation.  Environment metadata rides along so trajectories
    are only compared within one machine/scale.

    Since ``bench_schema`` 2 every section also carries a ``_meta`` block
    tying the numbers to the run that produced them -- the section's
    config fingerprint, the process metrics snapshot and the trace schema
    version -- so ``BENCH_*.json`` and run telemetry share one provenance
    vocabulary and ``repro bench diff`` can tell "the workload changed"
    apart from "the same workload got slower".  ``_meta`` is skipped by
    the diff itself (provenance, not performance).
    """

    from repro.io.serialization import SCHEMA_VERSION
    from repro.obs.export import TRACE_SCHEMA_VERSION, config_fingerprint
    from repro.obs.metrics import registry

    path = BENCH_DATA_DIR / f"BENCH_{name}.json"
    data: Dict[str, object] = {}
    if path.exists():
        with open(path) as handle:
            data = json.load(handle)
        if data.get("machine") != platform.platform() or \
                data.get("scale") != bench_scale():
            # Sections from another machine/scale would be mislabelled by
            # the refreshed metadata; start the artefact over instead.
            data = {}
    data["schema_version"] = SCHEMA_VERSION
    data["bench_schema"] = BENCH_SCHEMA_VERSION
    data["machine"] = platform.platform()
    data["python"] = sys.version.split()[0]
    data["scale"] = bench_scale()
    entry = dict(payload)
    entry["_meta"] = {
        "config_fingerprint": config_fingerprint(
            {"name": name, "section": section, "payload": payload,
             "machine": data["machine"], "python": data["python"],
             "scale": data["scale"]}),
        "metrics": registry().snapshot(),
        "trace_schema": TRACE_SCHEMA_VERSION,
    }
    sections = data.setdefault("sections", {})
    sections[section] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_series(title: str, capacities: Sequence[int],
                 series: Dict[str, List[float]]) -> None:
    """Print one figure panel as an aligned table."""

    from repro.analysis.series import format_series_table

    print()
    print(format_series_table(capacities, series, title=title))
