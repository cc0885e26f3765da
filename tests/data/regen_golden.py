#!/usr/bin/env python3
"""Regenerate ``golden_determinism.json`` from the current implementation.

Only run this after an *intentional* change to compiler or simulator
behaviour; the whole point of the golden file is to catch unintentional
drift.  Run from the repository root::

    PYTHONPATH=src python tests/data/regen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps import scaled_suite, table2_suite
from repro.io.fingerprint import (
    circuit_fingerprint,
    program_fingerprint,
    result_metrics_hex,
)
from repro.sim.engine import simulate
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

#: (scale name, suite builder, [(topology, capacity, reorder), ...])
SNAPSHOT_PLAN = (
    ("scaled16", lambda: scaled_suite(16),
     [("L4", 8, "GS"), ("L4", 8, "IS"), ("G2x2", 8, "GS")]),
    ("paper", table2_suite,
     [("L6", 22, "GS"), ("L6", 22, "IS")]),
)

#: Compile-only snapshot at paper scale: the Figure 7/8 device grid
#: ({L6, G2x3} x the six capacities x {GS, IS}), op count and program
#: fingerprint per application -- 144 compilations, no simulation.
COMPILE_PLAN = ("paper_compile", table2_suite,
                [(topology, capacity, reorder)
                 for topology in ("L6", "G2x3")
                 for capacity in (14, 18, 22, 26, 30, 34)
                 for reorder in ("GS", "IS")])


def snapshot() -> dict:
    golden = {}
    for scale, suite_fn, configs in SNAPSHOT_PLAN:
        suite = suite_fn()
        golden[scale] = {}
        for topology, capacity, reorder in configs:
            config = ArchitectureConfig(topology=topology, trap_capacity=capacity,
                                        reorder=reorder)
            key = f"{topology}-cap{capacity}-{reorder}"
            golden[scale][key] = {}
            for name, circuit in suite.items():
                program, device = compile_for(circuit, config)
                result = simulate(program, device)
                golden[scale][key][name] = {
                    "circuit": circuit_fingerprint(circuit),
                    "program": program_fingerprint(program),
                    "num_ops": len(program),
                    "metrics": result_metrics_hex(result),
                }
                print(f"{scale} {key} {name}: {len(program)} ops")
    scale, suite_fn, configs = COMPILE_PLAN
    suite = suite_fn()
    golden[scale] = {}
    for topology, capacity, reorder in configs:
        config = ArchitectureConfig(topology=topology, trap_capacity=capacity,
                                    reorder=reorder)
        key = f"{topology}-cap{capacity}-{reorder}"
        golden[scale][key] = {}
        for name, circuit in suite.items():
            program, _ = compile_for(circuit, config)
            golden[scale][key][name] = {
                "program": program_fingerprint(program),
                "num_ops": len(program),
            }
        print(f"{scale} {key}: {len(suite)} programs")
    return golden


if __name__ == "__main__":
    path = Path(__file__).parent / "golden_determinism.json"
    with open(path, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
