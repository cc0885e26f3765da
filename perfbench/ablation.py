"""Heating and laser-stability sensitivity at the paper's design point.

Compiles the six Table II applications for L6, capacity 22, FM under both
reordering methods (12 programs) and batch-simulates each program under every
physical model of a grid of factor triples (heating scale, background rate
scale, laser prefactor scale), then writes the results as JSON::

    PYTHONPATH=src python3 perfbench/ablation.py --grid grid.json --output out.json

``grid.json`` holds ``{"factors": [[heating, background, laser], ...]}``; the
first triple should be ``[1, 1, 1]``, the paper's default model, whose full
metrics and program fingerprint are written out for the golden check.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.apps import table2_suite
from repro.io import save_json
from repro.io.fingerprint import program_fingerprint, result_metrics_hex
from repro.models.params import PhysicalModel
from repro.sim.batch import simulate_model_variants
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for


def scaled_model(base: PhysicalModel, heating: float, background: float,
                 laser: float) -> PhysicalModel:
    """``base`` with its heating constants, background rate and laser
    prefactor multiplied by the given factors."""

    return replace(
        base,
        heating=replace(base.heating, k1=base.heating.k1 * heating,
                        k2=base.heating.k2 * heating,
                        k_junction=base.heating.k_junction * heating,
                        background_rate=base.heating.background_rate * background),
        fidelity=replace(base.fidelity,
                         laser_instability_prefactor=(
                             base.fidelity.laser_instability_prefactor * laser)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", required=True, help="model-grid JSON file")
    parser.add_argument("--output", required=True, help="result JSON file")
    args = parser.parse_args(argv)

    with open(args.grid) as handle:
        factors = json.load(handle)["factors"]
    base = PhysicalModel()
    models = [scaled_model(base, *triple) for triple in factors]
    suite = table2_suite()
    programs = []
    for reorder in ("GS", "IS"):
        config = ArchitectureConfig(topology="L6", trap_capacity=22, gate="FM",
                                    reorder=reorder)
        for app, circuit in suite.items():
            program, device = compile_for(circuit, config)
            results = simulate_model_variants(program, device, models)
            programs.append({
                "app": app,
                "reorder": reorder,
                "program": program_fingerprint(program),
                "num_ops": len(program),
                "default_metrics": result_metrics_hex(results[0]),
                "points": [[result.fidelity, result.duration_seconds,
                            result.max_motional_energy] for result in results],
            })
    save_json({"factors": factors, "programs": programs}, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
