"""Determinism regression: compiled programs and metrics vs. golden snapshots.

The golden file ``tests/data/golden_determinism.json`` was generated from the
*seed* implementation (the three-pass simulation engine, the sorted()-scan
scheduler and the chain-rescanning router) before the fast-path rewrite.  The
optimized pipeline must reproduce every compiled op sequence and every
simulation metric **bit-identically** -- fingerprints hash exact float bit
patterns, so these tests fail on a single ULP of drift.

The scaled suite (all six Table II applications at 16 qubits, three
topology/reorder configs) runs in every test invocation; the full paper-scale
suite runs when ``REPRO_GOLDEN_SCALE=paper`` is set (it compiles 64-78 qubit
circuits and takes a few seconds).  So does the compile-only
``paper_compile`` snapshot: op count and program fingerprint of every Table II
application on the Figure 7/8 device grid ({L6, G2x3} x six capacities x
{GS, IS}, 144 compilations).  The compile-only ``policies16`` snapshot pins
the mapping and routing policies the other sections never take: every
(mapping, routing) pair on the three 16-qubit configs, 162 compilations.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/data/regen_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.apps import scaled_suite, table2_suite
from repro.compiler import CompilerOptions
from repro.io.fingerprint import (
    circuit_fingerprint,
    program_fingerprint,
    result_metrics_hex,
)
from repro.sim.engine import simulate
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_determinism.json"


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _config_from_key(key: str) -> ArchitectureConfig:
    topology, capacity, reorder = key.split("-")
    return ArchitectureConfig(topology=topology, trap_capacity=int(capacity[3:]),
                              reorder=reorder)


def _check_scale(scale: str, suite) -> None:
    golden = _golden()[scale]
    for key, per_app in golden.items():
        config = _config_from_key(key)
        for name, entry in per_app.items():
            circuit = suite[name]
            assert circuit_fingerprint(circuit) == entry["circuit"], (
                f"{scale}/{key}/{name}: the application generator changed; "
                f"regenerate the golden file if intentional"
            )
            program, device = compile_for(circuit, config)
            assert len(program) == entry["num_ops"], f"{scale}/{key}/{name}: op count"
            assert program_fingerprint(program) == entry["program"], (
                f"{scale}/{key}/{name}: compiled op sequence diverged from seed"
            )
            metrics = result_metrics_hex(simulate(program, device))
            assert metrics == entry["metrics"], (
                f"{scale}/{key}/{name}: simulation metrics diverged from seed"
            )


class TestGoldenDeterminism:
    def test_scaled_suite_bit_identical(self):
        """All six apps x three configs at 16 qubits match the seed exactly."""

        _check_scale("scaled16", scaled_suite(16))

    @pytest.mark.slow
    @pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_SCALE") != "paper",
                        reason="paper-scale golden check (set REPRO_GOLDEN_SCALE=paper)")
    def test_paper_suite_bit_identical(self):
        """The full Table II suite at paper scale matches the seed exactly."""

        _check_scale("paper", table2_suite())

    @pytest.mark.slow
    @pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_SCALE") != "paper",
                        reason="paper-scale golden check (set REPRO_GOLDEN_SCALE=paper)")
    def test_paper_device_grid_compiles_bit_identical(self):
        """All 144 Figure 7/8 grid compilations match their op sequences."""

        golden = _golden()["paper_compile"]
        suite = table2_suite()
        assert len(golden) * len(suite) == 144
        for key, per_app in golden.items():
            config = _config_from_key(key)
            for name, entry in per_app.items():
                program, _ = compile_for(suite[name], config)
                assert len(program) == entry["num_ops"], f"{key}/{name}: op count"
                assert program_fingerprint(program) == entry["program"], (
                    f"{key}/{name}: compiled op sequence diverged"
                )

    def test_policy_compiles_bit_identical(self):
        """Every mapping x routing policy pair at 16 qubits matches its op
        sequence (the other sections compile greedy/affinity only)."""

        golden = _golden()["policies16"]
        suite = scaled_suite(16)
        compiled = 0
        for key, per_policy in golden.items():
            config = _config_from_key(key)
            for policy, per_app in per_policy.items():
                mapping, routing = policy.split("/")
                options = CompilerOptions(mapping=mapping, routing=routing)
                for name, entry in per_app.items():
                    program, _ = compile_for(suite[name], config, options)
                    assert len(program) == entry["num_ops"], \
                        f"{key}/{policy}/{name}: op count"
                    assert program_fingerprint(program) == entry["program"], (
                        f"{key}/{policy}/{name}: compiled op sequence diverged"
                    )
                    compiled += 1
        assert compiled == 162

    def test_simulation_is_repeatable(self):
        """Re-simulating the same program yields the same metric bits."""

        suite = scaled_suite(16)
        config = _config_from_key("L4-cap8-GS")
        program, device = compile_for(suite["QFT"], config)
        first = result_metrics_hex(simulate(program, device))
        second = result_metrics_hex(simulate(program, device))
        assert first == second
