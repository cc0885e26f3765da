"""Wall-time ceiling on one compile+simulate unit: an algorithmic guard.

The unit is the quickstart workload (32-qubit, 8-layer QAOA on a six-trap
linear device with 20-ion traps), best of three.  It runs in a few
milliseconds; the ceiling of half a second leaves ~50x headroom, so it
trips on an accidental O(n^2) in the scheduler, router or engine, not on a
slow runner.  Performance itself is measured with ``perfbench/``.
"""

from __future__ import annotations

import time

from repro.apps import qaoa_circuit
from repro.sim.engine import simulate
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.runner import compile_for

#: Wall-time ceiling (seconds) of one quickstart compile+simulate.
CEILING_S = 0.5


def test_quickstart_unit_within_budget():
    circuit = qaoa_circuit(32, layers=8)
    config = ArchitectureConfig(topology="L6", trap_capacity=20)
    best = float("inf")
    for _ in range(3):
        # A copy has no cached front-end: every repeat times a cold compile.
        fresh = circuit.copy()
        start = time.perf_counter()
        program, device = compile_for(fresh, config)
        simulate(program, device)
        best = min(best, time.perf_counter() - start)
    assert best <= CEILING_S, (
        f"quickstart compile+simulate took {best:.3f}s, over the "
        f"{CEILING_S:.2f}s ceiling -- the hot path regressed")
