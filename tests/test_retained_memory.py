"""What a compiled program and its batch plan keep, in bytes per op.

A sweep keeps every program it compiles -- records, lowering and batch
plan -- for the whole run, so the bytes they keep per op set the sweep's
peak memory.  Each test compiles a suite, batch-simulates every program
under the four gate implementations (the Figure 8 fan-out) and measures
with :mod:`tracemalloc` the bytes still allocated after a collection while
the programs are alive.  A warm-up pass over the same work comes first, so
device and circuit caches are built before tracing starts and only the
programs' own data is counted.

Measured per op (CPython 3.11), before and after timelines kept only the
start times of two-qubit/SWAP gates, plans kept per-slot durations instead
of per-op vectors and gate records shared the gate's operand tuples: 558
-> 360 B at 16 qubits (L4 and G2x2, capacity 6) and 560 -> 354 B at paper
scale (L6, capacity 22); CPython 3.10 and 3.12 read within 4 B of these.
The bound sits between the two.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.apps import scaled_suite, table2_suite
from repro.sim.batch import simulate_gate_variants
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

GATES = ("AM1", "AM2", "PM", "FM")
#: Bytes per op a compiled, fan-out-simulated program may keep.
BOUND = 460


def _retained_bytes_per_op(suite, configs) -> float:
    def run():
        programs = []
        for config in configs:
            for circuit in suite.values():
                program, device = compile_for(circuit, config)
                simulate_gate_variants(program, device, GATES)
                programs.append(program)
        return programs

    run()
    gc.collect()
    tracemalloc.start()
    try:
        programs = run()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / sum(len(program) for program in programs)


def test_scaled_suite_retained_bytes_per_op():
    configs = [ArchitectureConfig(topology=topology, trap_capacity=6,
                                  gate="FM", reorder=reorder)
               for topology in ("L4", "G2x2") for reorder in ("GS", "IS")]
    per_op = _retained_bytes_per_op(scaled_suite(16), configs)
    assert per_op < BOUND, f"{per_op:.0f} B/op retained"


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("REPRO_GOLDEN_SCALE") != "paper",
                    reason="paper-scale check (set REPRO_GOLDEN_SCALE=paper)")
def test_paper_suite_retained_bytes_per_op():
    configs = [ArchitectureConfig(topology="L6", trap_capacity=22,
                                  reorder=reorder) for reorder in ("GS", "IS")]
    per_op = _retained_bytes_per_op(table2_suite(), configs)
    assert per_op < BOUND, f"{per_op:.0f} B/op retained"
