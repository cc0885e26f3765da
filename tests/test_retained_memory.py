"""What a finished sweep and a held compiled program keep, in bytes.

A sweep holds a compiled program -- records, lowering and batch plan --
only while its design space still needs it: the DSE runner releases a
compilation once the store holds a row for every gate of the space at that
point.  The sweep tests run the Figure 8 sweep (every gate, GS and IS)
with a caller-held :class:`~repro.toolflow.parallel.ProgramCache` and
measure with :mod:`tracemalloc` the bytes still allocated after the sweep
returns, while the cache and the returned records are alive.  Measured
(CPython 3.11), before and after the runner released compilations: 5.18 ->
0.30 MB for the 16-qubit suite (L4, capacities 6/8/10; 36 -> 0 cache
entries) and 105.53 -> 0.72 MB for the paper suite (L6, capacities 14-34);
what remains is the records.  The bound, per design point, sits between
the two.

A program that something does hold -- a caller of ``compile_for``, or the
cache during an adaptive run whose later proposals reuse it -- still keeps
its per-op data, so the per-op tests bound that too.  Each compiles a suite,
batch-simulates every program under the four gate implementations (the
Figure 8 fan-out) and measures the bytes still allocated after a collection
while the programs are alive.  Measured per op, before and after timelines
kept only the start times of two-qubit/SWAP gates, plans kept per-slot
durations instead of per-op vectors and gate records shared the gate's
operand tuples: 558 -> 360 B at 16 qubits (L4 and G2x2, capacity 6) and 560
-> 354 B at paper scale (L6, capacity 22); CPython 3.10 and 3.12 read
within 4 B of these.  The bound sits between the two.

Every test runs its work once before tracing starts, so device and circuit
caches are built and only what the measured pass keeps is counted.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.apps import scaled_suite, table2_suite
from repro.dse import DSERunner
from repro.sim.batch import simulate_gate_variants
from repro.toolflow import ArchitectureConfig, ProgramCache
from repro.toolflow.runner import compile_for
from repro.toolflow.sweep import microarchitecture_space

GATES = ("AM1", "AM2", "PM", "FM")
#: Bytes per op a compiled, fan-out-simulated program may keep.
BOUND = 460
#: Bytes per design point a finished sweep may leave allocated.
SWEEP_BOUND = 6 * 1024

paper_scale = pytest.mark.skipif(
    os.environ.get("REPRO_GOLDEN_SCALE") != "paper",
    reason="paper-scale check (set REPRO_GOLDEN_SCALE=paper)")


def _traced(run):
    """``(result, bytes)``: a second ``run()``'s result and what it keeps."""

    run()
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained


def _retained_bytes_per_op(suite, configs) -> float:
    def run():
        programs = []
        for config in configs:
            for circuit in suite.values():
                program, device = compile_for(circuit, config)
                simulate_gate_variants(program, device, GATES)
                programs.append(program)
        return programs

    programs, retained = _traced(run)
    return retained / sum(len(program) for program in programs)


def _check_sweep_retained(suite, topology, capacities) -> None:
    def run():
        cache = ProgramCache()
        space = microarchitecture_space(
            suite, capacities, GATES, ("GS", "IS"),
            ArchitectureConfig(topology=topology))
        records = DSERunner(space, circuits=suite,
                            cache=cache).evaluate_space()
        return records, cache

    (records, cache), retained = _traced(run)
    per_point = retained / len(records)
    assert per_point < SWEEP_BOUND, (
        f"{per_point:.0f} B/point retained, {len(cache)} compilations held")
    assert len(cache) == 0


def test_scaled_suite_retained_bytes_per_op():
    configs = [ArchitectureConfig(topology=topology, trap_capacity=6,
                                  gate="FM", reorder=reorder)
               for topology in ("L4", "G2x2") for reorder in ("GS", "IS")]
    per_op = _retained_bytes_per_op(scaled_suite(16), configs)
    assert per_op < BOUND, f"{per_op:.0f} B/op retained"


def test_scaled_suite_sweep_releases_its_programs():
    _check_sweep_retained(scaled_suite(16), "L4", (6, 8, 10))


@pytest.mark.slow
@paper_scale
def test_paper_suite_retained_bytes_per_op():
    configs = [ArchitectureConfig(topology="L6", trap_capacity=22,
                                  reorder=reorder) for reorder in ("GS", "IS")]
    per_op = _retained_bytes_per_op(table2_suite(), configs)
    assert per_op < BOUND, f"{per_op:.0f} B/op retained"


@pytest.mark.slow
@paper_scale
def test_paper_suite_sweep_releases_its_programs():
    _check_sweep_retained(table2_suite(), "L6", (14, 18, 22, 26, 30, 34))
