"""Pipeline-scale benchmark: compile, simulate and full-sweep wall time.

Records the throughput trajectory of the fast-path rewrite along four axes:

1. **Per-app compile and simulate time** on the largest suite circuits,
   compared against ``data/seed_baseline.json`` (timings of the seed
   implementation recorded on the original machine).
2. **Figure 8-style end-to-end sweep** (capacity x reorder x gate over the
   full suite): serial seed baseline versus the optimized pipeline, plus the
   warm re-sweep on a shared experiment store that shows what replaying
   stored design points buys repeated exploration.  At paper scale on the
   baseline machine the optimized sweep must be >= 3x the recorded seed time.
3. **Operation memory**: slotted versus dict-backed per-op footprint.
4. **Batched variant fan-out**: the Figure 8-style 96-point sweep's simulate
   share with cold plans (lowering, plans and timelines built on the fly)
   versus warm plans, plus a fidelity/heating ablation fan-out where every
   variant shares one duration vector.

Bit-identity of the simulator to the seed engine is asserted by the tier-1
identity tests (``tests/test_sim_batch.py``), not here.

Default scale is small; set ``REPRO_BENCH_SCALE=paper`` for the full Table II
suite (the configuration the recorded baseline uses).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

from _common import bench_scale, bench_suite, record_bench

from repro.dse.store import ExperimentStore
from repro.isa.operations import GateOp
from repro.sim.engine import simulate
from repro.toolflow import ArchitectureConfig, sweep_microarchitecture
from repro.toolflow.runner import compile_for

BASELINE_PATH = Path(__file__).parent / "data" / "seed_baseline.json"

#: Sweep spec mirroring the recorded seed baseline: full suite, two
#: capacities, both reorder methods, all four gate implementations.
SWEEP_GATES = ("AM1", "AM2", "PM", "FM")
SWEEP_REORDERS = ("GS", "IS")


def _sweep_spec() -> Tuple[str, Tuple[int, int]]:
    if bench_scale() == "paper":
        return "L6", (18, 26)
    return "L4", (6, 8)


def _baseline() -> Optional[dict]:
    if not BASELINE_PATH.exists():
        return None
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def _baseline_comparable(baseline: Optional[dict]) -> bool:
    """The recorded timings are only meaningful on the machine that made them."""

    return (baseline is not None and bench_scale() == "paper"
            and baseline.get("machine") == platform.platform())


def _drop_plan(program) -> None:
    """Forget the program's cached lowering and plan (a cold simulation)."""

    program.__dict__.pop("_batch_plan", None)
    program.__dict__.pop("_lowering", None)


def _drop_front_ends(circuits) -> None:
    """Forget the circuits' cached compile front-ends (a cold compile)."""

    for circuit in circuits:
        circuit.__dict__.pop("_front_ends", None)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
def test_compile_and_simulate_units(benchmark):
    """Per-app compile/simulate wall time at the reference design point."""

    suite = bench_suite()
    topology, capacities = _sweep_spec()
    config = ArchitectureConfig(topology=topology,
                                trap_capacity=capacities[-1] if bench_scale() == "small" else 22)
    baseline = _baseline()
    comparable = _baseline_comparable(baseline)

    print()
    print(f"Per-app pipeline timings (scale={bench_scale()}, {config.name}):")
    header = f"  {'app':12s} {'compile':>10s} {'simulate':>10s}"
    if comparable:
        header += f" {'seed comp.':>11s} {'seed sim.':>10s}"
    print(header)
    timings = {}
    for name, circuit in suite.items():
        compile_s = _best_of(
            lambda: (_drop_front_ends([circuit]), compile_for(circuit, config)))
        program, device = compile_for(circuit, config)
        simulate_s = _best_of(
            lambda: (_drop_plan(program), simulate(program, device)))
        timings[name] = {"compile_s": compile_s, "simulate_s": simulate_s}
        line = f"  {name:12s} {compile_s * 1e3:8.1f}ms {simulate_s * 1e3:8.1f}ms"
        if comparable:
            seed_c = baseline["compile_s"].get(name)
            seed_s = baseline["simulate_s"].get(name)
            if seed_c and seed_s:
                line += f" {seed_c / compile_s:9.2f}x {seed_s / simulate_s:8.2f}x"
        print(line)
    record_bench("pipeline", "compile_simulate",
                 {"config": config.name, "per_app": timings})

    qft = suite["QFT"]
    benchmark(lambda: (_drop_front_ends([qft]), compile_for(qft, config)))


def test_fig8_sweep_end_to_end(benchmark):
    """Figure 8-style sweep: optimized pipeline vs. the recorded seed run."""

    suite = bench_suite()
    topology, capacities = _sweep_spec()
    base = ArchitectureConfig(topology=topology)

    def run_sweep(store=None):
        return sweep_microarchitecture(suite, capacities=capacities,
                                       gates=SWEEP_GATES, reorders=SWEEP_REORDERS,
                                       base=base, store=store)

    def run_cold_sweep():
        _drop_front_ends(suite.values())
        return run_sweep()

    cold_s = _best_of(run_cold_sweep)
    records = run_sweep()

    # A sweep releases each compilation once all its gate variants are
    # stored, so what a re-sweep reuses is the store: every point replays.
    warm_store = ExperimentStore()
    run_sweep(warm_store)
    warm_s = _best_of(lambda: run_sweep(warm_store))

    baseline = _baseline()
    comparable = _baseline_comparable(baseline)
    print()
    print(f"Fig. 8-style sweep (scale={bench_scale()}, {len(records)} design points):")
    print(f"  optimized, cold cache: {cold_s:8.3f} s")
    print(f"  optimized, warm store: {warm_s:8.3f} s   (store replay)")
    record_bench("pipeline", "fig8_sweep",
                 {"points": len(records), "cold_s": cold_s, "warm_s": warm_s})
    if comparable:
        seed_s = baseline["fig8_sweep_s"]
        speedup = seed_s / cold_s
        print(f"  seed implementation  : {seed_s:8.3f} s   "
              f"(recorded; speedup {speedup:.2f}x cold, {seed_s / warm_s:.2f}x warm)")
        assert speedup >= 3.0, (
            f"end-to-end sweep speedup {speedup:.2f}x fell below the 3x target"
        )
    assert warm_s < cold_s, "store replay should make re-sweeps cheaper"

    benchmark.pedantic(run_cold_sweep, rounds=2, iterations=1)


def test_batch_fanout(benchmark):
    """Batched Fig-8 fan-out with cold versus warm plans, plus an ablation.

    Measures only the *simulate share* of the sweep: every (app, capacity,
    reorder) program is compiled once up front, then simulated under all four
    gate implementations in one batched call per program -- cold (lowering,
    plans and timelines built on the fly) and warm (plans cached by a
    previous pass over the same programs, as while a sweep or an adaptive
    run holds a compilation).  A second section measures a model-ablation
    fan-out where all variants share one duration vector.  The recorded
    ``batch_fanout`` schema is documented in ``_common.py``.
    """

    from dataclasses import replace

    from repro.sim.batch import (batch_plan, simulate_gate_variants,
                                 simulate_model_variants)

    suite = bench_suite()
    topology, capacities = _sweep_spec()
    compiled = []
    for reorder in SWEEP_REORDERS:
        for capacity in capacities:
            config = ArchitectureConfig(topology=topology, trap_capacity=capacity,
                                        reorder=reorder)
            for circuit in suite.values():
                compiled.append(compile_for(circuit, config))
    num_points = len(compiled) * len(SWEEP_GATES)

    def run_batched():
        for program, device in compiled:
            simulate_gate_variants(program, device, SWEEP_GATES)

    def run_batched_cold():
        for program, _ in compiled:
            _drop_plan(program)
        run_batched()

    cold_s = _best_of(run_batched_cold)
    run_batched()  # plans are warm again from here on
    warm_s = _best_of(run_batched)

    dedup = {"timelines_built": 0, "timeline_hits": 0, "variants": 0}
    for program, _ in compiled:
        stats = batch_plan(program).stats()
        dedup["timelines_built"] += stats["timelines_built"]
        dedup["timeline_hits"] += stats["timeline_hits"]
        dedup["variants"] += stats["variants"]
    hit_rate = dedup["timeline_hits"] / max(1, dedup["timeline_hits"]
                                            + dedup["timelines_built"])

    # Ablation fan-out: heating/fidelity parameter vectors under one gate --
    # a single duration vector shared by every variant (plans rebuilt, so
    # this is a cold measurement).
    program, device = compiled[0]
    models = []
    for i in range(8):
        fid = replace(device.model.fidelity,
                      background_heating_rate=2e-7 * (i + 1))
        models.append(replace(device.model, fidelity=fid))
    for i in range(8):
        heat = replace(device.model.heating, background_rate=4e-5 * (i + 1))
        models.append(replace(device.model, heating=heat))

    def run_ablation():
        _drop_plan(program)
        simulate_model_variants(program, device, models)

    ablation_s = _best_of(run_ablation)

    print()
    print(f"Batched variant fan-out (scale={bench_scale()}, {num_points} points, "
          f"{len(compiled)} programs):")
    print(f"  cold plans : {cold_s * 1e3:8.1f} ms "
          f"({cold_s / num_points * 1e6:7.1f} us/variant)")
    print(f"  warm plans : {warm_s * 1e3:8.1f} ms "
          f"({warm_s / num_points * 1e6:7.1f} us/variant, "
          f"{cold_s / warm_s:.2f}x)")
    print(f"  timeline dedup : {dedup['timelines_built']} built, "
          f"{dedup['timeline_hits']} hits ({100 * hit_rate:.1f}% hit rate)")
    print(f"  ablation fan-out (x{len(models)}, cold): "
          f"{ablation_s * 1e3:6.1f} ms")

    record_bench("pipeline", "batch_fanout", {
        "points": num_points,
        "programs": len(compiled),
        "gates": list(SWEEP_GATES),
        "batched_cold_s": cold_s,
        "batched_warm_s": warm_s,
        "per_variant_us": {
            "batched_cold": cold_s / num_points * 1e6,
            "batched_warm": warm_s / num_points * 1e6,
        },
        "dedup": dict(dedup, hit_rate=hit_rate),
        "ablation": {"variants": len(models), "batched_s": ablation_s},
    })

    assert warm_s <= cold_s * 1.1, "warm batched pass slower than cold"

    benchmark(run_batched)


def test_operation_memory_footprint():
    """Slotted ops vs. an equivalent dict-backed op (the seed layout)."""

    @dataclass(frozen=True)
    class DictGateOp:  # the seed's layout: no __slots__, per-instance __dict__
        op_id: int
        dependencies: tuple
        trap: str
        ions: tuple
        qubits: tuple
        name: str
        chain_length: int
        ion_distance: int

    slotted = GateOp(op_id=1, dependencies=(0,), trap="t0", ions=(1, 2),
                     qubits=(0, 1), name="cx", chain_length=12, ion_distance=3)
    dict_op = DictGateOp(op_id=1, dependencies=(0,), trap="t0", ions=(1, 2),
                         qubits=(0, 1), name="cx", chain_length=12, ion_distance=3)
    slotted_bytes = sys.getsizeof(slotted)
    dict_bytes = sys.getsizeof(dict_op) + sys.getsizeof(dict_op.__dict__)
    print()
    print("Per-operation memory:")
    print(f"  slotted GateOp     : {slotted_bytes:4d} B")
    print(f"  dict-backed GateOp : {dict_bytes:4d} B   "
          f"({dict_bytes / slotted_bytes:.1f}x larger)")
    record_bench("pipeline", "op_memory",
                 {"slotted_bytes": slotted_bytes, "dict_bytes": dict_bytes})
    assert not hasattr(slotted, "__dict__")
    assert slotted_bytes < dict_bytes


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q", "--benchmark-disable"]))
