"""Static-check overhead benchmark: ``--check`` must be free when off.

The runtime contract of :mod:`repro.checks` (see
``docs/static-analysis.md``): with ``--check`` disarmed -- the default --
each guarded compile/sweep-task site pays one ``checks_enabled()`` call (a
module flag test, falling back to one environment lookup).  This bench pins
that contract against the same Figure 8-style sweep ``bench_obs.py``
projects the disabled-span cost onto (96 design points at small scale):

1. time the sweep as shipped (checks off);
2. count the guarded call sites the sweep executes (one per sweep task
   plus one per compile, i.e. at most two per design point);
3. time the disarmed ``checks_enabled()`` fast path in isolation and
   project its cost onto that site count.

The projected off-path overhead must stay **under 1% of the sweep's wall
time** -- the same budget the disabled-span fast path honours.  The armed
sweep is also timed, for the record: verification is allowed to cost,
the disarmed guard is not.
"""

from __future__ import annotations

import sys

import pytest

from _common import bench_scale, bench_suite, record_bench

from repro.checks import checks_enabled, enable_checks, reset_checks
from repro.toolflow import ArchitectureConfig, ProgramCache, sweep_microarchitecture

SWEEP_GATES = ("AM1", "AM2", "PM", "FM")
SWEEP_REORDERS = ("GS", "IS")

#: Disarmed checks_enabled() guards timed per measurement pass.
DISABLED_CALLS = 100_000


def _best_of(fn, repeats: int = 3) -> float:
    from time import perf_counter

    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def _sweep_spec():
    if bench_scale() == "paper":
        return "L6", (18, 26)
    return "L4", (6, 8)


def test_disabled_check_overhead(benchmark):
    """Projected disarmed-guard cost on the 96-point sweep: < 1% of wall time."""

    reset_checks()
    suite = bench_suite()
    topology, capacities = _sweep_spec()
    base = ArchitectureConfig(topology=topology)

    def run_sweep():
        return sweep_microarchitecture(suite, capacities=capacities,
                                       gates=SWEEP_GATES,
                                       reorders=SWEEP_REORDERS,
                                       base=base, cache=ProgramCache())

    points = len(run_sweep())  # warm-up (and the point count)
    sweep_s = _best_of(run_sweep)

    # Guard sites: one in compile_circuit and one in the sweep executor,
    # upper-bounded at two per design point (cache hits skip the compile).
    guard_sites = 2 * points

    # One armed pass, for the record: full verification of every program
    # the sweep compiles (memoized per cached program thereafter).
    enable_checks()
    try:
        armed_s = _best_of(run_sweep, repeats=1)
    finally:
        enable_checks(False)
        reset_checks()

    def disarmed_pass():
        for _ in range(DISABLED_CALLS):
            if checks_enabled():
                raise AssertionError("checks unexpectedly armed")

    per_call_s = _best_of(disarmed_pass) / DISABLED_CALLS
    overhead_s = per_call_s * guard_sites
    fraction = overhead_s / sweep_s

    print()
    print(f"Disarmed --check overhead (scale={bench_scale()}, "
          f"{points} design points):")
    print(f"  sweep wall time      : {sweep_s * 1e3:8.1f} ms (checks off)")
    print(f"  armed sweep          : {armed_s * 1e3:8.1f} ms "
          f"(full verification)")
    print(f"  disarmed guard call  : {per_call_s * 1e9:8.1f} ns")
    print(f"  projected overhead   : {overhead_s * 1e6:8.1f} us "
          f"({100 * fraction:.4f}% of the sweep)")
    record_bench("check", "disabled_overhead", {
        "points": points,
        "sweep_s": sweep_s,
        "armed_sweep_s": armed_s,
        "guard_sites": guard_sites,
        "disarmed_call_ns": per_call_s * 1e9,
        "projected_overhead_s": overhead_s,
        "overhead_fraction": fraction,
    })

    assert fraction < 0.01, (
        f"disarmed --check costs {100 * fraction:.3f}% of the sweep "
        f"({per_call_s * 1e9:.0f} ns x {guard_sites} guards); the "
        f"fast path has regressed")

    benchmark(disarmed_pass)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q", "--benchmark-disable"]))
