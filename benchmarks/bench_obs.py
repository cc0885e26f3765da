"""Observability overhead benchmark: tracing must be free when disabled.

The instrumentation contract of :mod:`repro.obs` (see
``docs/observability.md``): with tracing disabled -- the default -- every
``span()`` call site reduces to one global load, one ``is None`` test and a
shared no-op object, so instrumenting the pipeline costs nothing measurable.
This bench pins that contract against the same Figure 8-style sweep
``bench_pipeline_scale.py`` times (96 design points at small scale):

1. time the sweep as shipped (tracing disabled);
2. run it once traced to count the spans the pipeline actually emits;
3. time the disabled ``with span(...)`` fast path in isolation and project
   its cost onto that span count.

The projected disabled-mode overhead must stay **under 1% of the sweep's
wall time** -- the CI smoke that keeps future instrumentation (more spans,
or a fatter disabled path) from taxing every untraced run.  The traced
sweep is also timed, for the record: tracing is allowed to cost, disabled
instrumentation is not.
"""

from __future__ import annotations

import sys

import pytest

from _common import bench_scale, bench_suite, record_bench

from repro.obs import disable_tracing, enable_tracing, span
from repro.toolflow import ArchitectureConfig, ProgramCache, sweep_microarchitecture

SWEEP_GATES = ("AM1", "AM2", "PM", "FM")
SWEEP_REORDERS = ("GS", "IS")

#: Disabled span() call sites timed per measurement pass.
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


def test_disabled_tracing_overhead(benchmark):
    """Projected disabled-span cost on the 96-point sweep: < 1% of wall time."""

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

    # One traced pass counts the spans the pipeline emits for this sweep.
    enable_tracing()
    try:
        traced_s = _best_of(run_sweep, repeats=1)
    finally:
        tracer = disable_tracing()
    span_count = len(tracer.spans)

    # The disabled fast path, measured at a representative call site: a
    # `with` block and an attribute keyword, exactly what the pipeline's
    # instrumentation pays per span when tracing is off.
    def disabled_pass():
        for _ in range(DISABLED_CALLS):
            with span("bench.noop", x=1):
                pass

    per_call_s = _best_of(disabled_pass) / DISABLED_CALLS
    overhead_s = per_call_s * span_count
    fraction = overhead_s / sweep_s

    print()
    print(f"Disabled-tracing overhead (scale={bench_scale()}, "
          f"{points} design points):")
    print(f"  sweep wall time      : {sweep_s * 1e3:8.1f} ms (untraced)")
    print(f"  traced sweep         : {traced_s * 1e3:8.1f} ms "
          f"({span_count} spans recorded)")
    print(f"  disabled span() call : {per_call_s * 1e9:8.1f} ns")
    print(f"  projected overhead   : {overhead_s * 1e6:8.1f} us "
          f"({100 * fraction:.4f}% of the sweep)")
    record_bench("obs", "disabled_overhead", {
        "points": points,
        "sweep_s": sweep_s,
        "traced_sweep_s": traced_s,
        "spans": span_count,
        "disabled_call_ns": per_call_s * 1e9,
        "projected_overhead_s": overhead_s,
        "overhead_fraction": fraction,
    })

    assert span_count > 0, "the traced sweep recorded no spans"
    assert fraction < 0.01, (
        f"disabled tracing costs {100 * fraction:.3f}% of the sweep "
        f"({per_call_s * 1e9:.0f} ns x {span_count} spans); the no-op "
        f"fast path has regressed")

    benchmark(disabled_pass)


def test_timeline_fold_and_profile_cost(benchmark, tmp_path):
    """Time the aggregation engines behind ``dse top`` and ``repro profile``.

    These run *outside* the measured pipeline (in the monitor process, or
    post-hoc on a trace file), so they carry no overhead budget -- but they
    are on the interactive path of the live dashboard, and their costs are
    perf history worth tracking.  The one hard bound pinned here: folding a
    dashboard-sized event backlog must stay comfortably inside the ``dse
    top`` refresh interval.
    """

    import json

    from repro.dse.dispatch import LeaseClock, WorkerTelemetry
    from repro.obs import build_profile, enable_tracing
    from repro.obs.timeline import TelemetryReader, fold_timeline

    # A synthetic 8-worker fleet history, fake-clock driven.
    moment = [1000.0]
    clock = LeaseClock(now_fn=lambda: moment[0])
    logs = [WorkerTelemetry(tmp_path, f"w{i}", clock=clock) for i in range(8)]
    rounds = 2_000 if bench_scale() == "paper" else 250
    for i in range(rounds):
        for k, log in enumerate(logs):
            moment[0] += 0.125
            log.emit("done", work=f"s{i}-{k}", points=3, replayed=0,
                     wall_s=0.1, counters={"cache.hits": 2, "cache.misses": 1})
    for log in logs:
        log.close()
    reader = TelemetryReader(tmp_path)
    reader.poll()
    events = reader.events
    fold_s = _best_of(lambda: fold_timeline(events, bucket_s=5.0))

    # Span records from a real traced (single-point) compile+sim run.
    suite = bench_suite()
    topology, capacities = _sweep_spec()
    enable_tracing()
    try:
        sweep_microarchitecture(suite, capacities=capacities[:1],
                                gates=SWEEP_GATES[:1], reorders=("GS",),
                                base=ArchitectureConfig(topology=topology),
                                cache=ProgramCache())
    finally:
        tracer = disable_tracing()
    spans = [item.to_dict(tracer.origin_s) for item in tracer.spans]
    profile_s = _best_of(lambda: build_profile(spans))
    profile = build_profile(spans)
    frame_bytes = len(json.dumps(profile).encode("utf-8"))

    print()
    print(f"Timeline/profile aggregation (scale={bench_scale()}):")
    print(f"  fold_timeline        : {fold_s * 1e3:8.2f} ms "
          f"({len(events)} events)")
    print(f"  build_profile        : {profile_s * 1e3:8.2f} ms "
          f"({len(spans)} spans, {frame_bytes} JSON bytes)")
    record_bench("obs", "aggregation", {
        "timeline_events": len(events),
        "timeline_fold_s": fold_s,
        "timeline_events_per_s": len(events) / fold_s if fold_s else 0.0,
        "profile_spans": len(spans),
        "profile_build_s": profile_s,
    })

    # A dashboard refresh folds the full backlog; it must fit well inside
    # the default 1 s `dse top` interval even for a large history.
    assert fold_s < 0.5, (
        f"fold_timeline took {fold_s:.3f}s for {len(events)} events; the "
        f"live dashboard refresh budget is blown")

    benchmark(lambda: fold_timeline(events, bucket_s=5.0))


def test_trace_merge_cost(benchmark, tmp_path):
    """Time the span merger over a synthetic fleet's event streams.

    ``shard_merge`` times reading the span records of a many-worker
    fleet's event streams plus the deterministic merge -- the post-run step
    of every traced dispatch (``--jobs N`` runs included), and the
    interactive cost of ``repro trace merge``.
    """

    import json

    from repro.dse.dispatch import TELEMETRY_DIR
    from repro.obs import write_merged_trace
    from repro.obs.distributed import SHARD_SCHEMA_VERSION, SPAN_EVENT

    # A synthetic fleet's streams: 8 workers x `spans_per` span records.
    spans_per = 2_000 if bench_scale() == "paper" else 250
    for worker in range(8):
        lines = []
        for i in range(spans_per):
            lines.append(json.dumps({
                "name": "sweep.task", "span_id": i + 1,
                "parent_id": None, "parent_ref": "1:1",
                "pid": 100 + worker, "tid": 1,
                "epoch_start_s": 1000.0 + i * 0.01, "duration_s": 0.01,
                "attrs": {"point": i}, "trace_id": "bench",
                "schema_version": SHARD_SCHEMA_VERSION,
                "event": SPAN_EVENT, "owner": f"w{worker}",
            }, sort_keys=True))
        directory = tmp_path / "store" / TELEMETRY_DIR
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"w{worker}.jsonl").write_text("\n".join(lines) + "\n")
    merged = tmp_path / "merged.json"
    merge_s = _best_of(
        lambda: write_merged_trace(tmp_path / "store", merged), repeats=2)
    shard_spans = 8 * spans_per

    print()
    print(f"Distributed tracing (scale={bench_scale()}):")
    print(f"  shard merge          : {merge_s * 1e3:8.2f} ms "
          f"({shard_spans} spans across 8 shards)")
    record_bench("obs", "shard_merge", {
        "shards": 8,
        "shard_spans": shard_spans,
        "merge_s": merge_s,
        "merge_spans_per_s": shard_spans / merge_s if merge_s else 0.0,
    })

    benchmark(lambda: write_merged_trace(tmp_path / "store", merged))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q", "--benchmark-disable"]))
