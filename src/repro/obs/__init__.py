"""Observability: span tracing, metrics, trace export, timeline, profile.

The stack runs distributed, adaptive searches over process pools and a
lease-coordinated worker fleet; this package is the telemetry layer that
makes those executions debuggable:

* :mod:`~repro.obs.trace` -- context-manager spans
  (``with span("compile.route", gates=n):``) with ContextVar parenting and
  ``perf_counter`` timings; a zero-overhead no-op while tracing is
  disabled, which is the default.
* :mod:`~repro.obs.metrics` -- process-wide counters/gauges/histograms
  (with bounded-bucket p50/p90/p99 quantiles) and snapshot/delta/merge,
  generalising the hand-rolled ``ProgramCache.stats()`` /
  ``BatchPlan.stats()`` counter plumbing so pool workers and dispatched
  workers aggregate identically for any ``--jobs``.
* :mod:`~repro.obs.export` -- Chrome trace-event JSON (loads in
  Perfetto), flat span JSONL, and a per-run manifest (config fingerprint,
  schema versions, phase timings, metrics snapshot), all written through
  :func:`repro.io.appendlog.atomic_write_text` so crashed runs keep their
  traces.
* :mod:`~repro.obs.distributed` -- fleet-wide tracing: trace-context
  propagation into worker subprocesses and pool children, per-worker
  append-only trace shards under ``<store>/traces/``, and the
  deterministic shard merger behind ``repro trace merge`` and the
  automatic merge of ``dse dispatch --trace``.
* :mod:`~repro.obs.timeline` -- windowed time-series aggregation over the
  fleet telemetry logs with straggler/stall detection; the engine behind
  ``repro dse top``.
* :mod:`~repro.obs.profile` -- span-derived hierarchical profiling
  (self/total per span name, quantiles, critical path, collapsed stacks);
  the engine behind ``repro profile`` and ``--profile``.
* :mod:`~repro.obs.benchdiff` -- threshold-based comparison of committed
  ``BENCH_*.json`` perf history; the engine behind ``repro bench diff``.

``repro run|sweep|dse run|dse dispatch --trace out.json`` enables tracing
for one command and writes the bundle; span/metric naming conventions and
the export schemas are documented in ``docs/observability.md``.
"""

from repro.io.appendlog import atomic_write_text
from repro.obs.benchdiff import (
    classify_metric,
    compare_bench,
    diff_bench_files,
    format_bench_diff,
)
from repro.obs.distributed import (
    SHARD_SCHEMA_VERSION,
    TRACE_DIR,
    TraceContext,
    TraceShardWriter,
    adopt_shards,
    read_trace_shards,
    write_merged_trace,
)
from repro.obs.export import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    config_fingerprint,
    run_manifest,
    spans_jsonl,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    CounterDict,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from repro.obs.profile import (
    build_profile,
    collapsed_stacks,
    format_profile,
    parse_spans_jsonl,
)
from repro.obs.timeline import (
    TelemetryReader,
    detect_stragglers,
    fold_timeline,
    render_top,
    rolling_rates,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_span_name,
    current_span_ref,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
)

__all__ = [
    "SHARD_SCHEMA_VERSION",
    "TRACE_DIR",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "CounterDict",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetryReader",
    "TraceContext",
    "TraceShardWriter",
    "Tracer",
    "adopt_shards",
    "atomic_write_text",
    "build_profile",
    "chrome_trace",
    "classify_metric",
    "collapsed_stacks",
    "compare_bench",
    "config_fingerprint",
    "current_span_name",
    "current_span_ref",
    "current_tracer",
    "detect_stragglers",
    "diff_bench_files",
    "disable_tracing",
    "enable_tracing",
    "fold_timeline",
    "format_bench_diff",
    "format_profile",
    "parse_spans_jsonl",
    "read_trace_shards",
    "registry",
    "render_top",
    "reset_registry",
    "rolling_rates",
    "run_manifest",
    "span",
    "spans_jsonl",
    "validate_chrome_trace",
    "write_merged_trace",
    "write_trace",
]
