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
  propagation into worker subprocesses and pool children, the span
  records each worker appends to its event stream
  (``<store>/telemetry/<owner>.jsonl``), and the deterministic merger
  behind ``repro trace merge`` and the automatic merge of ``dse dispatch
  --trace``.
* :mod:`~repro.obs.timeline` -- the one reader of the worker streams, and
  windowed time-series aggregation over their lease events with
  straggler/stall detection; the engine behind ``repro dse top``.
* :mod:`~repro.obs.profile` -- span-derived hierarchical profiling
  (self/total per span name, quantiles, critical path, collapsed stacks);
  the engine behind ``repro profile`` and ``--profile``.
* :mod:`~repro.obs.benchdiff` -- threshold-based comparison of committed
  ``BENCH_*.json`` perf history; the engine behind ``repro bench diff``.

``repro run|sweep|dse run|dse dispatch --trace out.json`` enables tracing
for one command and writes the bundle; span/metric naming conventions and
the export schemas are documented in ``docs/observability.md``.
The names below resolve on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.appendlog": ("atomic_write_text",),
    "repro.obs.benchdiff": ("classify_metric", "compare_bench",
                            "diff_bench_files", "format_bench_diff"),
    "repro.obs.distributed": ("SHARD_SCHEMA_VERSION", "SPAN_EVENT",
                              "TraceContext", "adopt_shards",
                              "write_merged_trace"),
    "repro.obs.export": ("TRACE_SCHEMA_VERSION", "chrome_trace",
                         "config_fingerprint", "run_manifest", "spans_jsonl",
                         "validate_chrome_trace", "write_trace"),
    "repro.obs.metrics": ("Counter", "CounterDict", "Gauge", "Histogram",
                          "MetricsRegistry", "registry", "reset_registry"),
    "repro.obs.profile": ("build_profile", "collapsed_stacks",
                          "format_profile", "parse_spans_jsonl"),
    "repro.obs.timeline": ("TelemetryReader", "detect_stragglers",
                           "fold_timeline", "render_top", "rolling_rates"),
    "repro.obs.trace": ("Span", "Tracer", "current_span_name",
                        "current_span_ref", "current_tracer",
                        "disable_tracing", "enable_tracing", "span"),
})
