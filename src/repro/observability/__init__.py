"""Unified observability: metrics, spans, cost profiling, SLOs.

The measurement substrate behind the paper's Sections VIII–IX numbers:
every subsystem on a hot path (scheduler queue, task engine, FFT
memoization cache, pooled allocators, training loop) publishes counters,
gauges and histograms into a process-global :class:`MetricsRegistry`;
request-scoped **spans** (:mod:`repro.observability.tracing`) add the
causal structure across threads, tasks and worker processes; the
**cost profiler** (:mod:`repro.observability.profile`) turns timed
conv passes into the versioned cost model the autotuner consumes; and
**SLO accounting** (:mod:`repro.observability.slo`) reports
p50/p95/p99 serving latencies against deadlines.

See ``docs/observability.md`` for the metric-name catalog and usage.
"""

from repro.observability.export import (
    metrics_snapshot,
    prometheus_text,
    render_metrics,
    write_metrics_json,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.profile import (
    COST_MODEL_SCHEMA,
    CostModelError,
    CostProfiler,
    get_profiler,
    load_cost_model,
    render_cost_model,
    set_profiler,
    validate_cost_model,
    write_cost_model,
)
from repro.observability.slo import SLOTracker, render_slo_report
from repro.observability.tracing import (
    FlightRecorder,
    Span,
    SpanContext,
    Tracer,
    TraceSummary,
    current_context,
    flight_dump,
    flight_note,
    get_flight_recorder,
    get_tracer,
    merge_trace_files,
    read_trace_file,
    render_span_tree,
    set_tracer,
    spans_to_chrome_trace,
    task_summary,
    write_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "metrics_snapshot",
    "prometheus_text",
    "render_metrics",
    "write_metrics_json",
    "Span",
    "SpanContext",
    "Tracer",
    "TraceSummary",
    "task_summary",
    "FlightRecorder",
    "get_tracer",
    "set_tracer",
    "current_context",
    "get_flight_recorder",
    "flight_note",
    "flight_dump",
    "spans_to_chrome_trace",
    "render_span_tree",
    "write_trace_file",
    "read_trace_file",
    "merge_trace_files",
    "COST_MODEL_SCHEMA",
    "CostProfiler",
    "CostModelError",
    "get_profiler",
    "set_profiler",
    "validate_cost_model",
    "write_cost_model",
    "load_cost_model",
    "render_cost_model",
    "SLOTracker",
    "render_slo_report",
]
