"""Observability layer: timed spans, metrics, structured run export.

The paper's central claim is that plan execution is *inspectable*
(Figure 3 is literally a trace); this package adds the wall-clock and
resource dimensions that flat traces miss, in three parts:

* **spans** -- hierarchical timed intervals (:class:`Span`,
  :class:`Tracer`), propagated ambiently via :mod:`contextvars` (the
  same pattern as :mod:`repro.resilience.budget`) so the designer,
  style selection, plan executor, DC solver and retry ladder each open
  spans without threading a tracer argument (:mod:`repro.obs.spans`);
* **metrics** -- a registry of counters / gauges / histograms (Newton
  iterations per rung, rule firings per block, restarts, candidates
  explored/pruned, LU solves, budget consumption) with a deterministic
  snapshot (:mod:`repro.obs.metrics`);
* **export** -- JSONL event streams, Chrome trace-event files (load in
  Perfetto / ``chrome://tracing``) and terminal flame summaries,
  bundled per run as a :class:`RunReport` on
  :class:`~repro.opamp.result.SynthesisResult`
  (:mod:`repro.obs.export`, :mod:`repro.obs.report`).

When no tracer is active every instrumentation point is a no-op (one
contextvar read), so observability is free unless switched on --
``synthesize(..., observe=True)``, the CLI's ``--trace-out``, or an
explicitly activated :class:`Tracer`.
"""

from __future__ import annotations

from .events import TRACE_KIND_MARKERS, UNKNOWN_MARKER, known_kinds, marker_for
from .export import (
    flame_text,
    iter_jsonl,
    latency_table,
    percentile,
    render_metrics,
    render_prometheus,
    summarize_jsonl,
    to_chrome,
    to_chrome_json,
    to_jsonl,
)
from .log import (
    LOG_LEVELS,
    LOG_SCHEMA,
    CollectingSink,
    StructLogger,
    get_logger,
    validate_log_line,
)
from .metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from .report import TRACE_FORMATS, RunReport
from .slo import (
    SloCheck,
    SloTarget,
    evaluate_snapshot,
    evaluate_trace,
    histogram_quantile,
    load_targets,
)
from .telemetry import (
    TraceContext,
    activate_trace,
    current_trace_context,
    current_trace_id,
    ensure_trace_context,
)
from .spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanHandle,
    Tracer,
    count,
    current_span_id,
    current_tracer,
    gauge,
    observe,
    span,
)

__all__ = [
    # spans
    "Span",
    "SpanHandle",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "current_tracer",
    "current_span_id",
    "span",
    "count",
    "observe",
    "gauge",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "metric_key",
    # telemetry
    "TraceContext",
    "activate_trace",
    "current_trace_context",
    "current_trace_id",
    "ensure_trace_context",
    # logging
    "LOG_LEVELS",
    "LOG_SCHEMA",
    "CollectingSink",
    "StructLogger",
    "get_logger",
    "validate_log_line",
    # slo
    "SloTarget",
    "SloCheck",
    "load_targets",
    "evaluate_trace",
    "evaluate_snapshot",
    "histogram_quantile",
    # events vocabulary
    "TRACE_KIND_MARKERS",
    "UNKNOWN_MARKER",
    "known_kinds",
    "marker_for",
    # export
    "to_jsonl",
    "to_chrome",
    "to_chrome_json",
    "flame_text",
    "render_metrics",
    "render_prometheus",
    "latency_table",
    "percentile",
    "summarize_jsonl",
    "iter_jsonl",
    # report
    "RunReport",
    "TRACE_FORMATS",
]
