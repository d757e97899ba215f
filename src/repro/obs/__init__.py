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

Importing the package loads no submodule: each exported name imports
the submodule that defines it on first use.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    # spans
    "Span": ".spans",
    "SpanHandle": ".spans",
    "NullSpan": ".spans",
    "NULL_SPAN": ".spans",
    "Tracer": ".spans",
    "current_tracer": ".spans",
    "current_span_id": ".spans",
    "span": ".spans",
    "count": ".spans",
    "observe": ".spans",
    "gauge": ".spans",
    # metrics
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "LATENCY_BUCKETS_MS": ".metrics",
    "MetricsRegistry": ".metrics",
    "metric_key": ".metrics",
    # telemetry
    "TraceContext": ".telemetry",
    "activate_trace": ".telemetry",
    "current_trace_context": ".telemetry",
    "current_trace_id": ".telemetry",
    "ensure_trace_context": ".telemetry",
    # logging
    "LOG_LEVELS": ".log",
    "LOG_SCHEMA": ".log",
    "CollectingSink": ".log",
    "StructLogger": ".log",
    "get_logger": ".log",
    "validate_log_line": ".log",
    # slo
    "SloTarget": ".slo",
    "SloCheck": ".slo",
    "load_targets": ".slo",
    "evaluate_trace": ".slo",
    "evaluate_snapshot": ".slo",
    "histogram_quantile": ".slo",
    # events vocabulary
    "TRACE_KIND_MARKERS": ".events",
    "UNKNOWN_MARKER": ".events",
    "known_kinds": ".events",
    "marker_for": ".events",
    # export
    "to_jsonl": ".export",
    "to_chrome": ".export",
    "to_chrome_json": ".export",
    "flame_text": ".export",
    "render_metrics": ".export",
    "render_prometheus": ".export",
    "latency_table": ".export",
    "percentile": ".export",
    "summarize_jsonl": ".export",
    "iter_jsonl": ".export",
    # report
    "RunReport": ".report",
    "TRACE_FORMATS": ".events",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


__all__ = list(_EXPORTS)
