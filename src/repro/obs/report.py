"""The per-run observability artefact: :class:`RunReport`.

A :class:`RunReport` freezes one observed run -- finished spans, the
deterministic metrics snapshot, the design-trace events (as dicts, see
:meth:`repro.kb.trace.DesignTrace.to_dicts`) and free-form metadata --
into a self-describing value that travels on
:class:`~repro.opamp.result.SynthesisResult` and knows how to render
itself in every supported format (JSONL / Chrome trace / flame text).

OSIRIS-style batch workloads depend on this: every run emits its own
structured, machine-readable performance record, so a dataset of ten
thousand syntheses is also a dataset of ten thousand profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .events import TRACE_FORMATS
from .export import (
    flame_text,
    latency_table,
    render_metrics,
    to_chrome_json,
    to_jsonl,
)
from .spans import Span, Tracer

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Spans + metrics + events for one synthesis (or simulation) run.

    Attributes:
        spans: finished spans in start order.
        metrics: deterministic metrics snapshot
            (see :meth:`repro.obs.metrics.MetricsRegistry.snapshot`).
        events: design-trace events as dicts (timestamped, span-tagged).
        total_ms: wall-clock covered by the spans (latest end time).
        meta: free-form run metadata (spec label, styles, versions...).
    """

    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    total_ms: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        events: Optional[Sequence[Mapping[str, Any]]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot ``tracer`` (spans sorted into start order)."""
        spans = tracer.spans_by_start()
        return cls(
            spans=spans,
            metrics=tracer.metrics.snapshot(),
            events=[dict(e) for e in (events or [])],
            total_ms=max((s.end_ms for s in spans), default=tracer.now_ms()),
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def root_spans(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def span_coverage(self) -> float:
        """Fraction of :attr:`total_ms` covered by root spans (the
        acceptance metric: a well-instrumented run is near 1.0)."""
        if self.total_ms <= 0.0:
            return 1.0
        covered = sum(s.duration_ms for s in self.root_spans())
        return min(1.0, covered / self.total_ms)

    def counter(self, name: str) -> float:
        """Counter value summed over every labelled series."""
        counters: Mapping[str, Any] = self.metrics.get("counters", {})
        prefix = name + "{"
        return float(
            sum(
                v
                for k, v in counters.items()
                if k == name or k.startswith(prefix)
            )
        )

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "total_ms": round(self.total_ms, 3),
            "spans": [s.to_dict() for s in self.spans],
            "events": [dict(e) for e in self.events],
            "metrics": dict(self.metrics),
        }

    def to_jsonl(self) -> str:
        meta = dict(self.meta)
        meta["total_ms"] = round(self.total_ms, 3)
        return to_jsonl(self.spans, self.events, self.metrics, meta)

    def to_chrome_json(self) -> str:
        return to_chrome_json(
            self.spans,
            self.events,
            self.metrics,
            process_name=str(self.meta.get("label", "repro")) or "repro",
        )

    def flame(self, min_ms: float = 0.0) -> str:
        return flame_text(self.spans, min_ms=min_ms)

    def summary(self) -> str:
        """Headline + flame + metrics, for terminals (``repro stats``)."""
        lines = [
            f"Run report: {len(self.spans)} spans, "
            f"{len(self.events)} trace events, {self.total_ms:.1f} ms "
            f"({100.0 * self.span_coverage():.1f}% span coverage)"
        ]
        for key in sorted(self.meta):
            lines.append(f"  meta {key}: {self.meta[key]}")
        lines.append("")
        lines.append(self.flame())
        lines.append("tail latency (per span name):")
        lines.append(latency_table(self.spans))
        lines.append(render_metrics(self.metrics))
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        """One of :data:`TRACE_FORMATS` as a string."""
        if fmt == "jsonl":
            return self.to_jsonl()
        if fmt == "chrome":
            return self.to_chrome_json()
        if fmt == "text":
            return self.summary()
        raise ValueError(
            f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}"
        )

    def write(self, path: str, fmt: str = "jsonl") -> None:
        """Render in ``fmt`` and write to ``path``."""
        content = self.render(fmt)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
            if not content.endswith("\n"):
                handle.write("\n")
