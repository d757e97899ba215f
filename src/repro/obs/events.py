"""The shared design-trace event vocabulary, and the trace file formats.

:class:`~repro.kb.trace.DesignTrace` renders events as text with a
two/three-character marker per event kind, and the observability
exporters (:mod:`repro.obs.export`) serialize the same events to JSONL.
Both consume *this* table, so a kind added to one surface can never
silently drift out of the other: ``render()`` looks markers up here,
and the JSONL exporter embeds the marker alongside the kind.

This module deliberately has no imports from the rest of the package
(it sits below :mod:`repro.kb.trace` in the import graph), so the CLI
can read :data:`TRACE_FORMATS` without loading the exporters.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "TRACE_FORMATS",
    "TRACE_KIND_MARKERS",
    "UNKNOWN_MARKER",
    "known_kinds",
    "marker_for",
]

#: Formats accepted by :meth:`~repro.obs.report.RunReport.write` and the
#: CLI's ``--trace-format``.
TRACE_FORMATS = ("jsonl", "chrome", "text")

#: Event kind -> rendering marker.  The single source of truth shared by
#: :meth:`repro.kb.trace.DesignTrace.render` and the JSONL exporter.
TRACE_KIND_MARKERS: Dict[str, str] = {
    "plan_start": ">>",
    "step": "  .",
    "rule_fired": "  !",
    "restart": " <<",
    "abort": " XX",
    "plan_done": "<<",
    "note": "  #",
    "selection": "==",
    "ladder": " ^^",
    "failure": " !!",
}

#: Marker for kinds outside the table (kept for forward compatibility:
#: a trace written by a newer version still renders, just anonymously).
UNKNOWN_MARKER = "  ?"


def known_kinds() -> Tuple[str, ...]:
    """Every event kind in the shared vocabulary, in table order."""
    return tuple(TRACE_KIND_MARKERS)


def marker_for(kind: str) -> str:
    """The rendering marker for ``kind`` (:data:`UNKNOWN_MARKER` if new)."""
    return TRACE_KIND_MARKERS.get(kind, UNKNOWN_MARKER)
