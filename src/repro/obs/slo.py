"""SLO evaluation: declarative latency / error-rate targets.

The repo *produces* latency data two ways -- JSONL traces (span
durations) and metrics snapshots (histogram buckets, via
``GET /metrics?format=json`` or a merged batch registry).  This module
is the consumer: it turns "are we fast enough?" from a judgement call
into a checked, CI-gateable comparison.

* :class:`SloTarget` -- one declarative objective: a span name or
  histogram metric, optional p50/p95/p99 millisecond ceilings, and an
  optional error-rate ceiling.  Targets load from a plain JSON file
  (:func:`load_targets`) so services version them next to their code.
* :func:`evaluate_trace` -- exact percentiles over span durations in a
  JSONL trace (:func:`repro.obs.export.percentile`), error rate =
  errored spans / spans.
* :func:`evaluate_snapshot` -- bucket-interpolated quantiles from a
  metrics snapshot's histograms (:func:`histogram_quantile`, the
  ``histogram_quantile()`` PromQL estimator), error rate from a
  numerator/denominator counter pair.

``repro slo`` is the CLI front; every function here is pure so the
evaluation itself is unit-testable without a server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .export import iter_jsonl, percentile

__all__ = [
    "SloCheck",
    "SloTarget",
    "evaluate_snapshot",
    "evaluate_trace",
    "histogram_quantile",
    "load_targets",
    "render_checks",
]

_PERCENTILE_FIELDS = (("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0))


@dataclass(frozen=True)
class SloTarget:
    """One objective.

    Attributes:
        name: span name (``kind="span"``) or histogram metric name
            (``kind="histogram"``, labels via ``labels``).
        kind: ``"span"`` or ``"histogram"``.
        labels: label filter for histogram targets (exact match on the
            canonical snapshot key).
        p50_ms / p95_ms / p99_ms: latency ceilings (None = unchecked).
        max_error_rate: ceiling on errored fraction.  Spans count
            ``status == "error"``; snapshots divide the
            ``error_counter`` series total by the ``total_counter``
            series total.
        error_counter / total_counter: counter names for the snapshot
            error rate (required there when ``max_error_rate`` is set).
    """

    name: str
    kind: str = "span"
    labels: Dict[str, str] = field(default_factory=dict)
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    max_error_rate: Optional[float] = None
    error_counter: Optional[str] = None
    total_counter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("span", "histogram"):
            raise ValueError(
                f"target {self.name!r}: kind must be 'span' or "
                f"'histogram', got {self.kind!r}"
            )


@dataclass(frozen=True)
class SloCheck:
    """One evaluated objective dimension (e.g. ``p95_ms``)."""

    target: str
    metric: str
    observed: Optional[float]
    limit: float
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# Target files
# ----------------------------------------------------------------------
def load_targets(path: str) -> List[SloTarget]:
    """Targets from a JSON file: ``{"targets": [{...}, ...]}``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = payload.get("targets") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a 'targets' list")
    targets: List[SloTarget] = []
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            raise ValueError(f"{path}: every target needs a 'name': {row!r}")
        known = {
            "name", "kind", "labels", "p50_ms", "p95_ms", "p99_ms",
            "max_error_rate", "error_counter", "total_counter",
        }
        unknown = set(row) - known
        if unknown:
            raise ValueError(
                f"{path}: unknown target fields {sorted(unknown)} "
                f"on {row['name']!r}"
            )
        targets.append(SloTarget(**row))
    return targets


# ----------------------------------------------------------------------
# Trace-based evaluation (exact percentiles over span durations)
# ----------------------------------------------------------------------
def evaluate_trace(text: str, targets: Sequence[SloTarget]) -> List[SloCheck]:
    """Evaluate span-kind targets against a JSONL trace."""
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for row in iter_jsonl(text):
        if row.get("type") != "span":
            continue
        name = str(row.get("name", ""))
        durations.setdefault(name, []).append(
            float(row.get("duration_ms", 0.0))
        )
        if row.get("status") == "error":
            errors[name] = errors.get(name, 0) + 1
    checks: List[SloCheck] = []
    for target in targets:
        if target.kind != "span":
            continue
        values = durations.get(target.name, [])
        for attr, pct in _PERCENTILE_FIELDS:
            limit = getattr(target, attr)
            if limit is None:
                continue
            observed = percentile(values, pct)
            checks.append(
                SloCheck(
                    target=target.name,
                    metric=attr,
                    observed=observed,
                    limit=float(limit),
                    ok=observed is not None and observed <= float(limit),
                    detail=f"{len(values)} spans",
                )
            )
        if target.max_error_rate is not None:
            n = len(values)
            rate = (errors.get(target.name, 0) / n) if n else None
            checks.append(
                SloCheck(
                    target=target.name,
                    metric="error_rate",
                    observed=rate,
                    limit=float(target.max_error_rate),
                    ok=rate is not None and rate <= float(target.max_error_rate),
                    detail=f"{errors.get(target.name, 0)}/{n} errored",
                )
            )
    return checks


# ----------------------------------------------------------------------
# Snapshot-based evaluation (bucket-interpolated quantiles)
# ----------------------------------------------------------------------
def histogram_quantile(snap: Mapping[str, Any], pct: float) -> Optional[float]:
    """The PromQL ``histogram_quantile`` estimator over one histogram
    snapshot: linear interpolation within the bucket that crosses the
    quantile rank (the final open bucket reports its lower bound)."""
    count = int(snap.get("count", 0))
    bounds = [float(b) for b in (snap.get("bounds") or [])]
    if not count or not bounds:
        return None
    buckets = dict(snap.get("buckets") or {})

    def bucket_n(bound: float) -> int:
        label = f"le_{int(bound) if bound.is_integer() else bound}"
        return int(buckets.get(label, 0))

    rank = (max(0.0, min(100.0, pct)) / 100.0) * count
    cumulative = 0
    previous_bound = 0.0
    for bound in bounds:
        n = bucket_n(bound)
        if n and cumulative + n >= rank:
            inside = max(0.0, rank - cumulative)
            return previous_bound + (bound - previous_bound) * (
                inside / n
            )
        cumulative += n
        previous_bound = bound
    return bounds[-1]  # rank falls in the gt_* overflow bucket


def _counter_total(counters: Mapping[str, Any], name: str) -> float:
    prefix = name + "{"
    return float(
        sum(
            v
            for k, v in counters.items()
            if k == name or k.startswith(prefix)
        )
    )


def evaluate_snapshot(
    snapshot: Mapping[str, Any], targets: Sequence[SloTarget]
) -> List[SloCheck]:
    """Evaluate histogram-kind targets against a metrics snapshot."""
    from .metrics import metric_key

    histograms = dict(snapshot.get("histograms") or {})
    counters = dict(snapshot.get("counters") or {})
    checks: List[SloCheck] = []
    for target in targets:
        if target.kind != "histogram":
            continue
        key = metric_key(target.name, target.labels)
        snap = histograms.get(key)
        for attr, pct in _PERCENTILE_FIELDS:
            limit = getattr(target, attr)
            if limit is None:
                continue
            observed = (
                histogram_quantile(snap, pct) if snap is not None else None
            )
            checks.append(
                SloCheck(
                    target=key,
                    metric=attr,
                    observed=observed,
                    limit=float(limit),
                    ok=observed is not None and observed <= float(limit),
                    detail=(
                        f"{int(snap.get('count', 0))} observations"
                        if snap is not None
                        else "no such histogram"
                    ),
                )
            )
        if target.max_error_rate is not None:
            numerator = target.error_counter
            denominator = target.total_counter
            rate: Optional[float] = None
            detail = "error_counter/total_counter not set"
            if numerator and denominator:
                total = _counter_total(counters, denominator)
                bad = _counter_total(counters, numerator)
                rate = (bad / total) if total else None
                detail = f"{bad:g}/{total:g}"
            checks.append(
                SloCheck(
                    target=key,
                    metric="error_rate",
                    observed=rate,
                    limit=float(target.max_error_rate),
                    ok=rate is not None
                    and rate <= float(target.max_error_rate),
                    detail=detail,
                )
            )
    return checks


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_checks(checks: Sequence[SloCheck]) -> str:
    """The ``repro slo`` check table."""
    if not checks:
        return "(no applicable SLO targets)\n"
    lines = [
        f"{'target':<40} {'metric':<11} {'observed':>10} {'limit':>10}  "
        f"verdict"
    ]
    for check in checks:
        observed = (
            f"{check.observed:.3f}" if check.observed is not None else "n/a"
        )
        verdict = "ok" if check.ok else "VIOLATION"
        suffix = f"  ({check.detail})" if check.detail else ""
        lines.append(
            f"{check.target:<40} {check.metric:<11} {observed:>10} "
            f"{check.limit:>10.3f}  {verdict}{suffix}"
        )
    failed = sum(1 for c in checks if not c.ok)
    lines.append("")
    lines.append(
        f"{len(checks)} check(s), {failed} violation(s)"
    )
    return "\n".join(lines) + "\n"

