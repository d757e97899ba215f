"""SLO analytics: percentile math, histogram quantiles, Prometheus
exposition, tail-latency tables, and the ``repro slo`` command
line."""

import json

import pytest

from repro.cli import main
from repro.obs.export import latency_table, percentile, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SloTarget,
    evaluate_snapshot,
    evaluate_trace,
    histogram_quantile,
    load_targets,
    render_checks,
)


def _trace_text(durations, errored=0, name="plan:two_stage"):
    lines = [json.dumps({"type": "meta", "format": "repro.obs/jsonl/1"})]
    for i, dur in enumerate(durations):
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": name,
                    "duration_ms": dur,
                    "status": "error" if i < errored else "ok",
                }
            )
        )
    return "\n".join(lines) + "\n"


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 95) is None

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile(
            [1.0, 2.0, 3.0], 50
        )


class TestHistogramQuantile:
    def _snap(self, values, bounds):
        reg = MetricsRegistry()
        for v in values:
            reg.observe("h", v, bounds=bounds)
        return reg.snapshot()["histograms"]["h"]

    def test_interpolates_within_bucket(self):
        snap = self._snap([0.5, 0.5], (1.0, 10.0))
        # Both obs in (0, 1]; p50 rank=1 of 2 -> halfway into the bucket.
        assert histogram_quantile(snap, 50) == pytest.approx(0.5)

    def test_overflow_bucket_reports_last_bound(self):
        snap = self._snap([50.0], (1.0, 10.0))
        assert histogram_quantile(snap, 99) == 10.0

    def test_empty_histogram_is_none(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        snap = dict(reg.snapshot()["histograms"]["h"], count=0)
        assert histogram_quantile(snap, 50) is None
        assert histogram_quantile({"count": 3}, 50) is None  # no bounds


class TestEvaluateTrace:
    def test_violation_and_pass(self):
        text = _trace_text([1.0, 2.0, 3.0, 40.0])
        targets = [SloTarget(name="plan:two_stage", p50_ms=5.0, p99_ms=10.0)]
        checks = evaluate_trace(text, targets)
        by_metric = {c.metric: c for c in checks}
        assert by_metric["p50_ms"].ok
        assert not by_metric["p99_ms"].ok

    def test_error_rate(self):
        text = _trace_text([1.0] * 10, errored=3)
        targets = [
            SloTarget(name="plan:two_stage", max_error_rate=0.5),
            SloTarget(name="plan:two_stage", max_error_rate=0.2),
        ]
        lax, strict = evaluate_trace(text, targets)
        assert lax.observed == pytest.approx(0.3)
        assert lax.ok and not strict.ok

    def test_missing_span_is_violation(self):
        checks = evaluate_trace(
            _trace_text([1.0]), [SloTarget(name="absent", p95_ms=1.0)]
        )
        assert len(checks) == 1 and not checks[0].ok
        assert checks[0].observed is None


class TestEvaluateSnapshot:
    def test_histogram_target_with_labels(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 300.0):
            reg.observe("serve.request_ms", v, bounds=(10.0, 1000.0),
                        endpoint="synthesize")
        reg.inc("serve.jobs", status="ok")
        reg.inc("serve.jobs", status="ok")
        reg.inc("serve.jobs", status="internal")
        snapshot = reg.snapshot()
        target = SloTarget(
            name="serve.request_ms",
            kind="histogram",
            labels={"endpoint": "synthesize"},
            p50_ms=50.0,
            p99_ms=50.0,
            max_error_rate=0.5,
            error_counter="serve.jobs{status=internal}",
            total_counter="serve.jobs",
        )
        checks = evaluate_snapshot(snapshot, [target])
        by_metric = {c.metric: c for c in checks}
        assert by_metric["p50_ms"].ok
        assert not by_metric["p99_ms"].ok
        assert by_metric["error_rate"].observed == pytest.approx(1 / 3)
        assert by_metric["error_rate"].ok

    def test_missing_histogram_is_violation(self):
        checks = evaluate_snapshot(
            {"histograms": {}, "counters": {}},
            [SloTarget(name="nope", kind="histogram", p95_ms=1.0)],
        )
        assert len(checks) == 1 and not checks[0].ok

    def test_render_checks_mentions_violations(self):
        checks = evaluate_snapshot(
            {"histograms": {}, "counters": {}},
            [SloTarget(name="nope", kind="histogram", p95_ms=1.0)],
        )
        text = render_checks(checks)
        assert "VIOLATION" in text and "1 violation(s)" in text


class TestLoadTargets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text(
            json.dumps(
                {
                    "targets": [
                        {"name": "dc:solve", "p95_ms": 5.0},
                        {
                            "name": "serve.request_ms",
                            "kind": "histogram",
                            "labels": {"endpoint": "synthesize"},
                            "p99_ms": 2000.0,
                        },
                    ]
                }
            )
        )
        targets = load_targets(str(path))
        assert [t.name for t in targets] == ["dc:solve", "serve.request_ms"]
        assert targets[1].labels == {"endpoint": "synthesize"}

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"targets": [{"name": "x", "p96_ms": 1}]}))
        with pytest.raises(ValueError, match="p96_ms"):
            load_targets(str(path))


class TestPrometheusRendering:
    def test_counter_gauge_histogram_families(self):
        reg = MetricsRegistry()
        reg.inc("serve.requests", endpoint="synthesize")
        reg.inc("serve.requests", endpoint="metrics")
        reg.set_gauge("serve.queue_depth", 3)
        for v in (0.5, 5.0, 500.0):
            reg.observe("dc.solve_ms", v, bounds=(1.0, 10.0), status="ok")
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert (
            'repro_serve_requests_total{endpoint="synthesize"} 1' in text
        )
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 3" in text
        assert "# TYPE repro_dc_solve_ms histogram" in text
        # Cumulative buckets: le=1 -> 1, le=10 -> 2, +Inf -> 3.
        assert 'repro_dc_solve_ms_bucket{status="ok",le="1"} 1' in text
        assert 'repro_dc_solve_ms_bucket{status="ok",le="10"} 2' in text
        assert 'repro_dc_solve_ms_bucket{status="ok",le="+Inf"} 3' in text
        assert 'repro_dc_solve_ms_count{status="ok"} 3' in text
        assert 'repro_dc_solve_ms_sum{status="ok"} 505.5' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("events", label='say "hi"\n')
        text = render_prometheus(reg.snapshot())
        assert '\\"hi\\"' in text and "\\n" in text


class TestLatencyTable:
    def test_per_span_percentiles(self):
        from repro.obs.spans import Span

        spans = [
            Span(name="dc:solve", span_id=f"s{i}", parent_id=None,
                 start_ms=0.0, duration_ms=float(i + 1))
            for i in range(4)
        ]
        spans.append(
            Span(name="plan:step", span_id="p1", parent_id=None,
                 start_ms=0.0, duration_ms=100.0, status="error")
        )
        table = latency_table(spans)
        assert "span" in table and "p95 ms" in table
        assert "dc:solve" in table and "plan:step" in table
        assert "(1 err)" in table
        # Sorted by p99 descending: the slow errored span leads.
        assert table.index("plan:step") < table.index("dc:solve")


class TestSloCli:
    def _write_targets(self, tmp_path, targets):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"targets": targets}))
        return str(path)

    def test_trace_mode_pass_and_fail(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(_trace_text([1.0, 2.0]))
        ok_targets = self._write_targets(
            tmp_path, [{"name": "plan:two_stage", "p95_ms": 100.0}]
        )
        assert main(["slo", "--trace", str(trace), "--targets", ok_targets]) == 0
        bad = self._write_targets(
            tmp_path, [{"name": "plan:two_stage", "p95_ms": 0.001}]
        )
        assert main(["slo", "--trace", str(trace), "--targets", bad]) == 4
        assert "VIOLATION" in capsys.readouterr().out

    def test_metrics_url_mode(self, tmp_path, capsys):
        from repro.serve import ServeConfig, ServerHandle

        targets = self._write_targets(
            tmp_path,
            [
                {
                    "name": "serve.request_ms",
                    "kind": "histogram",
                    "labels": {"endpoint": "healthz"},
                    "p99_ms": 60_000.0,
                }
            ],
        )
        with ServerHandle(ServeConfig(mode="thread")) as handle:
            from repro.serve import ServeClient

            ServeClient(handle.host, handle.port).healthz()
            url = f"http://{handle.host}:{handle.port}/metrics"
            assert main(["slo", "--metrics-url", url, "--targets", targets]) == 0
        out = capsys.readouterr().out
        assert "serve.request_ms{endpoint=healthz}" in out

    def test_usage_errors(self, capsys):
        assert main(["slo", "--targets", "t.json"]) == 1
        err = capsys.readouterr().err
        assert "--trace/--metrics-url" in err
