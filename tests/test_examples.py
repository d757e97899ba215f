"""Smoke tests: every shipped example runs to completion and prints its
headline content.  (The two sweep-heavy examples are exercised by the
corresponding benchmarks instead.)"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = spec.loader and spec.loader.exec_module(module) or module
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "Selected style" in out
        assert "Schematic" in out
        assert ".end" in out  # SPICE deck printed
        assert "measured gain_db" in out

    def test_custom_process(self, capsys):
        out = run_example("custom_process", capsys)
        assert "Table 1" in out
        assert "tweaked-5um" in out
        assert "generic-3um" in out

    def test_design_trace(self, capsys):
        out = run_example("design_trace", capsys)
        assert "cascode_first_stage" in out  # the rule fired
        assert "plan restart" in out

    def test_adc_system(self, capsys):
        out = run_example("adc_system", capsys)
        assert "8-bit SAR ADC" in out
        assert "worst code error" in out

    def test_noise_report(self, capsys):
        out = run_example("noise_report", capsys)
        assert "thermal estimate" in out
        assert "Top contributors" in out

    def test_extended_styles(self, capsys):
        out = run_example("extended_styles", capsys)
        assert "folded_cascode" in out
        assert "cmrr_db" in out

    def test_mismatch_and_corners(self, capsys):
        out = run_example("mismatch_and_corners", capsys)
        assert "Monte Carlo" in out
        assert "slow" in out

    def test_feedback_amplifier(self, capsys):
        out = run_example("feedback_amplifier", capsys)
        assert "Selected op amp: two_stage" in out
        assert "bandwidth" in out

    def test_feasibility_gate(self, capsys):
        out = run_example("feasibility_gate", capsys)
        assert "FEAS403" in out
        assert "refused: " in out
        assert "selected style: two_stage" in out

    def test_fault_injection(self, capsys):
        out = run_example("fault_injection", capsys)
        assert "absorbed by the retry ladder" in out
        assert "(identical -> absorbed)" in out
        assert "best = None  ok = False" in out
        assert "[internal]" in out
        assert "well under 100 ms" in out
        assert "block='opamp'" in out

    def test_plan_audit(self, capsys):
        out = run_example("plan_audit", capsys)
        assert "Per-step effect summaries" in out
        assert "restart edges" in out
        assert "0 finding(s)" in out
        assert "FLOW701" in out
        assert "DIM801" in out

    def test_telemetry_tail(self, capsys):
        out = run_example("telemetry_tail", capsys)
        assert "minted trace " in out
        assert "trace_id=" in out
        assert "schema-valid lines" in out
        assert "batch:batch.task_done" in out
        assert "latency histograms recorded:" in out
        assert "dc.solve_ms{status=ok}" in out

    def test_serve_client(self, capsys):
        out = run_example("serve_client", capsys)
        assert "healthz 200" in out
        assert "synthesize A@slow" in out
        assert "code='bad_request'" in out
        assert "code='deadline_unmeetable'" in out
        assert "[ 5] gain_db=75@slow" in out  # grid order held
        assert "drained: clean=True" in out
